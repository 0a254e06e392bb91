"""Assignment solvers: exact enumeration at desk scale plus baselines.

The exact solver enumerates every surjective assignment in lexicographic
order (giving reproducible tie-breaks), block by block in numpy, as
prefixes that can still be completed times a table of tails; it is the
oracle the heuristics are measured against. The heuristics re-implement
the simple schemes common in the pilot-assignment literature: uniform
random assignment, linear-time greedy feasibility, iterative improvement
of the worst user's rate, and steepest-descent local search on the
reduced interference graph.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .objective import co_pilot_sum, contamination_objective, interference_pairs
from .reductions import WeightedGraph, _as_float, pa_to_mkp
from .system_model import (
    CfMmimoSystem,
    PilotAssignment,
    _index,
    _over_common_denominator,
    _require_valid,
    check_assignment,
    system_throughput,
    uplink_rate,
    uplink_rates,
)

__all__ = [
    "BudgetExceededError",
    "SolveReport",
    "DEFAULT_BUDGET",
    "count_surjective_assignments",
    "brute_force_exact",
    "brute_force_partition",
    "decide",
    "greedy_feasible",
    "random_feasible",
    "greedy_worst_user",
    "local_search_move",
]

Value = Union[float, Fraction]

# Strong NP-hardness rules out cheap exactness at scale; refuse loudly
# rather than run for hours. 2e6 assignments is roughly K=21 at tau=2.
DEFAULT_BUDGET = 2_000_000

# Labelings scored together: enough to amortise one numpy call per pair
# weight over many labelings, few enough to keep each block small.
_BLOCK = 8192

# Uniform labelings random_feasible draws before it samples exactly.
_REJECTION_DRAWS = 64


class BudgetExceededError(RuntimeError):
    """Exact enumeration would visit more assignments than allowed."""


@dataclass(frozen=True)
class SolveReport:
    """Solver output, for pilot assignment and Min-k-Partition alike.

    On a system, objective always equals ``contamination_objective`` of the
    reported assignment and throughput equals ``system_throughput``; ``of``
    builds such a report. A graph solve (``brute_force_partition``) builds
    its own: its partition as the assignment whose pilot labels are the
    block labels, its partition objective, and throughput None.
    """

    assignment: PilotAssignment
    objective: Value
    throughput: Optional[float]
    solver_name: str
    iterations: int
    elapsed_seconds: float
    optimality_certificate: str  # "exact" | "heuristic"

    def __post_init__(self) -> None:
        if self.optimality_certificate == "exact" and not self.objective < math.inf:
            raise ValueError(f"optimum {self.objective} is not finite: its float sum overflowed")

    @classmethod
    def of(
        cls, s: CfMmimoSystem, a: PilotAssignment, solver_name: str, t0: float,
        iterations: int = 0, certificate: str = "heuristic", exact: bool = False,
    ) -> "SolveReport":
        """Score a on s (rationally when exact), timed from t0, a perf_counter reading."""
        return cls(
            a, contamination_objective(s, a, exact=exact), system_throughput(s, a),
            solver_name, iterations, time.perf_counter() - t0, certificate,
        )


def _completions(unused: int, left: int, n_labels: int) -> int:
    """Labelings of `left` items with n_labels labels using all of `unused` given ones."""
    return sum(
        (-1) ** i * math.comb(unused, i) * (n_labels - i) ** left
        for i in range(unused + 1)
    )


def count_surjective_assignments(k_users: int, n_pilots: int) -> int:
    """Number of surjections from k_users onto n_pilots, by inclusion-exclusion."""
    return _completions(n_pilots, k_users, n_pilots)


def _extend(prefix: np.ndarray, used: np.ndarray, need: int):
    """Extend each prefix by every label after which it uses `need` labels or more.

    prefix is (d, r) and used (r, k) bool; returns the (d + 1, r')
    prefixes, in lexicographic order, and the labels each has used. Kept
    out of the recursion so its temporaries are freed before the next
    level is built.
    """
    parent, label = np.nonzero(used.sum(axis=1, keepdims=True) + ~used >= need)
    grown = used[parent]
    grown[np.arange(parent.size), label] = True
    return np.vstack((prefix[:, parent], label.astype(np.int8))), grown


def _surjection_blocks(n: int, k: int):
    """Every surjective labeling of n items with k labels, in lexicographic order.

    Yields (n, rows) int8 arrays, one labeling per column, each of whole
    heads with all their tails, 1 to under 2 * _BLOCK labelings. A labeling
    is a head of n - t labels and a tail of t, t the longest whose k**t
    labelings fit in _BLOCK and at most its bit length (np.indices takes
    an axis per tail item); the tails are tabulated once, in lexicographic
    order. Heads grow one item at a time, each by every label, in
    increasing order, that still leaves enough items to use the labels it
    lacks. Then each head is followed by every tail that uses all the
    labels it lacks, in tail order. So no non-surjective labeling is
    built, and per surjection the work is one copy of its n labels and at
    most (n - t) * k / min(t, k)! tried head extensions (every head has
    that many completions or more).
    int8 holds any label count a budget can afford: 128 labels take 128!.
    """
    t = next(t for t in range(min(n, _BLOCK.bit_length()), -1, -1) if k**t <= _BLOCK)
    tails = np.indices((k,) * t, np.int8).reshape(t, k**t)
    missing = np.ones((k**t, k), bool)  # the labels each tail does not use
    missing[np.arange(k**t), tails] = False
    step = max(1, _BLOCK // k)  # prefixes whose extensions fit in one block

    def expand(heads, used):
        # Heads that lack the same labels share their tails: one lookup per set.
        lacks, key = np.unique(~used, axis=0, return_inverse=True)
        key = key.reshape(-1)  # numpy 2.0.0 returns a column
        fits = ~(lacks @ missing.T)  # (set, tail): the tail uses every label of the set
        per_set = fits.sum(axis=1)
        fitting = tails.take(np.flatnonzero(fits) % k**t, axis=1)  # each set's tails in turn
        count = per_set[key]
        ends = np.cumsum(count)
        # Output column c of head i is column c + shift[i] of fitting.
        shift = (np.cumsum(per_set) - per_set)[key] - ends + count
        cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK), side="right")
        for a, b in zip([0, *cuts], [*cuts, len(key)]):
            cols = np.arange(ends[a] - count[a], ends[b - 1]) + np.repeat(shift[a:b], count[a:b])
            yield np.vstack((heads[:, a:b].repeat(count[a:b], axis=1), fitting.take(cols, axis=1)))

    def grow(prefix, used):
        # prefix: (d, r) labels of r prefixes in lexicographic order;
        # used: (r, k) bool, the labels each prefix has used.
        d = prefix.shape[0]
        if d == n - t:
            yield prefix, used
            return
        need = k - (n - d - 1)  # labels a completable prefix of length d + 1 uses
        for lo in range(0, prefix.shape[1], step):
            yield from grow(*_extend(prefix[:, lo:lo + step], used[lo:lo + step], need))

    # grow calls itself, a reference cycle, so it must not hold the tail
    # tables, which would then outlive the call.
    for chunk in grow(np.zeros((0, 1), np.int8), np.zeros((1, k), bool)):
        yield from expand(*chunk)


def _min_over_surjections(n: int, k: int, pairs, budget: int, exact=None, rel=2.0**-52):
    """Minimize the exact same-label pair-weight sum over surjective labelings.

    pairs holds (i, j, w), w an int, Fraction or float. The exact weights
    are these, or those ``exact()`` returns, each within rel * w' + tiny of
    the float w' in pairs, tiny = rel * 2**-1018. Returns (the optimum's
    float total, the lexicographically smallest exact optimum, surjections
    visited). A float pass sums each labeling's weights, rounded to floats
    (inf beyond float range), in pair order; E bounds a total's distance to
    its exact sum: the sum's gamma_P (P nonzero pairs), rel and tiny. A
    total that overflowed has an exact sum beyond any finite cut's bound.
    Partitions, one labeling each, within 2E of the least total are kept;
    if more than one is, exact integer sums decide.
    """
    budget = _index(budget, ValueError, "budget")
    total = count_surjective_assignments(n, k)
    if total > budget:
        raise BudgetExceededError(
            f"exact enumeration needs {total} assignments, budget is {budget}"
        )
    floats = [(i, j, _as_float(w)) for i, j, w in pairs if w != 0]
    grow = _up(1.0 + 8.0 * _up(_gamma(len(floats)) + rel))
    slack = _up(len(floats) * rel * 2.0**-1016)

    def cut(t):  # t + 2E rounded up, for any gamma_P + rel <= 1/4
        return _up(_up(t * grow) + slack)

    best, kept, visited = math.inf, [], 0
    for labels in _surjection_blocks(n, k):
        totals = np.zeros(labels.shape[1])
        # One masked addition per pair, in pair order: each labeling's total
        # is the sequence of additions a scalar loop over the pairs makes.
        with np.errstate(over="ignore"):  # an overflowed total is inf
            for i, j, w in floats:
                np.add(totals, w, out=totals, where=labels[i] == labels[j])
        visited += labels.shape[1]
        # only a block that starts with label 0 holds partitions' first labelings
        low = float(totals.min()) if labels[0, 0] == 0 else math.inf
        if low <= cut(best):
            best = min(best, low)
            near = np.flatnonzero(totals <= cut(best))
            # a partition's first labeling: its running maximum label starts at 0, steps by 1
            top = np.maximum.accumulate(labels[:, near], axis=0)
            near = near[(top[0] == 0) & (top[1:] - top[:-1] <= 1).all(axis=0)]
            kept.append((labels[:, near], totals[near]))
    labels, totals = np.hstack([c for c, _ in kept]), np.concatenate([t for _, t in kept])
    near = np.flatnonzero(totals <= cut(best))
    if near.size > 1:  # near-ties: exact sums decide, the first least winning
        ratios = [(i, j, Fraction(w)) for i, j, w in (exact() if exact else pairs) if w != 0]
        ints, _ = _over_common_denominator(w.as_integer_ratio() for *_, w in ratios)
        ints = [(i, j, w) for (i, j, _), w in zip(ratios, ints)]
        sums = [sum(w for i, j, w in ints if c[i] == c[j]) for c in labels[:, near].T.tolist()]
        near = near[sums.index(min(sums)):]
    return float(totals[near[0]]), tuple(labels[:, near[0]].tolist()), visited


def _w_error(s: CfMmimoSystem) -> float:
    """rel for the float W against the exact W of the same beta: a term of
    ``_user_terms``' sums is a division, a square, up to a - 1 additions (a
    the largest serving set) and the two sides' addition, gamma_{2a+6} of
    the float entry; 2a underflows, 2**-1075 each, stay below tiny."""
    return _gamma(2 * max(map(len, s.serving_sets)) + 6)


def brute_force_exact(
    s: CfMmimoSystem, budget: int = DEFAULT_BUDGET, exact: bool = False
) -> SolveReport:
    """Global minimizer of the contamination objective by full enumeration.

    Visits exactly tau! * S2(K, tau) surjective assignments (S2 is the
    Stirling number of the second kind) and reports the lexicographically
    smallest optimum of the exact W (rational mode's, from the payload if
    any). The labels do not depend on ``exact``, which picks the objective:
    a float, refused with ValueError if its sum overflows, or a Fraction.
    Raises BudgetExceededError, with the required count, when the space is
    larger than budget, and ValueError on an invalid system.
    """
    t0 = time.perf_counter()
    payload = s.beta_sq_exact is not None  # then it, not beta, gives the exact W: round that
    pairs = interference_pairs(s, exact=payload)  # exact pairs decide near-ties themselves
    _, best, visited = _min_over_surjections(
        s.k_users, s.tau_pilots, pairs, budget,
        None if payload else lambda: interference_pairs(s, exact=True),
        2.0**-52 if payload else _w_error(s),
    )
    a = PilotAssignment(best, s.tau_pilots)
    return SolveReport.of(s, a, "brute", t0, visited, "exact", exact=exact)


def brute_force_partition(g: WeightedGraph, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Exact Min-k-Partition by enumeration of surjective labelings.

    Reports the lexicographically smallest optimum of the exact weights,
    ints beyond float range included, as the assignment of its block labels
    with throughput None. Its objective is a Fraction when every weight is
    an int or Fraction, else the float sum of the weights rounded to
    floats, in edge order, refused with ValueError if it overflows.
    """
    t0 = time.perf_counter()
    pairs = [(i, j, w) for (i, j), w in sorted(g.weights.items())]
    value, best, visited = _min_over_surjections(g.n_vertices, g.k_parts, pairs, budget)
    if all(isinstance(w, (int, Fraction)) for *_, w in pairs):
        value = sum((Fraction(w) for i, j, w in pairs if best[i] == best[j]), Fraction(0))
    a = PilotAssignment(best, g.k_parts)
    return SolveReport(a, value, None, "brute", visited, time.perf_counter() - t0, "exact")


def decide(s: CfMmimoSystem, q, budget: int = DEFAULT_BUDGET) -> bool:
    """Decision form: is the exact optimal contamination, a Fraction, at most q?"""
    if not q >= 0:
        raise ValueError(f"threshold must be nonnegative, got {q}")
    return brute_force_exact(s, budget=budget, exact=True).objective <= q


def greedy_feasible(s: CfMmimoSystem) -> PilotAssignment:
    """Feasible assignment in O(K) time.

    Gives users 0..tau-2 pilots 0..tau-2 and parks everyone else on the
    last pilot. Raises ValueError on an invalid system.
    """
    _require_valid(s)
    k, tau = s.k_users, s.tau_pilots
    return PilotAssignment(tuple(range(tau - 1)) + (tau - 1,) * (k - tau + 1), tau)


def random_feasible(s: CfMmimoSystem, seed: int) -> PilotAssignment:
    """Uniform draw over feasible assignments.

    Rejection-samples up to _REJECTION_DRAWS uniform labelings and returns
    the first surjective one. If all are rejected (likely when tau is
    close to K), it goes on with the same generator and labels the users
    in order, giving each pilot a probability proportional to its number
    of surjective completions. Either way the draw is uniform on the
    surjections; deterministic for a given seed. Raises ValueError on an
    invalid system.
    """
    _require_valid(s)
    k, tau = s.k_users, s.tau_pilots
    rng = random.Random(seed)
    for _ in range(_REJECTION_DRAWS):
        cand = [rng.randrange(tau) for _ in range(k)]
        if len(set(cand)) == tau:
            return PilotAssignment(tuple(cand), tau)
    pilots: list[int] = []
    for user in range(k):
        unused = tau - len(set(pilots))
        cum = list(itertools.accumulate(
            _completions(unused - (p not in pilots), k - user - 1, tau) for p in range(tau)
        ))
        pilots.append(bisect.bisect_right(cum, rng.randrange(cum[-1])))
    return PilotAssignment(tuple(pilots), tau)


def greedy_worst_user(
    s: CfMmimoSystem, init: PilotAssignment, max_rounds: int = 100
) -> SolveReport:
    """Iteratively re-pilot the worst user to the pilot that helps it most.

    Each round finds the user with the minimum uplink rate, moves it to
    the surjectivity-preserving pilot maximizing its own rate, and keeps
    the move only if the system-wide worst rate strictly improves; stops
    at the first rejected move or after max_rounds accepted ones. The
    worst-user rate is therefore non-decreasing from init to output.
    """
    check_assignment(s, init)
    t0 = time.perf_counter()
    tau, k_users = s.tau_pilots, s.k_users
    current = init
    rates = uplink_rates(s, current)
    accepted = 0
    while accepted < max_rounds:
        worst = min(range(k_users), key=rates.__getitem__)  # the first minimum
        if current.pilot_of.count(current.pilot_of[worst]) < 2:
            break  # moving the worst user would empty its pilot
        best_rate = rates[worst]
        best = None
        for p in range(tau):
            if p == current.pilot_of[worst]:
                continue
            cand = list(current.pilot_of)
            cand[worst] = p
            cand_a = PilotAssignment(tuple(cand), tau)
            r = uplink_rate(s, cand_a, worst)
            if r > best_rate:
                best_rate, best = r, cand_a
        if best is None:
            break
        cand_rates = uplink_rates(s, best)
        if min(cand_rates) > min(rates):
            current, rates = best, cand_rates
            accepted += 1
        else:
            break
    return SolveReport.of(s, current, "worst-user", t0, accepted)


def _up(x: float) -> float:
    """The next float above x, a bound on any real that rounds to x."""
    return math.nextafter(x, math.inf)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2**-53, rounded up.

    A float sum of at most n + 1 nonnegative terms, added in any order,
    is within gamma_n of its exact value, relatively (Higham, Accuracy
    and Stability of Numerical Algorithms, section 4.2).
    """
    return _up(float(Fraction(n, 2**53 - n)))


def local_search_move(
    s: CfMmimoSystem, init: PilotAssignment, max_iters: int = 10_000
) -> SolveReport:
    """Steepest-descent single-user moves on the reduced graph objective.

    At each step evaluates every surjectivity-preserving move of one user
    to another pilot, applies the move with the most negative objective
    change (ties: lowest user, then lowest pilot), and stops at a local
    optimum or after max_iters moves. The objective never increases. The
    search is deterministic.

    A move is applied only if the objective, re-summed in pair order, is
    lower after it (a float guard: the move's change comes from sums in
    another order). That guard is evaluated only when the change is
    within the rounding bound of the two sums and of the change itself;
    outside it the guard provably passes. So the search makes the moves,
    stops and tie-breaks of one that re-sums after every move, and the
    objective is summed once on most runs.
    """
    check_assignment(s, init)
    t0 = time.perf_counter()
    w = pa_to_mkp(s).matrix()
    k_users, tau = s.k_users, s.tau_pilots
    users = np.arange(k_users)
    labels = np.array(init.pilot_of)
    on_pilot = np.zeros((k_users, tau))
    on_pilot[users, labels] = 1.0
    group = np.bincount(labels, minlength=tau)
    # Rounding bounds, each rounded up: g_sum for an objective sum, g_move
    # for a move's change (two row sums and their difference), and hi an
    # upper bound on the exact objective of labels.
    g_sum, g_move = _gamma(k_users * (k_users - 1) // 2), _gamma(k_users + 2)
    above = _up(1.0 + 2.0 * g_sum)  # exact <= computed * above
    cur = co_pilot_sum(w, labels)  # None once stale: labels moved unguarded
    hi = _up(cur * above)
    moves = 0
    while moves < max_iters:
        # gain[k, p]: total weight between k and the users on pilot p, so
        # moving k to p changes the objective by gain[k, p] - gain[k, own].
        # An overflowed gain gives an inf or nan change, which ends the search.
        with np.errstate(over="ignore", invalid="ignore"):
            gain = w @ on_pilot
            delta = gain - gain[users, labels][:, None]
        delta[users, labels] = np.inf
        delta[group[labels] < 2] = np.inf  # moving k would empty its pilot
        k, p = divmod(int(np.argmin(delta)), tau)  # first minimum in (k, p) order
        d = float(delta[k, p])
        if not d < 0.0:
            break
        # The exact change is within e_d of d, and each objective sum within
        # g_sum of its exact value; below -band the re-summed objective drops.
        e_d = _up(g_move * _up(float(gain[k, p]) + float(gain[k, labels[k]])))
        band = _up(e_d + _up(g_sum * _up(2.0 * hi + e_d)))
        trial = labels.copy()
        trial[k] = p
        if d < -band:
            cur, hi = None, _up(hi + _up(d + e_d))
        else:
            if cur is None:
                cur = co_pilot_sum(w, labels)
            new = co_pilot_sum(w, trial)
            if new >= cur:  # float re-association guard; keeps descent strict
                break
            cur, hi = new, _up(new * above)
        on_pilot[k, labels[k]] = 0.0
        on_pilot[k, p] = 1.0
        group[labels[k]] -= 1
        group[p] += 1
        labels = trial
        moves += 1

    final = PilotAssignment(tuple(labels.tolist()), tau)
    return SolveReport.of(s, final, "local-search", t0, moves)
