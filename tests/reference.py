"""Loop-based reference implementations of the vectorized hot paths.

These are the per-pair and per-user loops that ``local_search_move``,
``greedy_worst_user`` and ``uplink_rate`` replaced with matrix
arithmetic. They read the fading matrix directly and take every pair
weight from ``pair_weight``, the scalar definition of w(k, j) that
``pairwise_interference`` computed before it became an entry of the
memoised matrix, so the differential tests compare the matrix code
against an independent evaluation.
``min_over_surjections`` is the tuple-by-tuple enumeration the numpy
block enumerator of the exact solvers replaced, scoring by exact sums
(the solvers' float filter and exact decision must agree with it), and
``float_total`` the float total of one labeling; ``surjection_blocks``
that enumerator as it was before heads were multiplied by a table of
tails (it grows every prefix one item at a time, down to the last, and
cuts the labelings into full blocks), and ``random_feasible`` the plain
rejection sampler. ``contamination_report`` is the pair loop that summed
the report's total and per-user values. ``interference_exact`` and
``co_pilot_sum_exact`` are rational mode on ``Fraction``s, built
from the Fraction beta squares of ``exact_beta_squares``, which the
integer row form replaced; they are the independent check of the exact
matrix, the exact objective and the exact scalar weight.
``integer_beta_squares``, ``exact_rows``, ``contamination_objective_exact``
and ``verify_exact`` are that integer row form as it was before the term
by term certificate: every column over an lcm, the full K x K rows, a
sequential sum of per-user Fractions, and an exact verify that compares
two totals, the graph side summed block by block.
``interference_float`` and ``rate_terms`` are the two separate per-user
passes that built the float matrix and the uplink-rate terms before one
pass built both.
``serving_sets`` is the per-user AP selection loop of the generator
(one sort, running sum and ``searchsorted`` per user) and ``generate``
the generator's arrays built with it from a (K, M, 2) difference array,
as before one row-wise pass picked every serving set.
``format_instance`` is the instance writer that formatted one numpy
scalar at a time, before each row was written with one ``map(repr, ...)``
over its ``tolist()``.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from pilotkit import MeasureEqualityReport, PilotAssignment
from pilotkit.fileio import INSTANCE_MAGIC
from pilotkit.system_model import (
    PATHLOSS_REF_DB,
    _gamma_from_beta,
    _over_common_denominator,
    _parse_ap_rule,
)


def pair_weight(s, k, j):
    """w(k, j) as two 1-D sums of squared ratios, over A(k) and over A(j)."""

    def one_sided(k, other):
        idx = list(s.serving_sets[k])
        ratios = s.beta[other, idx] / s.beta[k, idx]
        return float((ratios * ratios).sum())

    return one_sided(k, j) + one_sided(j, k)


def min_over_surjections(n, k, pairs):
    """Every labeling in itertools.product order, non-surjective ones skipped.

    Scores each labeling by the exact sum of its weights, whatever their
    types (ints over the weights' common denominator), and keeps the first
    least. Returns (the best exact total, a Fraction, the best labeling,
    surjections visited): ``solvers._min_over_surjections``'s labeling and
    count, without the budget.
    """
    pairs = [(i, j, Fraction(w)) for i, j, w in pairs if w != 0]
    denom = math.lcm(*(w.denominator for _, _, w in pairs))
    pairs = [(i, j, int(w * denom)) for i, j, w in pairs]
    best_val = None
    best = None
    visited = 0
    for cand in itertools.product(range(k), repeat=n):
        if len(set(cand)) != k:
            continue
        visited += 1
        v = 0
        for i, j, w in pairs:
            if cand[i] == cand[j]:
                v += w
        if best_val is None or v < best_val:
            best_val = v
            best = cand
    return Fraction(best_val, denom), best, visited


def float_total(pairs, labels):
    """A labeling's same-label weights, each rounded to a float, added in
    pair order: the float total of ``solvers._min_over_surjections``."""
    total = 0.0
    for i, j, w in pairs:
        if labels[i] == labels[j]:
            total += float(w)
    return total


def _extend(prefix, used, need):
    """Each (d, r) prefix extended by every label after which it uses
    `need` labels or more, in lexicographic order, with the labels used."""
    parent, label = np.nonzero(used.sum(axis=1, keepdims=True) + ~used >= need)
    grown = used[parent]
    grown[np.arange(parent.size), label] = True
    return np.vstack((prefix[:, parent], label.astype(np.int8))), grown


def surjection_blocks(n, k, block):
    """Every surjective labeling of n items with k labels, in lexicographic
    order, in (n, rows) int8 blocks of `block` labelings, all full but the
    last; every prefix is grown by ``_extend``, one item at a time."""
    step = max(1, block // k)

    def grow(prefix, used):
        d = prefix.shape[0]
        if d == n:
            yield prefix
            return
        need = k - (n - d - 1)
        for lo in range(0, prefix.shape[1], step):
            yield from grow(*_extend(prefix[:, lo:lo + step], used[lo:lo + step], need))

    pending, size = [], 0
    for piece in grow(np.zeros((0, 1), np.int8), np.zeros((1, k), bool)):
        pending.append(piece)
        size += piece.shape[1]
        while size >= block:
            merged = np.hstack(pending)
            yield merged[:, :block]
            pending, size = [merged[:, block:]], size - block
    if size:
        yield np.hstack(pending)


def contamination_report(w, labels):
    """(total, per_pair, per_user) of a float W, one addition per co-pilot
    pair in lexicographic order, as ``contamination_report`` summed them
    before it took the objective's sum and a masked row sum."""
    per_pair = {}
    per_user = [0.0] * len(labels)
    total = 0.0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if labels[i] == labels[j]:
                wij = float(w[i, j])
                per_pair[(i, j)] = wij
                per_user[i] += wij
                per_user[j] += wij
                total += wij
    return total, per_pair, tuple(per_user)


def random_feasible(k, tau, seed, draws):
    """First surjective labeling among `draws` uniform ones, or None."""
    rng = random.Random(seed)
    for _ in range(draws):
        cand = [rng.randrange(tau) for _ in range(k)]
        if len(set(cand)) == tau:
            return tuple(cand)
    return None


def uplink_rate(s, a, k):
    """Uplink rate of user k, the coherent term summed user by user."""
    idx = np.asarray(s.serving_sets[k], dtype=int)
    g = s.gamma[k, idx]
    b_own = s.beta[k, idx]
    gsum = float(g.sum())
    numerator = s.rho_u * float(s.eta[k]) * gsum * gsum
    if numerator == 0.0:
        return 0.0

    pk = a.pilot_of[k]
    coherent = 0.0
    for j in range(s.k_users):
        if j != k and a.pilot_of[j] == pk:
            ratio = float((g * (s.beta[j, idx] / b_own)).sum())
            coherent += float(s.eta[j]) * ratio * ratio
    coherent *= s.rho_u

    noncoherent = s.rho_u * float(s.eta @ (s.beta[:, idx] @ g))
    sinr = numerator / (coherent + noncoherent + gsum)
    prelog = (1.0 - s.tau_pilots / s.tau_c) / 2.0
    return prelog * math.log2(1.0 + sinr)


def _all_rates(s, a):
    return [uplink_rate(s, a, k) for k in range(s.k_users)]


def greedy_worst_user(s, init, max_rounds=100):
    """Worst-user improvement; returns (assignment, accepted rounds, rates)."""
    tau, k_users = s.tau_pilots, s.k_users
    current = init
    rates = _all_rates(s, current)
    accepted = 0
    while accepted < max_rounds:
        worst = min(range(k_users), key=lambda k: (rates[k], k))
        group_size = sum(1 for p in current.pilot_of if p == current.pilot_of[worst])
        if group_size < 2:
            break
        best_rate = rates[worst]
        best_pilot = None
        for p in range(tau):
            if p == current.pilot_of[worst]:
                continue
            cand = list(current.pilot_of)
            cand[worst] = p
            r = uplink_rate(s, PilotAssignment(tuple(cand), tau), worst)
            if r > best_rate:
                best_rate = r
                best_pilot = p
        if best_pilot is None:
            break
        cand = list(current.pilot_of)
        cand[worst] = best_pilot
        cand_a = PilotAssignment(tuple(cand), tau)
        cand_rates = _all_rates(s, cand_a)
        if min(cand_rates) > min(rates):
            current, rates = cand_a, cand_rates
            accepted += 1
        else:
            break
    return current, accepted, rates


def local_search_move(s, init, max_iters=10_000):
    """Steepest descent with every move's gain summed user by user.

    Returns (assignment, moves, objective); the objective is the
    lexicographic sum over co-pilot pairs.
    """
    k_users, tau = s.k_users, s.tau_pilots
    w = [[0.0] * k_users for _ in range(k_users)]
    for i in range(k_users):
        for j in range(i + 1, k_users):
            w[i][j] = w[j][i] = pair_weight(s, i, j)

    def objective_of(labels):
        total = 0.0
        for i in range(k_users):
            li = labels[i]
            row = w[i]
            for j in range(i + 1, k_users):
                if labels[j] == li:
                    total += row[j]
        return total

    labels = list(init.pilot_of)
    group = [0] * tau
    for p in labels:
        group[p] += 1
    cur = objective_of(labels)
    moves = 0
    while moves < max_iters:
        best_delta = 0.0
        best_move = None
        for k in range(k_users):
            if group[labels[k]] < 2:
                continue
            row = w[k]
            stay = sum(row[j] for j in range(k_users) if j != k and labels[j] == labels[k])
            for p in range(tau):
                if p == labels[k]:
                    continue
                go = sum(row[j] for j in range(k_users) if labels[j] == p)
                delta = go - stay
                if delta < best_delta:
                    best_delta = delta
                    best_move = (k, p)
        if best_move is None:
            break
        k, p = best_move
        trial = list(labels)
        trial[k] = p
        new = objective_of(trial)
        if new >= cur:
            break
        group[labels[k]] -= 1
        group[p] += 1
        labels, cur = trial, new
        moves += 1
    return PilotAssignment(tuple(labels), tau), moves, cur


def exact_beta_squares(s):
    """Exact values of beta**2 as a K x M object array of Fractions: the
    payload when the system carries one, else each float's exact square."""
    if s.beta_sq_exact is not None:
        return s.beta_sq_exact
    return np.array([[Fraction(float(b)) ** 2 for b in row] for row in s.beta], dtype=object)


def interference_exact(s):
    """The exact interference matrix, one Fraction division per term."""
    bsq = exact_beta_squares(s)
    one_sided = np.empty((s.k_users, s.k_users), dtype=object)
    for k, aps in enumerate(s.serving_sets):
        idx = list(aps)
        one_sided[k] = (bsq[:, idx] / bsq[k, idx]).sum(axis=1)
    w = one_sided + one_sided.T
    np.fill_diagonal(w, Fraction(0))
    return w


def co_pilot_sum_exact(w, labels):
    """The exact objective on W, one Fraction addition per co-pilot pair."""
    total = Fraction(0)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if labels[i] == labels[j]:
                total += w[i, j]
    return total


def integer_beta_squares(s):
    """Rational mode's integer squares P as a K x M object array, as built
    before float columns were scaled by shifts and P by rows: every column's
    squared ratios, float or payload, over the lcm of their denominators."""
    if s.beta_sq_exact is not None:
        ratios = [[(x.numerator, x.denominator) for x in col] for col in s.beta_sq_exact.T]
    else:
        ratios = [
            [(n * n, d * d) for n, d in map(float.as_integer_ratio, col)]
            for col in s.beta.T.tolist()
        ]
    return np.array([_over_common_denominator(col)[0] for col in ratios], dtype=object).T


def exact_rows(s):
    """Rational mode's full K x K integer rows (N, L): one_sided[k, j] =
    N[k, j] / L[k], L[k] = lcm(P[k, m] for m in A(k)) and N[k] = P[:, A(k)]
    @ (L[k] // P[k, A(k)]), as ``objective._exact_rows`` held them before
    N was built only pair by pair."""
    p = integer_beta_squares(s)
    n = np.empty((s.k_users, s.k_users), dtype=object)
    lcms = []
    for k, aps in enumerate(s.serving_sets):
        idx = list(aps)
        scale, lk = _over_common_denominator((1, x) for x in p[k, idx].tolist())
        n[k] = p[:, idx].dot(np.array(scale, dtype=object))
        lcms.append(lk)
    np.fill_diagonal(n, 0)
    return n, tuple(lcms)


def contamination_objective_exact(s, labels):
    """The exact objective from ``exact_rows``: one row sum of N over k's
    co-pilots per user, the K Fractions added one at a time."""
    n, lcms = exact_rows(s)
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    return sum(
        (Fraction(row[mask].sum(), lk) for row, mask, lk in zip(n, same, lcms)), Fraction(0)
    )


def verify_exact(s, a, graph=None):
    """Exact ``verify_measure_equality`` as two totals: the objective of
    ``contamination_objective_exact`` against the co-block weights summed
    per block over the block's own common denominator. The weights are the
    graph's, each at its exact value, or without a graph the co-pilot
    pairs' (N[i, j] L[j] + N[j, i] L[i]) / (L[i] L[j]) from ``exact_rows``."""
    m_pa = contamination_objective_exact(s, a.pilot_of)
    n, lcms = exact_rows(s)
    blocks = a.pilot_of
    buckets = [[] for _ in range(a.n_pilots)]
    if graph is None:
        for i, j in itertools.combinations(range(s.k_users), 2):
            if blocks[i] == blocks[j]:
                buckets[blocks[i]].append((n[i, j] * lcms[j] + n[j, i] * lcms[i], lcms[i] * lcms[j]))
    else:
        for (i, j), w in sorted(graph.weights.items()):
            if blocks[i] == blocks[j]:
                buckets[blocks[i]].append(w.as_integer_ratio())
    m_mkp = sum(Fraction(sum(x), d) for x, d in map(_over_common_denominator, buckets))
    diff = abs(m_pa - m_mkp)
    try:
        abs_diff = float(diff)
    except OverflowError:
        abs_diff = math.inf
    rel_diff = float(diff / max(m_pa, m_mkp)) if diff else 0.0
    return MeasureEqualityReport(m_pa, m_mkp, abs_diff, rel_diff, m_pa == m_mkp, "rational")


def interference_float(s):
    """The float interference matrix, built in its own pass over the users."""
    # Row k holds the one-sided terms sum_{m in A(k)} (beta[j, m] / beta[k, m])**2
    # for every j. The ratios are laid out in C order, so each row is reduced
    # like the 1-D sums in pair_weight and the entries equal the scalar
    # weights bit for bit.
    one_sided = np.empty((s.k_users, s.k_users))
    for k, aps in enumerate(s.serving_sets):
        idx = list(aps)
        ratios = np.ascontiguousarray(s.beta[:, idx]) / s.beta[k, idx]
        one_sided[k] = (ratios * ratios).sum(axis=1)
    w = one_sided + one_sided.T
    np.fill_diagonal(w, 0.0)
    w.setflags(write=False)
    return w


def rate_terms(s):
    """The assignment-independent parts of every user's SINR.

    Returns (numerator, noncoherent, noise, coherent), the first three
    indexed by user k: rho_u * eta[k] * (sum of gamma over A(k))**2, the
    non-coherent interference, and the noise term sum(gamma over A(k)).
    coherent[k, j] = eta[j] * (sum_{m in A(k)} gamma[k, m] beta[j, m] / beta[k, m])**2
    is what user j adds, before the factor rho_u, to k's coherent
    interference when the two share a pilot; its diagonal is zero. Each
    entry is evaluated in the same order as a direct per-user loop, so
    rates are the same floats.
    """
    k_users = s.k_users
    noise = np.empty(k_users)
    noncoherent = np.empty(k_users)
    coherent = np.empty((k_users, k_users))
    for k, aps in enumerate(s.serving_sets):
        idx = list(aps)
        g = s.gamma[k, idx]
        noise[k] = g.sum()
        noncoherent[k] = s.rho_u * (s.eta @ (s.beta[:, idx] @ g))
        # C order, so each row is reduced like a 1-D sum over A(k).
        ratio = (g * (np.ascontiguousarray(s.beta[:, idx]) / s.beta[k, idx])).sum(axis=1)
        coherent[k] = s.eta * ratio * ratio
    np.fill_diagonal(coherent, 0.0)
    numerator = s.rho_u * s.eta * noise * noise
    terms = (numerator, noncoherent, noise, coherent)
    for arr in terms:
        arr.setflags(write=False)
    return terms


def serving_sets(beta, rule_kind, rule_arg):
    """A(k) of every user, one sort, running sum and searchsorted per row."""
    k_users, m_aps = beta.shape
    serving = []
    for k in range(k_users):
        order = np.argsort(-beta[k], kind="stable")
        if rule_kind == "top":
            take = min(rule_arg, m_aps)
        else:
            cum = np.cumsum(beta[k][order])
            take = int(np.searchsorted(cum, rule_arg * cum[-1], side="left")) + 1
            take = min(max(take, 1), m_aps)
        serving.append(tuple(sorted(int(m) for m in order[:take])))
    return tuple(serving)


def generate(cfg, m_aps, k_users, tau_pilots):
    """(beta, gamma, eta, serving sets) of ``generate_system``, the
    distances summed over a (K, M, 2) difference array."""
    rng = np.random.default_rng(cfg.seed)
    ap_xy = rng.uniform(0.0, cfg.area_side_m, size=(m_aps, 2))
    ue_xy = rng.uniform(0.0, cfg.area_side_m, size=(k_users, 2))
    shadow = rng.normal(0.0, cfg.shadowing_sigma_db, size=(k_users, m_aps))
    diff = ue_xy[:, None, :] - ap_xy[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.maximum(np.sqrt((diff**2).sum(axis=-1)), 1.0)
        pl_db = PATHLOSS_REF_DB + 10.0 * cfg.pathloss_exponent * np.log10(dist)
        beta = 10.0 ** ((-pl_db + shadow) / 10.0)
    gamma = _gamma_from_beta(beta, cfg.rho_u, tau_pilots)
    eta = np.full(k_users, 1.0 if cfg.eta_policy == "full" else 1.0 / k_users)
    return beta, gamma, eta, serving_sets(beta, *_parse_ap_rule(cfg.ap_selection_rule))



def format_instance(s):
    """The text of ``fileio.format_instance``, each float as repr(float(x))."""

    def fmt(x):
        return repr(float(x))

    out = [INSTANCE_MAGIC, f"aps {s.m_aps}", f"users {s.k_users}", f"pilots {s.tau_pilots}"]
    out.append(f"rho_u {fmt(s.rho_u)}")
    out.append(f"tau_c {s.tau_c}")
    out.append("eta " + " ".join(fmt(e) for e in s.eta))
    for aps in s.serving_sets:
        out.append("serve " + " ".join(str(m) for m in aps))
    for row in s.beta:
        out.append("beta " + " ".join(fmt(b) for b in row))
    for row in s.gamma:
        out.append("gamma " + " ".join(fmt(g) for g in row))
    return "\n".join(out) + "\n"
