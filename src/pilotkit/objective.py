"""Pilot-contamination objective.

The cost of a feasible assignment is the total interference between
users forced to share a pilot:

    sum over unordered co-pilot pairs {k, k'} of w(k, k'),

    w(k, k') = sum_{m in A(k)} (beta[k', m] / beta[k, m])**2
             + sum_{m' in A(k')} (beta[k, m'] / beta[k', m'])**2.

Each co-pilot pair is counted exactly once with its full symmetric
weight; the equivalent ordered form (summing user by user over co-pilot
partners, one side at a time) reaches the same total because each pair
then contributes its two one-sided terms separately.

Float mode reads w from one K x K matrix memoised per system, built by
``system_model._user_terms``, the one pass over each user's serving set
that also builds the rate terms. With ``exact=True`` every function runs
in rational arithmetic, as the reduction verifier needs, on Python
integers: each user's one-sided terms share one denominator, so the
memoised integer squares and scales give each exact pair weight asked
for (one Fraction per pair) and the objective (one integer per user, one
total). No K x K exact matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Union

import numpy as np

from .system_model import (
    CfMmimoSystem,
    PilotAssignment,
    _over_common_denominator,
    _require_valid,
    _user_terms,
    check_assignment,
    derived,
)

__all__ = [
    "ContaminationReport",
    "pairwise_interference",
    "interference_matrix",
    "interference_pairs",
    "co_pilot_sum",
    "contamination_objective",
    "contamination_report",
]

Weight = Union[float, Fraction]


def pairwise_interference(
    s: CfMmimoSystem, k: int, k2: int, exact: bool = False
) -> Weight:
    """Symmetric interference weight w(k, k2) between two distinct users:
    the entry W[k, k2] of ``interference_matrix(s)``, or with ``exact=True``
    that one pair's Fraction. ValueError on an invalid system. Zero exactly
    when neither user has a positive fading coefficient on the other's
    serving set.
    """
    if k == k2:
        raise ValueError(f"pair weight needs two distinct users, got k = k' = {k}")
    for u in (k, k2):
        if not 0 <= u < s.k_users:
            raise IndexError(f"user index {u} out of range [0, {s.k_users})")
    if exact:
        return Fraction(*next(_exact_pairs(s, [k], [k2])[1]))
    return float(interference_matrix(s)[k, k2])


def _exact_rows(s: CfMmimoSystem) -> tuple[tuple, tuple[int, ...], tuple]:
    # Rational mode on integers: P[k, m] = beta[k, m]**2 * D_m, D_m the least
    # common denominator of AP column m (it cancels from every ratio within the
    # column), built row by row as Python ints from the payload, else from each
    # float's odd part, squared and shifted. With L[k] = lcm(P[k, A(k)]) and
    # scale[k] = L[k] // P[k, A(k)], user k's one-sided term to user j is
    # N[k, j] / L[k], N[k, j] = P[j, A(k)] . scale[k]. Returns (P's rows, L,
    # scale); _exact_pairs builds N only pair by pair.
    if s.beta_sq_exact is not None:
        cols = (_over_common_denominator(map(Fraction.as_integer_ratio, col))[0]
                for col in s.beta_sq_exact.T)
        p = tuple(zip(*cols))
    else:
        frac, exp = np.frexp(s.beta)
        n = (frac * 2.0**53).astype(np.int64)  # beta = n * 2**(exp - 53), exactly
        tz = np.frexp((n & -n).astype(float))[1] - 1  # n's trailing zero bits, -1 for 0
        low = np.where(n == 0, 0, exp - 53 + tz)  # beta = (n >> tz) * 2**low, n >> tz odd
        shift = 2 * (low - np.minimum(low.min(axis=0), 0))  # log2 of P / (n >> tz)**2
        odd = n >> np.maximum(tz, 0)
        del frac, exp, n, tz, low  # K x M arrays the rows do not need: a lower peak
        p = tuple(tuple(x * x << t for x, t in zip(ok.tolist(), sk.tolist()))
                  for ok, sk in zip(odd, shift))
    own = [[pk[m] for m in aps] for pk, aps in zip(p, s.serving_sets)]
    lcms = tuple(math.lcm(*row) for row in own)
    return p, lcms, tuple(tuple(lk // x for x in row) for lk, row in zip(lcms, own))


def _exact_pairs(s: CfMmimoSystem, ii: list[int], jj: list[int]) -> tuple[list[int], Iterator]:
    # For the pairs (i, j): N[i, j] of each, then N[j, i] of each, and, built
    # as read, each W[i, j] = N[i, j] / L[i] + N[j, i] / L[j] as a ratio
    p, lcms, scale = derived(s, _exact_rows)
    a = s.serving_sets
    n = [sum(map(mul, map(p[j].__getitem__, a[i]), scale[i])) for i, j in zip(ii + jj, jj + ii)]
    ratios = zip(ii, jj, n, n[len(ii):])
    return n, ((x * lcms[j] + y * lcms[i], lcms[i] * lcms[j]) for i, j, x, y in ratios)


def _exact_terms(s: CfMmimoSystem, labels: np.ndarray) -> tuple[list[int], tuple[int, ...]]:
    # (r, L): k's terms to its co-pilots add up to r[k] / L[k], summed by AP:
    # r[k] = scale[k] . (Q[c, A(k)] - P[k, A(k)]), Q[c] P's column sums on pilot c
    p, lcms, scale = derived(s, _exact_rows)
    q = [[sum(col) for col in zip(*(p[k] for k in np.flatnonzero(labels == c)))]
         for c in range(s.tau_pilots)]
    return [sum(map(mul, [q[c][m] - pk[m] for m in aps], sk))
            for pk, c, aps, sk in zip(p, labels.tolist(), s.serving_sets, scale)], lcms


def _exact_total(ratios) -> Fraction:
    # summed as a balanced tree: each gcd runs on two addends, not a running total
    terms = [Fraction(n, d) for n, d in ratios] or [Fraction(0)]
    while len(terms) > 1:
        terms = [x + y for x, y in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return terms[0]


def interference_matrix(s: CfMmimoSystem) -> np.ndarray:
    """The K x K float matrix W of pair weights, W[k, k'] = w(k, k'), zero diagonal.

    Memoised per system (see ``system_model.derived``), so the system must
    not change afterwards; it comes from ``_user_terms``, the pass that
    also builds the rate terms. Returns a read-only float64 array. Raises
    ValueError on an invalid system.
    """
    return derived(s, _user_terms)[0]


def _upper_triangle(s: CfMmimoSystem, exact: bool) -> tuple[list[int], list[int], list]:
    """Rows, columns and weights of every pair i < j, in lexicographic order:
    floats read from W, or with ``exact`` Fractions built pair by pair."""
    _require_valid(s)  # before k_users is read
    if not exact:
        return _triangle(interference_matrix(s))
    rows, cols = (x.tolist() for x in np.triu_indices(s.k_users, 1))
    return rows, cols, [Fraction(*r) for r in _exact_pairs(s, rows, cols)[1]]


def _triangle(w: np.ndarray) -> tuple[list[int], list[int], list[float]]:
    """Rows, columns and entries of a float matrix above its diagonal, in
    lexicographic order, as Python ints and floats."""
    ii, jj = np.triu_indices(len(w), 1)
    return ii.tolist(), jj.tolist(), w[ii, jj].tolist()


def interference_pairs(s: CfMmimoSystem, exact: bool = False) -> list[tuple[int, int, Weight]]:
    """(i, j, w(i, j)) for every pair i < j, in lexicographic order."""
    return list(zip(*_upper_triangle(s, exact)))


def _co_pilot_pairs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the co-pilot pairs i < j, lexicographic."""
    return np.nonzero(np.triu(labels[:, None] == labels[None, :], 1))


def co_pilot_sum(w: np.ndarray, labels: np.ndarray) -> float:
    """Sum of w[i, j] over co-pilot pairs i < j, for a float W.

    The terms are added one at a time in lexicographic pair order (a
    cumulative sum, not numpy's pairwise reduction), so the value is the
    same float a plain loop over the pairs produces. A sum beyond float
    range is inf, without a warning: callers refuse an infinite value.
    """
    values = w[_co_pilot_pairs(labels)]
    with np.errstate(over="ignore"):
        return float(np.cumsum(values)[-1]) if values.size else 0.0


def contamination_objective(
    s: CfMmimoSystem, a: PilotAssignment, exact: bool = False
) -> Weight:
    """Total contamination of a feasible assignment (lower is better).

    A float, or with ``exact=True`` a Fraction: the sum over users k of
    one-sided terms to k's co-pilots, one integer per user over the common
    denominator of k's terms, taken from the column sums of each pilot.
    """
    check_assignment(s, a)
    labels = np.asarray(a.pilot_of)
    if not exact:
        return co_pilot_sum(interference_matrix(s), labels)
    return _exact_total(zip(*_exact_terms(s, labels)))


@dataclass(frozen=True)
class ContaminationReport:
    """Objective value with its per-pair and per-user breakdown.

    per_pair maps each co-pilot pair (i, j), i < j, to its symmetric
    weight; total is their sum, the objective. per_user[k] sums those of
    all pairs involving k, so the per-user vector counts every pair twice
    and total equals half its sum.
    """

    total: float
    per_pair: dict[tuple[int, int], float]
    per_user: tuple[float, ...]

    def to_csv(self) -> str:
        lines = ["pair_i,pair_j,weight"]
        for (i, j), w in sorted(self.per_pair.items()):
            lines.append(f"{i},{j},{w!r}")
        lines.append(f"total,,{self.total!r}")
        return "\n".join(lines) + "\n"


def contamination_report(s: CfMmimoSystem, a: PilotAssignment) -> ContaminationReport:
    """Evaluate the objective and keep the pairwise breakdown."""
    check_assignment(s, a)
    w = interference_matrix(s)
    labels = np.asarray(a.pilot_of)
    ii, jj = _co_pilot_pairs(labels)
    per_pair = dict(zip(zip(ii.tolist(), jj.tolist()), w[ii, jj].tolist()))
    # Row k adds k's co-pilots in index order, as a loop over the pairs
    # does; the +0.0 terms between them change no nonnegative sum.
    with np.errstate(over="ignore"):
        per_user = np.cumsum(np.where(labels[:, None] == labels, w, 0.0), axis=1)[:, -1]
    return ContaminationReport(co_pilot_sum(w, labels), per_pair, tuple(per_user.tolist()))
