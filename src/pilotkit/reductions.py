"""Objective-preserving transformations between pilot assignment and
Min-k-Partition.

A system maps to a complete edge-weighted graph on its users whose edge
weights are the pairwise interference values, with the block count set
to the pilot count; a weighted graph maps back to a system in which each
vertex is served by its own dedicated AP and the fading matrix encodes
the edge weights (off-diagonal beta = sqrt(weight / 2)). Solutions
transfer by reading pilot labels as block labels and vice versa, and the
objective value is preserved without scaling in both directions.

Rational mode carries exact squared fading values through the
graph-to-system construction, so measure-equality certificates and
round trips can be checked with exact arithmetic instead of a floating
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .objective import _co_pilot_pairs, _exact_pairs, _exact_terms, _exact_total
from .objective import _triangle, _upper_triangle, contamination_objective, interference_matrix
from .system_model import (
    CfMmimoSystem,
    PilotAssignment,
    _gamma_from_beta,
    _index,
    _require_valid,
    _surjective,
    check_assignment,
)

__all__ = [
    "InvalidPartitionError",
    "WeightedGraph",
    "Partition",
    "MeasureEqualityReport",
    "mkp_objective",
    "pa_to_mkp",
    "mkp_to_pa",
    "pa_solution_to_mkp",
    "mkp_solution_to_pa",
    "coloring_to_mkp",
    "verify_measure_equality",
    "graphs_equal",
]

Weight = Union[int, float, Fraction]

DEFAULT_REL_TOL = 1e-9


class InvalidPartitionError(ValueError):
    """A vertex partition with an empty block or out-of-range labels."""


def _upper_weights(w: np.ndarray) -> dict[tuple[int, int], float]:
    """{(i, j): w[i, j]} for every pair i < j, in lexicographic order."""
    ii, jj, values = _triangle(w)
    return dict(zip(zip(ii, jj), values))


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected edge-weighted graph, the Min-k-Partition instance.

    weights maps unordered vertex pairs (stored with i < j) to finite
    nonnegative weights; absent pairs weigh 0. Weights may be int, float
    or Fraction; rational weights keep partition objectives exact. numpy
    integer and floating scalars are stored as int and float.

    The float graph of a system (``pa_to_mkp``) holds the system's
    read-only matrix W instead, without a copy, and builds weights, every
    pair i < j in lexicographic order, zero weights kept, on first read.
    """

    n_vertices: int
    k_parts: int
    weights: dict[tuple[int, int], Weight]

    def __post_init__(self) -> None:
        for name in ("n_vertices", "k_parts"):
            object.__setattr__(self, name, _index(getattr(self, name), ValueError, name))
        n, k, inf = self.n_vertices, self.k_parts, math.inf
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if not 1 <= k <= n:
            raise ValueError(f"k_parts={k} must lie in [1, n_vertices={n}]")
        norm: dict[tuple[int, int], Weight] = {}
        for (i, j), w in self.weights.items():
            if type(i) is not int or type(j) is not int:
                i, j = _index(i, ValueError, "endpoint"), _index(j, ValueError, "endpoint")
            if type(w) is not float and isinstance(w, (np.integer, np.floating)):
                # a numpy scalar would sum in fixed width or low precision
                w = int(w) if isinstance(w, np.integer) else float(w)
            if i == j:
                raise ValueError(f"self-loop on vertex {i}: input must be a simple graph")
            if not 0 <= i < n or not 0 <= j < n:
                raise ValueError(f"edge ({i}, {j}) out of range")
            if w < 0:
                raise ValueError(f"negative weight {w} on edge ({i}, {j})")
            if not w < inf:
                raise ValueError(f"non-finite weight {w} on edge ({i}, {j})")
            key = (i, j) if i < j else (j, i)
            if key in norm and norm[key] != w:
                raise ValueError(f"conflicting weights for edge {key}")
            norm[key] = w
        object.__setattr__(self, "weights", norm)

    @classmethod
    def _of_matrix(cls, w: np.ndarray, k_parts: int) -> "WeightedGraph":
        """The complete graph of a read-only symmetric float matrix with a
        zero diagonal, held as it is, with k_parts in [1, len(w)]. Entries
        that are not all finite and nonnegative are refused through the dict
        constructor, so the error names the first bad edge."""
        if not (0.0 <= w.min() and w.max() < math.inf):
            return cls(len(w), k_parts, _upper_weights(w))
        g = cls.__new__(cls)
        object.__setattr__(g, "n_vertices", len(w))
        object.__setattr__(g, "k_parts", k_parts)
        object.__setattr__(g, "_matrix", w)
        return g

    def __getattr__(self, name: str):
        # Only attributes not set are looked up here: the weights of a graph
        # built from a matrix, before their first read.
        if name != "weights" or "_matrix" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        weights = _upper_weights(self._matrix)
        object.__setattr__(self, "weights", weights)
        return weights

    def matrix(self) -> np.ndarray:
        """The read-only float matrix W the graph of ``pa_to_mkp(s)`` holds.
        A graph built from a weights dict holds none: AttributeError."""
        return self._matrix

    def weight(self, i: int, j: int) -> Weight:
        key = (i, j) if i < j else (j, i)
        return self.weights.get(key, 0)


@dataclass(frozen=True)
class Partition:
    """Assignment of vertices to blocks 0..n_blocks-1, all blocks nonempty."""

    block_of: tuple[int, ...]
    n_blocks: int

    def __post_init__(self) -> None:
        labels, n = _surjective(
            self.block_of, self.n_blocks, InvalidPartitionError, "block", "vertices"
        )
        object.__setattr__(self, "block_of", labels)
        object.__setattr__(self, "n_blocks", n)

    @property
    def n_vertices(self) -> int:
        return len(self.block_of)


def _co_block_weights(g: WeightedGraph, p: Partition) -> list[Weight]:
    """Weights of the vertex pairs inside a block, 0 for an absent edge, in
    lexicographic pair order; read from W when the graph holds one."""
    if p.n_vertices != g.n_vertices:
        raise ValueError(f"partition covers {p.n_vertices} vertices, graph has {g.n_vertices}")
    if p.n_blocks != g.k_parts:
        raise ValueError(
            f"block count mismatch: partition has {p.n_blocks}, graph wants {g.k_parts}"
        )
    ii, jj = _co_pilot_pairs(np.asarray(p.block_of))
    if "_matrix" in g.__dict__:
        return g._matrix[ii, jj].tolist()
    return [g.weights.get(e, 0) for e in zip(ii.tolist(), jj.tolist())]


def mkp_objective(g: WeightedGraph, p: Partition) -> Weight:
    """Total weight of edges inside blocks; inf when a mixed-type sum leaves float range."""
    total: Weight = 0
    try:
        for w in _co_block_weights(g, p):
            total += w
    except OverflowError:
        return math.inf
    return total


def _as_float(x: Weight) -> float:
    """float(x) for a nonnegative value, inf when it is beyond float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def pa_to_mkp(s: CfMmimoSystem, exact: bool = False) -> WeightedGraph:
    """Reduce a system to its interference graph.

    Complete graph on the users (zero-weight edges kept explicit), edge
    weight equal to the pairwise interference, block count equal to the
    pilot count. The float graph holds ``interference_matrix(s)`` and builds
    its weights dict on first read. Raises ValueError on an invalid system
    or a weight that is not finite.
    """
    if not exact:
        return WeightedGraph._of_matrix(interference_matrix(s), s.tau_pilots)
    ii, jj, values = _upper_triangle(s, exact)
    return WeightedGraph(s.k_users, s.tau_pilots, dict(zip(zip(ii, jj), values)))


def mkp_to_pa(
    g: WeightedGraph, n_dummy_aps: int = 0, exact: bool = False
) -> CfMmimoSystem:
    """Build a system whose assignment objective replays the graph's.

    Vertex i becomes user i served by the dedicated AP i, with
    beta[i, i] = 1, beta[i, j] = sqrt(weight(i, j) / 2) for the other
    in-range APs, and 0 on the optional dummy AP columns (zero columns
    change nothing measurable; a positive n_dummy_aps mimics deployments
    with many more APs than users). Radio parameters are inert defaults:
    the contamination objective never reads them. With ``exact=True`` the
    exact rational values weight/2 of the squared off-diagonal entries
    ride along so downstream certificates avoid square-root rounding.
    Raises ValueError on a weight too large for a float, which beta must
    hold in either mode.
    """
    n_dummy_aps = _index(n_dummy_aps, ValueError, "n_dummy_aps")
    if n_dummy_aps < 0:
        raise ValueError("n_dummy_aps must be nonnegative")
    n = g.n_vertices
    m = n + n_dummy_aps
    beta = np.eye(n, m)
    bsq = np.eye(n, m, dtype=object) if exact else None
    for (i, j), w in g.weights.items():
        try:
            beta[i, j] = beta[j, i] = math.sqrt(float(w) / 2.0)
        except OverflowError:
            raise ValueError(f"weight on edge ({i}, {j}) is beyond float range") from None
        if exact:
            bsq[i, j] = bsq[j, i] = Fraction(w) / 2

    tau = g.k_parts
    gamma, eta = _gamma_from_beta(beta, 1.0, tau), np.ones(n)
    for arr in (beta, gamma, eta):
        arr.setflags(write=False)  # read-only, so the system keeps them without a copy
    return CfMmimoSystem(
        m_aps=m,
        k_users=n,
        tau_pilots=tau,
        beta=beta,
        serving_sets=tuple((i,) for i in range(n)),
        gamma=gamma,
        eta=eta,
        rho_u=1.0,
        tau_c=2 * tau,
        beta_sq_exact=bsq,
    )


def pa_solution_to_mkp(a: PilotAssignment) -> Partition:
    """Read pilot labels as block labels (feasible in, valid out)."""
    return Partition(a.pilot_of, a.n_pilots)


def mkp_solution_to_pa(p: Partition) -> PilotAssignment:
    """Read block labels as pilot labels; nonempty blocks give surjectivity."""
    return PilotAssignment(p.block_of, p.n_blocks)


def coloring_to_mkp(
    n_vertices: int, edges: Iterable[tuple[int, int]], k_parts: int
) -> WeightedGraph:
    """Unit-weight graph whose k-partition optimum is 0 iff the graph is
    k-colourable (a zero optimum means every edge is cut, i.e. every block
    is an independent set)."""
    return WeightedGraph(n_vertices, k_parts, {tuple(e): 1 for e in edges})


@dataclass(frozen=True)
class MeasureEqualityReport:
    """Outcome of checking that the graph-side objective replays the
    assignment-side objective on a reduced pair."""

    m_pa: Weight
    m_mkp: Weight
    abs_diff: float
    rel_diff: float
    passed: bool
    mode: str


def verify_measure_equality(
    s: CfMmimoSystem,
    a: PilotAssignment,
    exact: bool = False,
    graph: WeightedGraph | None = None,
) -> MeasureEqualityReport:
    """Certify that reducing (system, assignment) preserves the objective.

    Computes the contamination objective directly and the partition
    objective of the reduced (graph, partition) pair, then compares: within
    DEFAULT_REL_TOL in float mode, summed as mkp_objective does, and in
    rational mode exactly, term by term: each user's terms to its co-pilots,
    summed by pair, must equal its term of the objective, summed by AP, and
    each co-block pair's weight in a passed graph (its exact value; an absent
    edge weighs 0) the exact pair weight. Equal terms give equal totals, so
    one is summed; else the graph side is summed on its own. ``graph``
    overrides the reduction output, which lets callers probe corrupted
    reductions; by default rational mode builds only the co-block weights.
    A value beyond float range reports as inf in ``abs_diff`` (and in the CLI);
    in float mode such a total makes ``abs_diff`` and ``rel_diff`` inf, a fail.
    """
    if graph is None and not exact:
        graph = pa_to_mkp(s)
    elif graph is None:
        _require_valid(s)  # the system check before the assignment's, as in pa_to_mkp
    p = pa_solution_to_mkp(a)
    if exact:
        check_assignment(s, a)
        labels = np.asarray(a.pilot_of)
        terms, lcms = _exact_terms(s, labels)
        ii, jj = (x.tolist() for x in _co_pilot_pairs(labels))
        n, w = _exact_pairs(s, ii, jj)
        by_pair = [0] * s.k_users
        for i, nij in zip(ii + jj, n):
            by_pair[i] += nij
        edges = w if graph is None else [x.as_integer_ratio() for x in _co_block_weights(graph, p)]
        same = by_pair == terms and (graph is None or all(
            x * d == b * y for (x, b), (y, d) in zip(edges, w)))
        m_pa: Weight = _exact_total(zip(terms, lcms))
        m_mkp: Weight = m_pa if same else _exact_total(edges)
    else:
        m_pa = contamination_objective(s, a)
        m_mkp = mkp_objective(graph, p)
    # rational mode compares exact values, whose float() can overflow
    x, y = (m_pa, m_mkp) if exact else (_as_float(m_pa), _as_float(m_mkp))
    diff = abs(x - y)
    if not diff < math.inf:  # a float side beyond float range: inf - inf is nan
        diff = rel_diff = math.inf
    else:
        rel_diff = float(diff / max(abs(x), abs(y))) if diff else 0.0
    return MeasureEqualityReport(
        m_pa=m_pa,
        m_mkp=m_mkp,
        abs_diff=_as_float(diff),
        rel_diff=rel_diff,
        passed=m_pa == m_mkp if exact else rel_diff <= DEFAULT_REL_TOL,
        mode="rational" if exact else "float",
    )


def graphs_equal(g1: WeightedGraph, g2: WeightedGraph) -> bool:
    """Equality of graphs as weight functions (absent edge == weight 0)."""
    if g1.n_vertices != g2.n_vertices or g1.k_parts != g2.k_parts:
        return False
    for key in g1.weights.keys() | g2.weights.keys():
        if g1.weights.get(key, 0) != g2.weights.get(key, 0):
            return False
    return True
