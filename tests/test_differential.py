"""Differential tests: the matrix code against the loop references.

The float interference matrix and the scalar ``pairwise_interference``
are checked entry by entry against the scalar ``reference.pair_weight``,
bit for bit; rational mode on integers (the exact
matrix, objective and scalar weight), local search, worst-user, the
uplink rate and the exact solvers' surjection enumerator against the
Fraction and loop versions in ``reference.py``, which they replaced; the
head-times-tail surjection blocks against the grow-by-one blocks they
replaced, joined and bit for bit; ``contamination_report`` against the
pair loop it replaced, bit for bit; the one-pass builder of W and
the rate terms against the two separate builders it replaced, bit for
bit; the one-pass ``uplink_rates`` against ``uplink_rate`` user by
user, bit for bit; the graph side of exact ``verify_measure_equality``
against ``mkp_objective`` on Fraction weights, its report without a graph
against the report on the full exact graph, and the exact objective and
every report field against the two-totals ``reference.verify_exact``
(full K x K rows, per-block sums), field by field, also where a changed
edge sends the term-by-term certificate to its fallback; the row-wise
instance writer against the
per-element one, byte for byte, but for the one-line default gamma;
the row-wise serving sets and the generator against the per-user
selection loop, bit for bit; the float graph of ``pa_to_mkp``, which
holds W, against the graph of the ``interference_pairs`` dict.
"""

import dataclasses
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotkit import (
    GenerationConfig,
    Partition,
    PilotAssignment,
    WeightedGraph,
    brute_force_exact,
    brute_force_partition,
    coloring_to_mkp,
    contamination_objective,
    contamination_report,
    count_surjective_assignments,
    generate_system,
    graphs_equal,
    greedy_worst_user,
    interference_matrix,
    local_search_move,
    mkp_objective,
    mkp_to_pa,
    pa_solution_to_mkp,
    pa_to_mkp,
    pairwise_interference,
    random_feasible,
    system_throughput,
    uplink_rate,
    uplink_rates,
    verify_measure_equality,
)
from pilotkit import objective, reductions, solvers, system_model
from pilotkit.fileio import format_graph, format_instance
from pilotkit.objective import interference_pairs

import reference
from conftest import flat_system, make_system

REL = 1e-12

# (K, M, tau) of the solver comparisons; two seeds each.
SHAPES = [(10, 32, 3), (50, 100, 5), (100, 200, 8)]
CASES = [(shape, seed) for shape in SHAPES for seed in (1, 2)]


def _system(shape, seed, rule="energy:0.95"):
    k, m, tau = shape
    return generate_system(GenerationConfig(seed=seed, ap_selection_rule=rule), m, k, tau)


@pytest.mark.parametrize("rule", ["top:8", "top:12", "top:20"])
def test_interference_matrix_matches_pairwise_float(rule):
    for seed in range(4):
        s = _system((12, 40, 3), seed, rule)
        assert min(len(a) for a in s.serving_sets) >= 8
        w = interference_matrix(s)
        assert w.shape == (12, 12) and np.all(np.diag(w) == 0.0)
        for i in range(12):
            for j in range(12):
                if i != j:
                    expected = reference.pair_weight(s, i, j).hex()
                    assert float(w[i, j]).hex() == expected
                    assert pairwise_interference(s, i, j).hex() == expected


def test_interference_matrix_matches_pairwise_exact():
    # The scalar exact weight builds its one pair from the memoised integer
    # rows; the reference matrix divides Fraction beta squares, so the check
    # stays independent.
    for seed in range(3):
        s = _system((6, 16, 2), seed, "top:8")
        w = reference.interference_exact(s)
        for i in range(6):
            assert w[i][i] == 0
            for j in range(6):
                if i != j:
                    value = pairwise_interference(s, i, j, exact=True)
                    assert type(value) is Fraction and value == w[i][j]


def _assert_exact_pairs_match_reference(s, ref):
    """Every exact pair weight, from interference_pairs, pa_to_mkp and
    pairwise_interference (both argument orders), is ref's entry."""
    k = s.k_users
    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pairs = interference_pairs(s, exact=True)
    assert [(i, j) for i, j, _ in pairs] == upper
    assert all(type(w) is Fraction and w == ref[i, j] for i, j, w in pairs)
    weights = pa_to_mkp(s, exact=True).weights
    assert all(type(w) is Fraction for w in weights.values())
    assert weights == {(i, j): ref[i, j] for i, j in upper}
    for i, j in upper:
        value = pairwise_interference(s, i, j, exact=True)
        assert type(value) is Fraction and value == ref[i, j]
        assert pairwise_interference(s, j, i, exact=True) == value


def _assert_exact_matches_reference(s, seeds=(0, 1, 2)):
    ref = reference.interference_exact(s)
    _assert_exact_pairs_match_reference(s, ref)
    for seed in seeds:
        a = random_feasible(s, seed)
        value = contamination_objective(s, a, exact=True)
        assert type(value) is Fraction
        assert value == reference.co_pilot_sum_exact(ref, a.pilot_of)
        assert value == reference.contamination_objective_exact(s, a.pilot_of)


@pytest.mark.parametrize("rule", ["energy:0.95", "energy:0.5", "top:1", "top:8"])
@pytest.mark.parametrize("shape", [(1, 4, 1), (6, 16, 2), (12, 40, 3), (20, 64, 4)])
def test_exact_rows_match_reference_on_systems(shape, rule):
    for seed in (1, 2):
        _assert_exact_matches_reference(_system(shape, seed, rule))


@pytest.mark.parametrize("dummy_aps", [0, 3])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("weight", ["int", "fraction", "float", "mixed"])
def test_exact_rows_match_reference_on_reduced_graphs(weight, exact, dummy_aps):
    for seed in range(6):
        n = 3 + seed % 5
        g = _graph(n, min(n, 2 + seed % 3), seed, GRAPH_WEIGHTS[weight])
        _assert_exact_matches_reference(mkp_to_pa(g, n_dummy_aps=dummy_aps, exact=exact))


def test_exact_rows_match_reference_on_edge_cases():
    # an int payload, a single user, and graphs whose weights are all zero
    s = make_system([[1.0, 1.0], [1.0, 3**0.5]], [(0,), (1,)], tau=1)
    _assert_exact_matches_reference(dataclasses.replace(s, beta_sq_exact=[[1, 1], [1, 3]]))
    _assert_exact_matches_reference(mkp_to_pa(WeightedGraph(1, 1, {}), exact=True))
    for weights in ({}, {(0, 1): 0, (1, 3): Fraction(0), (2, 3): 0.0}):
        for exact in (False, True):
            s = mkp_to_pa(WeightedGraph(4, 2, weights), n_dummy_aps=2, exact=exact)
            _assert_exact_matches_reference(s)
            assert contamination_objective(s, PilotAssignment((0, 0, 1, 1), 2), exact=True) == 0


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_exact_objective_replays_partition_objective(n, data):
    k = data.draw(st.integers(1, n), label="k")
    weight = st.one_of(
        st.integers(0, 10**30), st.fractions(min_value=0, max_value=10**6, max_denominator=10**9)
    )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = st.dictionaries(st.sampled_from(pairs), weight) if pairs else st.just({})
    g = WeightedGraph(n, k, data.draw(weights, label="weights"))
    extra = data.draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = data.draw(st.permutations(list(range(k)) + extra), label="labels")
    s = mkp_to_pa(g, n_dummy_aps=data.draw(st.integers(0, 2), label="dummy"), exact=True)
    value = contamination_objective(s, PilotAssignment(labels, k), exact=True)
    assert type(value) is Fraction
    assert value == mkp_objective(g, Partition(labels, k))


def test_matrices_are_memoised_and_read_only():
    s = _system((10, 32, 3), 1)
    w = interference_matrix(s)
    assert interference_matrix(s) is w
    with pytest.raises(ValueError):
        w[0, 1] = 1.0


def _assert_terms_match_reference(s):
    """The one-pass builder gives W and the four rate arrays of the two
    separate reference builders, bit for bit (nan where both overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = system_model.derived(s, system_model._user_terms)
        want = (reference.interference_float(s),) + reference.rate_terms(s)
    assert interference_matrix(s) is got[0]
    assert len(got) == len(want) == 5
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64 and not a.flags.writeable
        assert np.array_equal(a, b, equal_nan=True)


# (K, M, tau) of every benchmark workload's systems
BENCHMARK_SHAPES = [(10, 32, 3), (8, 32, 5), (50, 100, 5), (100, 200, 8), (20, 64, 4)]


@pytest.mark.parametrize("rule", ["energy:0.95", "top:1", "top:8"])
@pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
def test_user_terms_match_reference_builders(shape, rule):
    for seed in (1, 2, 3):
        _assert_terms_match_reference(_system(shape, seed, rule))


# log-uniform, about: from 1e-150 to 1e151
WIDE = st.builds(lambda e, x: x * 10.0**e, st.integers(-150, 150), st.floats(1.0, 10.0))
SUBNORMAL = st.sampled_from([5e-324, 1e-310]) | st.floats(5e-324, 2.0**-1022, exclude_max=True)


@st.composite
def wide_systems(draw, fading=WIDE):
    """Small systems with beta drawn from ``fading`` (by default from 1e-150
    to 1e151), single-AP serving sets, users with eta = 0, and zero fading
    off the serving links."""
    k, m = draw(st.integers(1, 6), label="K"), draw(st.integers(1, 5), label="M")
    scale = WIDE
    unit = st.floats(0.0, 1.0)

    def table(values):
        return np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=k, max_size=k)))

    serving = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1), min_size=k, max_size=k))
    off = table(st.booleans()) & np.array([[j not in a for j in range(m)] for a in serving])
    beta = np.where(off, 0.0, table(fading))
    eta = draw(st.lists(st.sampled_from([0.0, 1.0]) | unit, min_size=k, max_size=k), label="eta")
    tau = draw(st.integers(1, k), label="tau")
    return make_system(beta, serving, tau, gamma=beta * table(unit), eta=eta,
                       rho_u=draw(scale, label="rho_u"), tau_c=tau + 1)


@settings(max_examples=150, deadline=None)
@given(s=wide_systems())
def test_user_terms_match_reference_builders_on_wide_systems(s):
    _assert_terms_match_reference(s)


def test_one_float_memo_entry_per_system():
    s = _system((20, 64, 4), 3)
    init = random_feasible(s, 3)
    local_search_move(s, init)
    greedy_worst_user(s, init)
    system_throughput(s, init)
    assert list(system_model._DERIVED[s]) == [system_model._user_terms]


@pytest.mark.parametrize("shape, seed", CASES)
def test_local_search_matches_reference(shape, seed):
    s = _system(shape, seed)
    init = random_feasible(s, seed)
    report = local_search_move(s, init)
    labels, moves, objective = reference.local_search_move(s, init)
    assert report.assignment == labels
    assert report.iterations == moves
    assert math.isclose(report.objective, objective, rel_tol=REL)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 14), tau=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_local_search_matches_reference_on_wide_weights(n, tau, seed):
    # Weights from 1e-8 to 1e8: each user is heavy (exponent 7.5 to 8) or
    # light (-7.5 to -7), and a pair weighs a little less than its lighter
    # user's scale. A light user's moves then change an objective of heavy
    # pairs by about its rounding, so the guard is evaluated, and often
    # stops the search, on many examples.
    rng = np.random.default_rng(seed)
    exponent = np.where(rng.random(n) < 0.5, rng.uniform(7.5, 8, n), rng.uniform(-7.5, -7, n))
    ii, jj = np.triu_indices(n, 1)
    weights = 10.0 ** (np.minimum(exponent[ii], exponent[jj]) - rng.uniform(0, 0.5, ii.size))
    g = WeightedGraph(n, min(n, tau), dict(zip(zip(ii.tolist(), jj.tolist()), weights.tolist())))
    s = mkp_to_pa(g)
    init = random_feasible(s, seed)
    report = local_search_move(s, init)
    labels, moves, objective = reference.local_search_move(s, init)
    assert (report.assignment, report.iterations, report.objective) == (labels, moves, objective)


# (shape, seed) whose last worst-user candidate raises the worst user's rate
# but not the minimum rate, so it is rejected: after 2 and after 0 accepted moves
REJECTING = [((10, 32, 3), 4), ((10, 32, 3), 18)]


@pytest.mark.parametrize("shape, seed", CASES + REJECTING)
def test_worst_user_matches_reference(shape, seed):
    s = _system(shape, seed)
    init = random_feasible(s, seed)
    with mock.patch.object(solvers, "uplink_rates", wraps=uplink_rates) as scored:
        report = greedy_worst_user(s, init)
    labels, rounds, rates = reference.greedy_worst_user(s, init)
    assert report.assignment == labels
    assert report.iterations == rounds
    assert math.isclose(report.throughput, sum(rates), rel_tol=REL)
    assert report.objective == contamination_objective(s, labels)
    # the start, each accepted candidate, and a rejected last one
    assert scored.call_count - 1 - rounds == ((shape, seed) in REJECTING)


@pytest.mark.parametrize("shape, seed", CASES)
def test_uplink_rate_matches_reference(shape, seed):
    s = _system(shape, seed)
    a = random_feasible(s, seed)
    for k in range(s.k_users):
        assert math.isclose(uplink_rate(s, a, k), reference.uplink_rate(s, a, k), rel_tol=REL)


def _rate_edge_system(edge):
    """A (K, M) = (8, 24) system with one edge of the rate kernel."""
    tau = {"tau-1": 1, "tau-K": 8}.get(edge, 3)
    s = _system((8, 24, tau), 5)
    if edge == "eta-zero":
        eta = s.eta.copy()
        eta[2] = 0.0
        s = dataclasses.replace(s, eta=eta)
    elif edge == "gamma-zero":  # zero numerator over a zero denominator
        gamma = s.gamma.copy()
        gamma[4] = 0.0
        s = dataclasses.replace(s, gamma=gamma)
    return s


RATE_EDGES = ["eta-zero", "gamma-zero", "tau-1", "tau-K"]


@pytest.mark.parametrize("case", CASES + RATE_EDGES)
def test_uplink_rates_are_the_per_user_rates(case):
    s, seed = (_rate_edge_system(case), 5) if case in RATE_EDGES else (_system(*case), case[1])
    for a in (random_feasible(s, seed), random_feasible(s, seed + 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = uplink_rates(s, a)
            one_by_one = [uplink_rate(s, a, k) for k in range(s.k_users)]
        assert all(type(r) is float for r in rates + one_by_one)
        assert [r.hex() for r in rates] == [r.hex() for r in one_by_one]
        for k, r in enumerate(rates):
            assert math.isclose(r, reference.uplink_rate(s, a, k), rel_tol=REL)
        assert system_throughput(s, a) == sum(rates)


def test_uplink_rates_zero_for_silent_users():
    for edge, user in (("eta-zero", 2), ("gamma-zero", 4)):
        s = _rate_edge_system(edge)
        rates = uplink_rates(s, random_feasible(s, 5))
        assert rates[user] == 0.0 and min(rates[:user] + rates[user + 1:]) > 0.0


@pytest.mark.parametrize("edge", RATE_EDGES)
def test_worst_user_matches_reference_on_edge_systems(edge):
    s = _rate_edge_system(edge)
    init = random_feasible(s, 5)
    report = greedy_worst_user(s, init)
    labels, rounds, rates = reference.greedy_worst_user(s, init)
    assert report.assignment == labels
    assert report.iterations == rounds
    assert math.isclose(report.throughput, sum(rates), rel_tol=REL)


# (K, M, tau) of the enumerator comparisons: ordinary shapes, then the
# edge shapes tau = 1, tau = K and K = 1.
ENUM_SHAPES = [(6, 16, 2), (7, 20, 3), (8, 24, 4), (5, 16, 1), (5, 16, 5), (1, 4, 1)]


def _graph(n, k, seed, weight):
    r = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if r.random() < 0.7]
    return WeightedGraph(n, k, {e: weight(r) for e in pairs})


GRAPH_WEIGHTS = {
    "int": lambda r: r.randint(0, 3),
    "fraction": lambda r: Fraction(r.randint(0, 9), r.randint(1, 6)),
    "float": lambda r: r.choice([0.1, 0.2, 0.3, 1 / 3, 2.5]),
    "mixed": lambda r: r.choice([1, Fraction(1, 3), 0.1, 0.3]),
}


def _assert_same_as_reference(n, k, pairs):
    """The enumerator's labeling is the reference's exact-sum argmin, its
    float total the reference's float sum of that labeling, bit for bit,
    and it visits every surjection. Returns the reference's (exact total,
    labeling)."""
    pairs = list(pairs)
    total, labels, visited = solvers._min_over_surjections(n, k, pairs, solvers.DEFAULT_BUDGET)
    ref_value, ref_labels, ref_visited = reference.min_over_surjections(n, k, pairs)
    assert labels == ref_labels
    assert type(total) is float and total.hex() == reference.float_total(pairs, labels).hex()
    assert visited == ref_visited == count_surjective_assignments(n, k)
    return ref_value, ref_labels


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("shape", ENUM_SHAPES)
def test_enumerator_matches_reference_on_systems(shape, exact):
    for seed in (1, 2):
        s = _system(shape, seed)
        _, labels = _assert_same_as_reference(
            s.k_users, s.tau_pilots, interference_pairs(s, exact=exact)
        )
        if exact:  # brute force gives the exact W's optimum in both modes
            for mode in (False, True):
                assert brute_force_exact(s, exact=mode).assignment.pilot_of == labels


# Blocks of 7 labelings put equal optima in different blocks.
@pytest.mark.parametrize("block", [solvers._BLOCK, 7])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("k_users, tau", [(5, 2), (6, 3), (4, 4), (4, 1)])
def test_enumerator_matches_reference_on_ties(k_users, tau, exact, block):
    s = flat_system(k_users, tau)  # labelings with equal block sizes tie
    with mock.patch.object(solvers, "_BLOCK", block):
        _assert_same_as_reference(k_users, tau, interference_pairs(s, exact=exact))


@pytest.mark.parametrize("weight", sorted(GRAPH_WEIGHTS))
def test_enumerator_matches_reference_on_graphs(weight):
    for seed in range(6):
        n = 3 + seed % 5
        g = _graph(n, min(n, 2 + seed % 3), seed, GRAPH_WEIGHTS[weight])
        pairs = sorted((i, j, w) for (i, j), w in g.weights.items())
        value, labels = _assert_same_as_reference(n, g.k_parts, pairs)
        report = brute_force_partition(g)
        assert report.assignment.pilot_of == labels
        if weight in ("int", "fraction"):
            assert type(report.objective) is Fraction and report.objective == value
        else:
            assert report.objective == reference.float_total(pairs, labels)


# Dyadic weights whose smallest ones are rounded away when added to 0.5 or 1:
# float totals tie, or order wrongly, on many graphs, and exact sums decide.
DYADIC = [0.0, 2.0**-54, 2.0**-53, 0.5, 1.0]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 6), data=st.data())
def test_labels_are_the_exact_sum_argmin_on_near_ties(n, data):
    k = data.draw(st.integers(1, min(n, 3)), label="k")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = data.draw(st.lists(st.sampled_from(DYADIC), min_size=len(pairs), max_size=len(pairs)))
    g = WeightedGraph(n, k, dict(zip(pairs, weights)))
    _, labels = _assert_same_as_reference(n, k, [(i, j, w) for (i, j), w in zip(pairs, weights)])
    assert brute_force_partition(g).assignment.pilot_of == labels


@pytest.mark.parametrize("block", [solvers._BLOCK, 7])
def test_enumerator_matches_reference_on_coloring_graphs(block):
    r = random.Random(5)
    for k in (2, 3, 4):
        edges = [(i, j) for i in range(7) for j in range(i + 1, 7) if r.random() < 0.4]
        g = coloring_to_mkp(7, edges, k)
        pairs = sorted((i, j, w) for (i, j), w in g.weights.items())
        with mock.patch.object(solvers, "_BLOCK", block):
            _assert_same_as_reference(7, k, pairs)


def _assert_whole_heads(blocks, n, k, block):
    """Every block is int8, nonempty and under 2 * block wide, and no head
    (the first n - t labels, t the enumerator's tail length at this
    block) has its tails split across two blocks."""
    assert all(b.dtype == np.int8 and b.shape[0] == n for b in blocks)
    assert all(1 <= b.shape[1] < 2 * block for b in blocks)
    head = n - next(t for t in range(min(n, block.bit_length()), -1, -1) if k**t <= block)
    assert all(not np.array_equal(a[:head, -1], b[:head, 0]) for a, b in zip(blocks, blocks[1:]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_blocks_hold_every_surjection_once_in_order(n, data):
    k = data.draw(st.integers(1, n), label="k")
    block = data.draw(st.integers(1, 40), label="block")
    with mock.patch.object(solvers, "_BLOCK", block):
        blocks = list(solvers._surjection_blocks(n, k))
    _assert_whole_heads(blocks, n, k, block)
    labelings = [tuple(col) for b in blocks for col in b.T.tolist()]
    # strictly increasing, all surjective, and as many as there are
    # surjections: every surjection exactly once
    assert all(a < b for a, b in zip(labelings, labelings[1:]))
    assert all(set(lab) == set(range(k)) for lab in labelings)
    assert len(labelings) == count_surjective_assignments(n, k)


def _assert_blocks_match_reference(n, k):
    """Whole-head blocks that, joined, are the reference's full blocks joined."""
    got = list(solvers._surjection_blocks(n, k))
    _assert_whole_heads(got, n, k, solvers._BLOCK)
    want = np.hstack(list(reference.surjection_blocks(n, k, solvers._BLOCK)))
    assert want.dtype == np.int8
    assert np.array_equal(np.hstack(got), want)


@pytest.mark.parametrize("n, k", [(10, 3), (8, 5), (14, 2), (9, 8)])
def test_blocks_match_reference(n, k):
    _assert_blocks_match_reference(n, k)


# Blocks of at most 40 at n <= 6 are fixed by the property test above;
# a block of 100 cuts heads and tails at depths it does not reach.
def test_blocks_match_reference_at_block_100():
    with mock.patch.object(solvers, "_BLOCK", 100):
        for n in range(1, 8):
            for k in range(1, n + 1):
                _assert_blocks_match_reference(n, k)


# Systems beside the generated ones: co-pilot sums of 1e308 weights that
# overflow to inf, one user, and tau = K, where no two users share a pilot.
REPORT_EDGES = {
    "overflow": lambda: (
        mkp_to_pa(WeightedGraph(4, 2, {(0, 1): 1e308, (0, 2): 1e308, (1, 2): 1e308, (0, 3): 1.0})),
        PilotAssignment((0, 0, 0, 1), 2),
    ),
    "one-user": lambda: (make_system([[1.0]], [(0,)], tau=1), PilotAssignment((0,), 1)),
    "no-co-pilot": lambda: (_system((6, 16, 6), 1), PilotAssignment((3, 0, 5, 1, 4, 2), 6)),
}


@pytest.mark.parametrize("case", CASES + sorted(REPORT_EDGES))
def test_contamination_report_matches_reference(case):
    if case in REPORT_EDGES:
        s, a = REPORT_EDGES[case]()
        assignments = [a]
    else:
        s = _system(*case)
        assignments = [random_feasible(s, case[1]), random_feasible(s, case[1] + 1)]
    for a in assignments:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = contamination_report(s, a)
            objective = contamination_objective(s, a)
        w = interference_matrix(s)
        total, per_pair, per_user = reference.contamination_report(w, a.pilot_of)
        values = [report.total, *report.per_pair.values(), *report.per_user]
        assert all(type(v) is float for v in values)
        assert list(report.per_pair) == list(per_pair)
        want = [total, *per_pair.values(), *per_user]
        assert [v.hex() for v in values] == [v.hex() for v in want]
        assert report.total == objective
    if case == "overflow":
        assert report.total == report.per_user[0] == math.inf


def test_brute_force_visits_every_surjection_at_k9_tau8():
    s = _system((9, 32, 8), 1)
    assert brute_force_exact(s).iterations == 1_451_520


def _fraction_graph_side(g, labels):
    """The reference exact graph side: mkp_objective on the graph with every
    weight passed through Fraction."""
    exact = WeightedGraph(g.n_vertices, g.k_parts, {e: Fraction(w) for e, w in g.weights.items()})
    return mkp_objective(exact, Partition(labels, g.k_parts))


def _assert_report_matches_reference(s, a, graph=None):
    """Exact verify reports what the two-totals reference does, field by
    field and type by type; returns the report."""
    rep = verify_measure_equality(s, a, exact=True, graph=graph)
    want = reference.verify_exact(s, a, graph)
    for field in dataclasses.fields(rep):
        got, expected = getattr(rep, field.name), getattr(want, field.name)
        assert type(got) is type(expected) and got == expected, field.name
    return rep


def _assert_graph_side_matches(s, a, graph, passes=True):
    """The graph side of exact verify equals the Fraction sum, on a passed
    graph and on the derived one; the certificate passes on the derived
    graph, and on the passed one when ``passes``. Without a graph, verify
    reports what the full exact graph gives, and each report is the
    reference's, field by field."""
    derived = _assert_report_matches_reference(s, a)
    full = pa_to_mkp(s, exact=True)
    for rep, g, want in (
        (_assert_report_matches_reference(s, a, graph), graph, passes),
        (derived, full, True),
    ):
        assert type(rep.m_mkp) is Fraction
        assert rep.m_mkp == _fraction_graph_side(g, a.pilot_of)
        assert rep.passed is want is (rep.m_pa == rep.m_mkp)
    assert derived == _assert_report_matches_reference(s, a, full)


GRAPH_SIDE_WEIGHTS = dict(GRAPH_WEIGHTS, int64=lambda r: np.int64(r.randint(0, 10**15)))


@pytest.mark.parametrize("weight", sorted(GRAPH_SIDE_WEIGHTS))
def test_exact_graph_side_matches_fraction_sum(weight):
    # n from 2 to 7 with k from 1 to 4; seeds 6 and 7 have tau = K
    for seed in range(8):
        n = 2 + seed % 6
        g = _graph(n, min(n, 1 + seed % 4), seed, GRAPH_SIDE_WEIGHTS[weight])
        s = mkp_to_pa(g, exact=True)
        for a_seed in range(3):
            _assert_graph_side_matches(s, random_feasible(s, a_seed), g)


def test_exact_graph_side_matches_fraction_sum_on_edge_cases():
    zeros = {(0, 1): 0, (1, 3): Fraction(0), (2, 3): 0.0, (0, 2): np.int64(0)}
    for g in (WeightedGraph(4, 2, {}), WeightedGraph(4, 2, zeros)):
        _assert_graph_side_matches(mkp_to_pa(g, exact=True), PilotAssignment((0, 0, 1, 1), 2), g)
    # tau = K: no edge inside a block, an exact zero on both sides
    g = WeightedGraph(3, 3, {(0, 1): 1, (1, 2): 0.5, (0, 2): Fraction(1, 3)})
    s, a = mkp_to_pa(g, exact=True), PilotAssignment((2, 0, 1), 3)
    _assert_graph_side_matches(s, a, g)
    assert verify_measure_equality(s, a, exact=True, graph=g).m_mkp == Fraction(0)


@pytest.mark.parametrize("shape", [(1, 4, 1), (6, 16, 2), (12, 40, 3), (8, 24, 8)])
def test_exact_graph_side_matches_fraction_sum_on_systems(shape):
    for seed in (1, 2):
        s = _system(shape, seed)
        for a_seed in range(3):
            a = random_feasible(s, a_seed)
            # the float graph's weights are rounded, so it fails exact verify
            _assert_graph_side_matches(s, a, pa_to_mkp(s), passes=shape[2] == shape[0])
            _assert_graph_side_matches(s, a, pa_to_mkp(s, exact=True))


@settings(max_examples=100, deadline=None)
@given(s=wide_systems(), seed=st.integers(0, 2**32 - 1))
def test_exact_graph_side_matches_fraction_sum_on_wide_systems(s, seed):
    _assert_graph_side_matches(s, random_feasible(s, seed), pa_to_mkp(s, exact=True))


@pytest.mark.parametrize("dummy_aps", [0, 1, 4])
def test_exact_graph_side_matches_fraction_sum_on_payload_systems(dummy_aps):
    for seed in range(6):
        n = 2 + seed % 5
        g = _graph(n, min(n, 1 + seed % 3), seed, GRAPH_WEIGHTS["mixed"])
        s = mkp_to_pa(g, n_dummy_aps=dummy_aps, exact=True)
        _assert_graph_side_matches(s, random_feasible(s, seed), g)
    # tau = K, where no pair shares a block, and a single user: an exact zero
    for g, labels in (
        (_graph(5, 5, 0, GRAPH_WEIGHTS["mixed"]), (4, 2, 0, 1, 3)),
        (WeightedGraph(1, 1, {}), (0,)),
    ):
        s, a = mkp_to_pa(g, n_dummy_aps=dummy_aps, exact=True), PilotAssignment(labels, g.k_parts)
        _assert_graph_side_matches(s, a, g)
        rep = verify_measure_equality(s, a, exact=True)
        assert type(rep.m_mkp) is Fraction and rep.m_mkp == Fraction(0) and rep.passed


def test_derived_exact_verify_builds_only_co_block_weights(monkeypatch):
    # a fresh system: only the co-block pairs' exact weights, and no graph, are built
    s = _system((20, 64, 4), 7)
    a = local_search_move(s, random_feasible(s, 7)).assignment

    def refuse(*args):
        raise AssertionError("verify built a WeightedGraph")

    with monkeypatch.context() as patch:
        # the two ways a graph is built: from a dict, and from a system's W
        patch.setattr(WeightedGraph, "__post_init__", refuse)
        patch.setattr(WeightedGraph, "_of_matrix", refuse)
        for exact in (False, True):
            with pytest.raises(AssertionError, match="verify built"):
                pa_to_mkp(s, exact=exact)
        rep = verify_measure_equality(s, a, exact=True)
    assert rep.passed and type(rep.m_mkp) is Fraction
    # the float W of the local search and the integer rows: no exact pair is kept
    assert set(system_model._DERIVED[s]) == {system_model._user_terms, objective._exact_rows}
    assert rep == verify_measure_equality(s, a, exact=True, graph=pa_to_mkp(s, exact=True))


def test_exact_rows_peak_near_what_they_keep():
    # P is built one user's row at a time: the call's peak stays near the rows
    # it keeps, with no K x M object array or whole-matrix lists besides them
    s = generate_system(GenerationConfig(seed=1), 400, 200, 10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = objective._exact_rows(s)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows[0]) == 200 and peak - before < 1.6 * (after - before)


def test_float_verify_reads_co_block_weights_from_w(monkeypatch):
    # without a graph, float verify reads the co-block pairs from the W that
    # pa_to_mkp's graph holds: no dict of all K(K-1)/2 weights is built
    s = _system((20, 64, 4), 7)
    a = local_search_move(s, random_feasible(s, 7)).assignment

    def refuse(*args):
        raise AssertionError("verify built every pair weight")

    with monkeypatch.context() as patch:
        patch.setattr(reductions, "_upper_weights", refuse)
        rep = verify_measure_equality(s, a)
    assert rep.passed and rep.mode == "float"
    # a graph of the same weights, built from a dict, sums the same floats
    g = WeightedGraph(s.k_users, s.tau_pilots, {(i, j): w for i, j, w in interference_pairs(s)})
    assert rep == verify_measure_equality(s, a, graph=g)
    assert rep.m_mkp == mkp_objective(g, pa_solution_to_mkp(a))


@st.composite
def payload_systems(draw):
    """(mkp_to_pa(g, exact=True), g) for a graph g of int, Fraction and
    float weights, subnormal ones too, with 0, 1 or 4 dummy APs."""
    n = draw(st.integers(1, 6), label="n")
    k = draw(st.integers(1, n), label="k")
    weight = (st.integers(0, 10**30) | st.fractions(0, 10**6, max_denominator=10**9)
              | st.floats(0.0, 1e300) | SUBNORMAL)
    pairs = list(itertools.combinations(range(n), 2))
    weights = st.dictionaries(st.sampled_from(pairs), weight) if pairs else st.just({})
    g = WeightedGraph(n, k, draw(weights, label="weights"))
    dummy_aps = draw(st.sampled_from([0, 1, 4]), label="dummy_aps")
    return mkp_to_pa(g, n_dummy_aps=dummy_aps, exact=True), g


@settings(max_examples=200, deadline=None)
@given(case=wide_systems(WIDE | SUBNORMAL).map(lambda s: (s, None)) | payload_systems(),
       seed=st.integers(0, 2**32 - 1))
def test_exact_verify_matches_reference(case, seed):
    # beta log-uniform from 1e-150 to 1e151 with subnormal entries and zeros
    # off the serving sets, or a graph's exact payload; tau = K and K = 1
    # among them
    s, g = case
    a = random_feasible(s, seed)
    value = contamination_objective(s, a, exact=True)
    assert type(value) is Fraction and value == reference.contamination_objective_exact(s, a.pilot_of)
    for graph in (None, pa_to_mkp(s, exact=True)) + ((g,) if g else ()):
        rep = _assert_report_matches_reference(s, a, graph)
        assert rep.passed and rep.m_pa == value


@settings(max_examples=100, deadline=None)
@given(case=wide_systems(WIDE | SUBNORMAL).map(lambda s: (s, None)) | payload_systems())
def test_exact_pairs_match_reference_on_wide_and_payload_systems(case):
    s, _ = case
    # P's rows, ints built user by user: zero entries, subnormals and
    # payload columns too
    rows = objective._exact_rows(s)[0]
    assert all(type(x) is int for row in rows for x in row)
    assert rows == tuple(map(tuple, reference.integer_beta_squares(s).tolist()))
    _assert_exact_pairs_match_reference(s, reference.interference_exact(s))


# found by Hypothesis: a finite W whose SINR numerator overflows
NUMERATOR_OVERFLOW = make_system([[1.0, 5e-324], [1e102, 5e-324]], [(0,), (0,)], tau=1,
                                 gamma=[[0.0, 0.0], [1e102, 0.0]], eta=[0.0, 1.0],
                                 rho_u=2e104, tau_c=2)


def _assert_float_graph_matches_pairs(s, seed):
    """pa_to_mkp(s) holds W and gives, against the graph built from the dict
    of interference_pairs(s), the same weights (keys in order, values by
    float.hex), file bytes, partition objective and equality; when a
    weight is not finite, pa_to_mkp refuses with the error naming the first."""
    pairs = interference_pairs(s)
    bad = [(i, j, w) for i, j, w in pairs if not w < math.inf]
    if bad:
        i, j, w = bad[0]
        with pytest.raises(ValueError) as err:
            pa_to_mkp(s)
        assert str(err.value) == f"non-finite weight {w} on edge ({i}, {j})"
        return
    g = pa_to_mkp(s)
    assert g.matrix() is interference_matrix(s)
    ref = WeightedGraph(s.k_users, s.tau_pilots, {(i, j): w for i, j, w in pairs})
    assert all(type(w) is float for w in g.weights.values())
    assert [(i, j, w.hex()) for (i, j), w in g.weights.items()] == [
        (i, j, w.hex()) for i, j, w in pairs]
    assert format_graph(g) == format_graph(ref)
    p = Partition(random_feasible(s, seed).pilot_of, s.tau_pilots)
    assert repr(mkp_objective(g, p)) == repr(mkp_objective(ref, p))
    assert graphs_equal(g, ref) and graphs_equal(ref, g) and graphs_equal(g, pa_to_mkp(s))
    if pairs:
        other = WeightedGraph(s.k_users, s.tau_pilots, {**ref.weights, (0, 1): 1.0 + ref.weights[(0, 1)]})
        assert graphs_equal(g, other) == graphs_equal(ref, other)


@settings(max_examples=200, deadline=None)
@given(s=wide_systems(WIDE | SUBNORMAL), seed=st.integers(0, 2**32 - 1))
@example(s=make_system([[1e-300]], [(0,)], tau=1), seed=0)  # K = 1
@example(s=make_system([[1.0, 1e-310, 3.0], [2.0, 5e-324, 1e150], [1e-150, 4.0, 1.0]],
                       [(0,), (1, 2), (2,)], tau=3), seed=0)  # tau = K, subnormal serving links
@example(s=NUMERATOR_OVERFLOW, seed=0)
def test_float_graph_matches_interference_pairs_on_wide_systems(s, seed):
    # beta log-uniform from 1e-150 to 1e151 with subnormal entries; tau = K
    # and K = 1 among them, and weights that overflow. The pass that builds W
    # also builds the rate terms, where an overflowed ratio times a zero gamma
    # or eta is nan, which warns; only that build ignores it.
    with np.errstate(invalid="ignore"):
        interference_matrix(s)
    _assert_float_graph_matches_pairs(s, seed)


def test_overflowed_rate_numerator_does_not_warn():
    # rho_u * eta * (sum gamma)**2 = 2e104 * 1e204 overflows to inf in the
    # pass that builds the finite W; under -W error a warning would fail here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = interference_matrix(NUMERATOR_OVERFLOW)
        assert pa_to_mkp(NUMERATOR_OVERFLOW).matrix() is w
    assert np.isfinite(w).all()
    numerator = system_model.derived(NUMERATOR_OVERFLOW, system_model._user_terms)[1]
    assert numerator.tolist() == [0.0, math.inf]


def test_exact_pair_weight_reads_its_one_pair():
    s = _system((20, 64, 4), 8)
    value = pairwise_interference(s, 11, 3, exact=True)
    assert set(system_model._DERIVED[s]) == {objective._exact_rows}
    assert value == reference.interference_exact(s)[3, 11]


def test_payload_brute_force_builds_its_exact_pairs_once(monkeypatch):
    # K4 in two blocks: the three balanced partitions tie, so exact sums decide
    s = mkp_to_pa(coloring_to_mkp(4, itertools.combinations(range(4), 2), 2), exact=True)
    built, decided = [], []

    def spy(calls, fn):
        return lambda *args: calls.append(1) or fn(*args)

    monkeypatch.setattr(objective, "_exact_pairs", spy(built, objective._exact_pairs))
    monkeypatch.setattr(
        solvers, "_over_common_denominator", spy(decided, solvers._over_common_denominator)
    )
    report = brute_force_exact(s, exact=True)
    assert report.assignment.pilot_of == (0, 0, 1, 1) and report.objective == 2
    assert len(built) == len(decided) == 1


@pytest.mark.parametrize("case", ["tau=K", "K=1", "K=1 subnormal"])
def test_exact_verify_matches_reference_without_co_pilots(case):
    s, labels = {
        "tau=K": (_system((6, 16, 6), 1), (3, 0, 5, 1, 4, 2)),
        "K=1": (_system((1, 4, 1), 1), (0,)),
        "K=1 subnormal": (make_system([[5e-324, 1e-310]], [(0, 1)], tau=1), (0,)),
    }[case]
    a = PilotAssignment(labels, s.tau_pilots)
    for graph in (None, pa_to_mkp(s, exact=True)):
        rep = _assert_report_matches_reference(s, a, graph)
        assert rep.passed and rep.m_pa == rep.m_mkp == 0 and type(rep.m_pa) is Fraction


def _count_totals(monkeypatch):
    """Record each exact total verify sums: one when every term matches,
    a second one when it falls back to summing the graph side."""
    calls = []

    def total(ratios):
        calls.append(1)
        return objective._exact_total(ratios)

    monkeypatch.setattr(reductions, "_exact_total", total)
    return calls


def _float_graph_case():
    """A graph of float weights on 6 vertices, its exact payload system and
    the partition {0, 2, 4} | {1, 3, 5}; the co-block edge (2, 4) is absent,
    so it weighs 0."""
    r = random.Random(5)
    weights = {e: r.choice([0.1, 0.3, 2.5, 1 / 3, 7.0]) for e in itertools.combinations(range(6), 2)}
    del weights[(2, 4)]
    g = WeightedGraph(6, 2, weights)
    return g, mkp_to_pa(g, exact=True), PilotAssignment((0, 1, 0, 1, 0, 1), 2)


def _changed(g, changes):
    return WeightedGraph(g.n_vertices, g.k_parts, {**g.weights, **changes})


@pytest.mark.parametrize("edge", [(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5)])
def test_co_block_edge_one_ulp_higher_fails(edge, monkeypatch):
    g, s, a = _float_graph_case()
    good = verify_measure_equality(s, a, exact=True, graph=g)
    assert good.passed
    w = g.weight(*edge)
    bad = _changed(g, {edge: math.nextafter(w, math.inf)})
    calls = _count_totals(monkeypatch)
    rep = _assert_report_matches_reference(s, a, bad)
    assert not rep.passed and len(calls) == 2
    assert rep.m_pa == good.m_pa
    assert rep.m_mkp == good.m_mkp + Fraction(bad.weight(*edge)) - Fraction(w)


def _exact_graph_case(seed):
    """A generated system, its exact graph (Fraction weights) and an
    assignment with co-pilot pairs on both pilots."""
    s = _system((8, 24, 2), seed)
    a = random_feasible(s, seed)
    pairs = [(i, j) for i, j in itertools.combinations(range(8), 2) if a.pilot_of[i] == a.pilot_of[j]]
    return s, pa_to_mkp(s, exact=True), a, pairs


@pytest.mark.parametrize("seed", [1, 2])
def test_co_block_edge_raised_by_a_tiny_fraction_fails(seed, monkeypatch):
    s, g, a, pairs = _exact_graph_case(seed)
    good = verify_measure_equality(s, a, exact=True, graph=g)
    assert good.passed
    calls = _count_totals(monkeypatch)
    for edge in pairs:
        calls.clear()
        rep = _assert_report_matches_reference(s, a, _changed(g, {edge: g.weight(*edge) + Fraction(1, 10**30)}))
        assert not rep.passed and len(calls) == 2
        assert rep.m_pa == good.m_pa and rep.m_mkp == good.m_mkp + Fraction(1, 10**30)


@pytest.mark.parametrize("seed", [1, 2])
def test_weight_moved_between_co_block_edges_passes_through_the_fallback(seed, monkeypatch):
    # the terms differ and the totals do not: within a block and across blocks
    s, g, a, pairs = _exact_graph_case(seed)
    good = verify_measure_equality(s, a, exact=True, graph=g)
    calls = _count_totals(monkeypatch)
    for e, f in itertools.permutations(pairs, 2):
        calls.clear()
        d = min(g.weight(*e), g.weight(*f)) / 3
        rep = _assert_report_matches_reference(s, a, _changed(g, {e: g.weight(*e) - d, f: g.weight(*f) + d}))
        assert rep.passed and len(calls) == 2
        assert rep.m_pa == rep.m_mkp == good.m_pa


@pytest.mark.parametrize("seed", [1, 2])
def test_changed_edge_across_blocks_passes_term_by_term(seed, monkeypatch):
    s, g, a, pairs = _exact_graph_case(seed)
    good = verify_measure_equality(s, a, exact=True, graph=g)
    calls = _count_totals(monkeypatch)
    cut = [e for e in itertools.combinations(range(8), 2) if e not in pairs]
    for e in cut:
        for graph in (_changed(g, {e: g.weight(*e) * 7 + 1}), WeightedGraph(8, 2, {
                k: w for k, w in g.weights.items() if k != e})):
            calls.clear()
            rep = _assert_report_matches_reference(s, a, graph)
            assert rep.passed and len(calls) == 1 and rep == good


def test_wrong_objective_term_without_a_graph_falls_back(monkeypatch):
    # user 0's term of the objective, one unit too high: its pair terms no
    # longer add up to it, and the pair weights, summed on their own, show
    # the objective 1 / L[0] too high
    s, _, a, _ = _exact_graph_case(1)
    good = verify_measure_equality(s, a, exact=True)
    terms = objective._exact_terms

    def off_by_one(s, labels):
        r, lcms = terms(s, labels)
        return [r[0] + 1] + r[1:], lcms

    monkeypatch.setattr(reductions, "_exact_terms", off_by_one)
    calls = _count_totals(monkeypatch)
    rep = verify_measure_equality(s, a, exact=True)
    lcm_0 = terms(s, np.asarray(a.pilot_of))[1][0]
    assert not rep.passed and len(calls) == 2
    assert rep.m_pa == good.m_pa + Fraction(1, lcm_0) and rep.m_mkp == good.m_mkp


@pytest.mark.parametrize("shape", [(30, 64, 3), (40, 100, 4)])
def test_exact_graph_side_matches_fraction_sum_on_large_blocks(shape):
    # blocks of 10 users and more, whose co-block weights carry long,
    # mostly coprime denominators: each block's lcm differs from the others
    k, _, tau = shape
    for seed in (1, 2):
        s = _system(shape, seed)
        # user 0 alone on pilot 0: an empty bucket, which must add exactly 0
        singleton = PilotAssignment((0,) + tuple(1 + i % (tau - 1) for i in range(k - 1)), tau)
        for a in (random_feasible(s, 0), random_feasible(s, 1), singleton):
            _assert_graph_side_matches(s, a, pa_to_mkp(s, exact=True))


# Fading values that tie exactly, underflow, vanish or overflow, mixed with
# ordinary ones; a nan is what an unusable generator input leaves behind.
# The second mix leaves most rows without a tie, but with several nans.
FADING = [
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 2.0, 1e308, math.inf, math.nan])
    | st.floats(0.0, 1e308),
    st.floats(0.0, 1e308) | st.just(math.nan),
]


@st.composite
def rows_and_rule(draw):
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    values = draw(st.sampled_from(FADING))
    beta = np.array(draw(st.lists(values, min_size=k * m, max_size=k * m))).reshape(k, m)
    rule = draw(st.one_of(
        st.tuples(st.just("top"), st.integers(1, m + 3) | st.just(10**400)),
        st.tuples(st.just("energy"), st.sampled_from([1.0, 1e-300, 5e-324]) | st.floats(0.0, 1.0,
                  exclude_min=True)),
    ))
    return beta, rule


@settings(max_examples=300, deadline=None)
@given(rows_and_rule())
def test_serving_sets_match_reference(case):
    # equal fading goes to the lower AP index, as the per-user stable sort ranks it
    beta, (kind, arg) = case
    with np.errstate(over="ignore", invalid="ignore"):
        got = system_model._serving_sets(beta, kind, arg)
        want = reference.serving_sets(beta, kind, arg)
    assert got == want


@pytest.mark.parametrize("eta_policy", ["full", "uniform"])
@pytest.mark.parametrize("rule", ["energy:0.95", "energy:1", "energy:1e-300", "top:1", "top:7",
                                  "top:" + "9" * 400])
@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 12, 2), (20, 64, 4), (100, 200, 8), (30, 10, 3)])
def test_generate_system_matches_reference(shape, rule, eta_policy):
    k, m, tau = shape
    cfg = GenerationConfig(seed=k + m, ap_selection_rule=rule, eta_policy=eta_policy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = generate_system(cfg, m, k, tau)
    assert [str(w.message) for w in caught] == (
        [f"{k} users with only {m} APs: atypical deployment"] if k > m else []
    )
    beta, gamma, eta, serving = reference.generate(cfg, m, k, tau)
    assert s.beta.tobytes() == beta.tobytes()
    assert s.gamma.tobytes() == gamma.tobytes()
    assert s.eta.tobytes() == eta.tobytes()
    assert s.serving_sets == serving



@pytest.mark.parametrize("shape", [(1, 4, 1), (6, 16, 2), (20, 64, 4), (50, 100, 5)])
def test_format_instance_matches_reference(shape):
    for seed in (1, 2):
        for rule in ("energy:0.95", "top:1"):
            s = _system(shape, seed, rule)
            lines, ref = format_instance(s).splitlines(), reference.format_instance(s).splitlines()
            # the generator's gamma is the default estimate: one line under
            # pa-instance/2 in place of the K rows; every other line as before
            k = s.k_users
            assert (lines[0], ref[0]) == ("pa-instance/2", "pa-instance/1")
            assert lines[1:-1] == ref[1:-k]
            assert lines[-1] == "gamma default"
            assert all(row.startswith("gamma ") for row in ref[-k:])
            # any other gamma keeps its rows under pa-instance/1, byte for byte
            other = dataclasses.replace(
                s, gamma=system_model._gamma_from_beta(s.beta, 2 * s.rho_u, s.tau_pilots)
            )
            assert format_instance(other) == reference.format_instance(other)


def test_format_instance_matches_reference_on_extreme_floats():
    # subnormal, smallest normal-range and near-overflow values, plus zeros
    values = [[5e-324, 1e-310, 1e308], [1e308, 0.0, 5e-324], [1e-310, 1.0, 0.1 + 0.2]]
    s = make_system(values, [(0,), (1, 2), (0, 2)], tau=2, gamma=values,
                    eta=[5e-324, 1e-310, 1e308], rho_u=1e308)
    text = format_instance(s)
    assert text == reference.format_instance(s)
    assert "5e-324" in text and "1e-310" in text and "1e+308" in text
