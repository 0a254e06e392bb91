import dataclasses
import itertools
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotkit import (
    InfeasibleAssignmentError,
    InvalidPartitionError,
    Partition,
    PilotAssignment,
    WeightedGraph,
    coloring_to_mkp,
    contamination_objective,
    graphs_equal,
    mkp_objective,
    mkp_solution_to_pa,
    mkp_to_pa,
    pa_solution_to_mkp,
    pa_to_mkp,
    pairwise_interference,
    validate_system,
    verify_measure_equality,
)
from pilotkit.objective import interference_matrix
from pilotkit.solvers import local_search_move, random_feasible

from conftest import make_system, small_random_system

TRIANGLE = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
C5 = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (0, 4): 1}


def enumerate_partition_optimum(g):
    """Independent oracle: exhaustive scan of surjective labelings."""
    best = None
    for labels in itertools.product(range(g.k_parts), repeat=g.n_vertices):
        if len(set(labels)) != g.k_parts:
            continue
        value = sum(
            w for (i, j), w in g.weights.items() if labels[i] == labels[j]
        )
        if best is None or value < best:
            best = value
    return best


def random_rational_graph(seed, max_n=7):
    r = random.Random(seed)
    n = r.randint(2, max_n)
    k = min(r.choice([2, 3]), n)
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if r.random() < 0.7:
                weights[(i, j)] = Fraction(r.randint(0, 10), r.randint(1, 6))
    return WeightedGraph(n, k, weights)


class TestWeightedGraph:
    def test_normalizes_key_order(self):
        g = WeightedGraph(3, 2, {(2, 0): 1.5})
        assert g.weights == {(0, 2): 1.5}
        assert g.weight(0, 2) == g.weight(2, 0) == 1.5
        assert g.weight(0, 1) == 0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph(3, 2, {(1, 1): 1})

    def test_self_loop_message_names_the_rule(self):
        with pytest.raises(ValueError, match="self-loop.*simple graph"):
            WeightedGraph(3, 2, {(2, 2): 1})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            WeightedGraph(3, 2, {(0, 1): -1})

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedGraph(3, 2, {(0, 1): 1, (1, 2): w})

    def test_rejects_conflicting_duplicates(self):
        with pytest.raises(ValueError, match="conflicting"):
            WeightedGraph(3, 2, {(0, 1): 1, (1, 0): 2})

    def test_k_parts_bounds(self):
        with pytest.raises(ValueError, match="k_parts"):
            WeightedGraph(3, 4, {})
        with pytest.raises(ValueError, match="k_parts"):
            WeightedGraph(3, 0, {})

    @pytest.mark.parametrize("n, k, weights, bad", [
        (3.0, 2, {}, "n_vertices 3.0"),
        (3, 2.0, {}, "k_parts 2.0"),
        (3, 2, {(0.5, 1.7): 1}, "endpoint 0.5"),  # int() would read it as the edge (0, 1)
        (3, 2, {(0, 1.0): 1}, "endpoint 1.0"),
    ])
    def test_non_integer_count_or_endpoint_refused(self, n, k, weights, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(bad)} is not an integer$"):
            WeightedGraph(n, k, weights)

    def test_numpy_integer_counts_and_endpoints_become_ints(self):
        g = WeightedGraph(np.int64(3), np.int32(2), {(np.int64(2), np.uint8(0)): 1.5})
        assert (g.n_vertices, g.k_parts, g.weights) == (3, 2, {(0, 2): 1.5})
        types = {type(g.n_vertices), type(g.k_parts)} | {type(v) for e in g.weights for v in e}
        assert types == {int}


class TestPartition:
    def test_valid(self):
        p = Partition((0, 1, 0), 2)
        assert p.n_vertices == 3

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidPartitionError, match="empty"):
            Partition((0, 0, 0), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidPartitionError, match="out of range"):
            Partition((0, 3), 2)


# A feasible assignment and a partition are the same surjective labelling.
LABELLINGS = [
    (PilotAssignment, InfeasibleAssignmentError, "pilot", "users"),
    (Partition, InvalidPartitionError, "block", "vertices"),
]


class TestOneLabellingRule:
    @pytest.mark.parametrize("cls, error, label, _", LABELLINGS)
    @pytest.mark.parametrize("labels", [(0.9, 1.9), (0, 1.0), (0, np.float64(1.0))])
    def test_non_integer_label_refused(self, cls, error, label, _, labels):
        # int() would read 0.9 as 0 and 1.0 as 1
        with pytest.raises(error) as exc:
            cls(labels, 2)
        bad = next(x for x in labels if not isinstance(x, int))
        assert str(exc.value) == f"{label} index {bad!r} is not an integer"

    @pytest.mark.parametrize("cls, error, label, _", LABELLINGS)
    def test_numpy_integers_and_bools_accepted(self, cls, error, label, _):
        labels = (np.int8(0), np.uint64(1), True, np.False_, np.True_)
        assert tuple(vars(cls(labels, 2)).values()) == ((0, 1, 1, 0, 1), 2)

    @pytest.mark.parametrize("cls, error, label, _", LABELLINGS)
    @pytest.mark.parametrize("count", [2.0, 1.5, "2", None])
    def test_non_integer_count_refused(self, cls, error, label, _, count):
        # a count of 2.0 would be written as "pilots 2.0", which the parser refuses
        with pytest.raises(error) as exc:
            cls((0, 1), count)
        assert str(exc.value) == f"{label} count {count!r} is not an integer"

    @pytest.mark.parametrize("cls, error, label, _", LABELLINGS)
    def test_numpy_integer_count_stored_as_int(self, cls, error, label, _):
        labels, count = vars(cls((0, 1), np.int64(2))).values()
        assert (labels, count, type(count)) == ((0, 1), 2, int)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_both_classes_accept_the_same_labellings(self, data):
        n = data.draw(st.one_of(st.integers(0, 6), st.just(10**18)))
        labels = tuple(data.draw(st.lists(st.integers(-2, n + 2), max_size=8)))
        outcomes = []
        for cls, error, label, items in LABELLINGS:
            try:
                outcomes.append(tuple(vars(cls(labels, n)).values()))
            except error as e:
                outcomes.append(str(e).replace(label, "LABEL").replace(items, "ITEMS"))
        assert outcomes[0] == outcomes[1]


class TestMkpObjective:
    def test_triangle_three_blocks(self):
        g = WeightedGraph(3, 3, TRIANGLE)
        assert mkp_objective(g, Partition((0, 1, 2), 3)) == 0

    def test_triangle_two_blocks(self):
        g = WeightedGraph(3, 2, TRIANGLE)
        assert mkp_objective(g, Partition((0, 0, 1), 2)) == 1

    def test_k4_two_block_optimum_is_two(self):
        k4 = {(i, j): 1 for i in range(4) for j in range(i + 1, 4)}
        g = WeightedGraph(4, 2, k4)
        assert enumerate_partition_optimum(g) == 2

    def test_block_count_mismatch(self):
        g = WeightedGraph(3, 2, TRIANGLE)
        with pytest.raises(ValueError, match="block count mismatch"):
            mkp_objective(g, Partition((0, 1, 2), 3))

    def test_rational_weights_stay_exact(self):
        g = WeightedGraph(3, 2, {(0, 1): Fraction(1, 3), (1, 2): Fraction(1, 6)})
        v = mkp_objective(g, Partition((0, 0, 1), 2))
        assert v == Fraction(1, 3)

    @pytest.mark.parametrize("huge", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    @pytest.mark.parametrize("huge_first", [True, False], ids=["huge-first", "float-first"])
    def test_mixed_sum_beyond_float_range_is_inf(self, huge, huge_first):
        # an int or Fraction beyond float range meets a float, in either order
        first, second = (huge, 0.5) if huge_first else (0.5, huge)
        g = WeightedGraph(3, 1, {(0, 1): first, (1, 2): second})
        assert mkp_objective(g, Partition((0, 0, 0), 1)) == math.inf

    @pytest.mark.parametrize("huge", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_sums_of_one_exact_type_stay_exact(self, huge):
        g = WeightedGraph(3, 1, {(0, 1): huge, (1, 2): huge})
        v = mkp_objective(g, Partition((0, 0, 0), 1))
        assert type(v) is type(huge) and v == 2 * huge


class TestPaToMkp:
    def test_unit_pair(self, unit_pair_system):
        g = pa_to_mkp(unit_pair_system)
        assert g.n_vertices == 2 and g.k_parts == 1
        assert g.weights == {(0, 1): 2.0}

    def test_complete_graph_with_zero_weights(self):
        s = make_system(np.eye(3), [(0,), (1,), (2,)], tau=2)
        g = pa_to_mkp(s)
        assert set(g.weights) == {(0, 1), (0, 2), (1, 2)}
        assert all(w == 0.0 for w in g.weights.values())

    def test_weights_match_pairwise(self):
        s = small_random_system(seed=50, k_users=5, tau=2)
        g = pa_to_mkp(s)
        for i in range(5):
            for j in range(i + 1, 5):
                assert g.weights[(i, j)] == pairwise_interference(s, i, j)
                assert g.weights[(i, j)] >= 0

    def test_invalid_system_rejected(self):
        s = make_system([[0.0, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=2)
        with pytest.raises(ValueError, match="invalid system"):
            pa_to_mkp(s)

    def test_float_graph_holds_w_and_builds_weights_on_first_read(self):
        s = small_random_system(seed=51, k_users=5, tau=2)
        g = pa_to_mkp(s)
        assert g.matrix() is interference_matrix(s)
        assert "weights" not in vars(g)
        weights = g.weights
        assert g.weights is weights and list(weights) == list(itertools.combinations(range(5), 2))
        assert weights == {(i, j): interference_matrix(s)[i, j] for i, j in weights}
        with pytest.raises(AttributeError, match="no attribute '_matrix'"):
            WeightedGraph(2, 1, {(0, 1): 1.0}).matrix()  # a dict-built graph holds none

    def test_float_graph_is_immutable_and_equal_only_to_itself(self):
        s = small_random_system(seed=52, k_users=4, tau=2)
        for g in (pa_to_mkp(s), WeightedGraph(2, 1, {(0, 1): 1.0})):
            for name, value in (("weights", {}), ("k_parts", 1), ("_matrix", np.zeros((2, 2)))):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(g, name, value)
            with pytest.raises(AttributeError, match="no attribute 'edges'"):
                g.edges
        g = pa_to_mkp(s)
        assert g == g and g != pa_to_mkp(s) and graphs_equal(g, pa_to_mkp(s))

    def test_overflowed_weight_refused_by_graph_and_local_search(self):
        # (beta[1, 0] / beta[0, 0])**2 = 1e320 overflows: W[0, 1] is inf
        s = make_system([[1e-160, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=1)
        assert interference_matrix(s)[0, 1] == math.inf
        message = "^non-finite weight inf on edge \\(0, 1\\)$"
        with pytest.raises(ValueError, match=message):
            pa_to_mkp(s)
        with pytest.raises(ValueError, match=message):
            local_search_move(s, PilotAssignment((0, 0), 1))

    @pytest.mark.parametrize("bad, message", [
        (math.inf, "non-finite weight inf"),
        (math.nan, "non-finite weight nan"),
        (-1.0, "negative weight -1.0"),
    ])
    def test_matrix_path_refuses_what_the_dict_path_refuses(self, bad, message):
        w = np.zeros((3, 3))
        w[1, 2] = w[2, 1] = bad
        w.setflags(write=False)
        with pytest.raises(ValueError, match=f"^{message} on edge \\(1, 2\\)$"):
            WeightedGraph._of_matrix(w, 2)
        with pytest.raises(ValueError, match=f"^{message} on edge \\(1, 2\\)$"):
            WeightedGraph(3, 2, {(0, 1): 0.0, (1, 2): bad})


class TestMkpToPa:
    def test_two_vertex_weight_eight(self):
        s = mkp_to_pa(WeightedGraph(2, 2, {(0, 1): 8}))
        assert np.array_equal(s.beta, [[1.0, 2.0], [2.0, 1.0]])
        assert s.serving_sets == ((0,), (1,))
        assert s.tau_pilots == 2

    def test_unit_triangle_off_diagonal(self):
        s = mkp_to_pa(WeightedGraph(3, 3, TRIANGLE))
        off = math.sqrt(0.5)
        for i in range(3):
            for j in range(3):
                assert s.beta[i, j] == (1.0 if i == j else off)

    def test_output_passes_validation(self):
        for seed in range(5):
            s = mkp_to_pa(random_rational_graph(seed))
            assert validate_system(s).ok

    def test_dummy_ap_columns_are_zero(self):
        s = mkp_to_pa(WeightedGraph(2, 2, {(0, 1): 8}), n_dummy_aps=3)
        assert s.m_aps == 5
        assert np.all(s.beta[:, 2:] == 0.0)
        assert validate_system(s).ok

    def test_dummy_ap_count_is_an_integer(self):
        g = WeightedGraph(2, 2, {(0, 1): 8})
        with pytest.raises(ValueError, match=r"^n_dummy_aps 1\.5 is not an integer$"):
            mkp_to_pa(g, n_dummy_aps=1.5)
        assert mkp_to_pa(g, n_dummy_aps=np.int64(3)).m_aps == 5

    def test_dummy_aps_do_not_change_objective(self):
        g = random_rational_graph(9)
        a = random_feasible(mkp_to_pa(g), seed=1)
        plain = contamination_objective(mkp_to_pa(g), a)
        padded = contamination_objective(mkp_to_pa(g, n_dummy_aps=4), a)
        assert plain == padded

    def test_round_trip_exact(self):
        for seed in range(20):
            g = random_rational_graph(seed)
            back = pa_to_mkp(mkp_to_pa(g, exact=True), exact=True)
            assert graphs_equal(g, back)

    def test_round_trip_float_close(self):
        g = WeightedGraph(3, 2, {(0, 1): 1.25, (1, 2): 0.5})
        back = pa_to_mkp(mkp_to_pa(g))
        for key, w in g.weights.items():
            assert back.weights[key] == pytest.approx(w, rel=1e-12)


class TestSolutionMaps:
    def test_partition_to_assignment_identity(self):
        p = Partition((0, 0, 1), 2)
        assert mkp_solution_to_pa(p).pilot_of == (0, 0, 1)

    def test_assignment_to_partition_identity(self):
        a = PilotAssignment((0, 1, 0), 2)
        assert pa_solution_to_mkp(a).block_of == (0, 1, 0)

    def test_maps_are_inverse(self):
        a = PilotAssignment((2, 0, 1, 0), 3)
        assert mkp_solution_to_pa(pa_solution_to_mkp(a)) == a

    def test_empty_block_cannot_reach_assignment(self):
        with pytest.raises(InvalidPartitionError):
            mkp_solution_to_pa(Partition((0, 0), 2))

    def test_feasibility_preserved_both_ways(self):
        s = small_random_system(seed=51, k_users=6, tau=3)
        a = random_feasible(s, 2)
        p = pa_solution_to_mkp(a)
        assert p.n_blocks == a.n_pilots  # valid partition by construction
        assert mkp_solution_to_pa(p).n_pilots == a.n_pilots


class TestColoringToMkp:
    def test_triangle_three_colorable(self):
        g = coloring_to_mkp(3, TRIANGLE.keys(), 3)
        assert enumerate_partition_optimum(g) == 0

    def test_triangle_not_two_colorable(self):
        g = coloring_to_mkp(3, TRIANGLE.keys(), 2)
        assert enumerate_partition_optimum(g) == 1

    def test_five_cycle(self):
        assert enumerate_partition_optimum(coloring_to_mkp(5, C5.keys(), 2)) == 1
        assert enumerate_partition_optimum(coloring_to_mkp(5, C5.keys(), 3)) == 0

    def test_unit_weights(self):
        g = coloring_to_mkp(4, [(0, 1), (2, 3)], 2)
        assert all(w == 1 for w in g.weights.values())

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="simple graph"):
            coloring_to_mkp(3, [(0, 0)], 2)

    def test_non_integer_endpoint_rejected(self):
        # truncating the endpoint would build the edge (0, 1)
        with pytest.raises(ValueError, match="1.5"):
            coloring_to_mkp(3, [(0, 1.5)], 2)

    def test_edges_normalised_as_the_graph_does(self):
        g = coloring_to_mkp(3, [(2, 0), [0, 2], (np.int64(1), 2)], 2)
        assert g.weights == {(0, 2): 1, (1, 2): 1}


class TestVerifyMeasureEquality:
    def test_unit_pair_passes_with_value_two(self, unit_pair_system):
        rep = verify_measure_equality(unit_pair_system, PilotAssignment((0, 0), 1))
        assert rep.passed
        assert rep.m_pa == rep.m_mkp == 2.0

    def test_random_systems_pass_both_modes(self):
        for seed in range(15):
            s = small_random_system(seed, k_users=6, tau=2)
            for j in range(3):
                a = random_feasible(s, 100 * seed + j)
                assert verify_measure_equality(s, a).passed
                exact = verify_measure_equality(s, a, exact=True)
                assert exact.passed and exact.m_pa == exact.m_mkp

    def test_corrupted_weight_fails(self, unit_pair_system):
        good = pa_to_mkp(unit_pair_system)
        bad = WeightedGraph(2, 1, {(0, 1): good.weights[(0, 1)] + 0.5})
        rep = verify_measure_equality(
            unit_pair_system, PilotAssignment((0, 0), 1), graph=bad
        )
        assert not rep.passed
        assert rep.abs_diff == pytest.approx(0.5)

    @pytest.mark.parametrize("weight", [1e308, 10**308], ids=["float", "int"])
    def test_block_sum_beyond_float_range(self, weight):
        # Every edge fits a float, the block sum does not: rational mode
        # certifies it, float mode fails closed, neither raises.
        g = WeightedGraph(3, 1, {(0, 1): weight, (0, 2): weight, (1, 2): weight})
        a = PilotAssignment((0, 0, 0), 1)
        rep = verify_measure_equality(mkp_to_pa(g, exact=True), a, exact=True, graph=g)
        assert rep.passed and rep.m_pa == rep.m_mkp == 3 * Fraction(weight)
        assert rep.abs_diff == rep.rel_diff == 0.0
        assert not verify_measure_equality(mkp_to_pa(g), a, graph=g).passed
        # a difference beyond float range reports as inf
        zero = mkp_to_pa(WeightedGraph(3, 1, {}), exact=True)
        rep = verify_measure_equality(zero, a, exact=True, graph=g)
        assert not rep.passed and rep.abs_diff == math.inf and rep.rel_diff == 1.0

    def test_float_sum_beyond_float_range_warns_nothing(self):
        # The float objective overflows to inf without a numpy warning, and
        # float mode still fails closed on it.
        g = WeightedGraph(3, 1, {(0, 1): 1e308, (0, 2): 1e308, (1, 2): 1e308})
        s, a = mkp_to_pa(g), PilotAssignment((0, 0, 0), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert contamination_objective(s, a) == math.inf
            rep = verify_measure_equality(s, a, graph=g)
        assert not rep.passed and rep.m_pa == math.inf

    @pytest.mark.parametrize("pass_graph", [False, True])
    def test_float_total_beyond_float_range_reports_inf_not_nan(self, pass_graph):
        # both float totals overflow, and inf - inf is nan; then one side only
        g = WeightedGraph(3, 1, {(0, 1): 1e308, (1, 2): 1e308})
        s, a = mkp_to_pa(g), PilotAssignment((0, 0, 0), 1)
        for graph, m_mkp in ((g if pass_graph else None, math.inf), (WeightedGraph(3, 1, {}), 0)):
            rep = verify_measure_equality(s, a, graph=graph)
            assert rep.m_pa == math.inf and rep.m_mkp == m_mkp and rep.mode == "float"
            assert rep.abs_diff == rep.rel_diff == math.inf and not rep.passed

    def test_infeasible_assignment_rejected(self, unit_pair_system):
        with pytest.raises(InfeasibleAssignmentError):
            verify_measure_equality(unit_pair_system, PilotAssignment((0,), 1))

    @pytest.mark.parametrize("exact", [False, True])
    def test_invalid_system_refused_before_the_assignment(self, exact):
        # zero fading on a serving link, and an assignment of the wrong length
        s = make_system([[0.0, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=1)
        with pytest.raises(ValueError, match="invalid system"):
            verify_measure_equality(s, PilotAssignment((0, 0, 0), 1), exact=exact)


class TestChromaticAgreement:
    """Partition optimum 0 must match a backtracking colourability oracle."""

    @staticmethod
    def colorable(n, edges, k):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        colors = [-1] * n

        def bt(v):
            if v == n:
                return True
            used = {colors[u] for u in adj[v] if colors[u] >= 0}
            for c in range(k):
                if c not in used:
                    colors[v] = c
                    if bt(v + 1):
                        return True
                    colors[v] = -1
            return False

        return bt(0)

    def test_random_graphs(self):
        r = random.Random(7)
        for _ in range(30):
            n = r.randint(2, 7)
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if r.random() < 0.5
            ]
            for k in (2, 3):
                if k > n:
                    continue
                g = coloring_to_mkp(n, edges, k)
                zero_opt = enumerate_partition_optimum(g) == 0
                assert zero_opt == self.colorable(n, edges, k)


class TestGraphsEqual:
    def test_zero_weight_edges_equal_absent(self):
        g1 = WeightedGraph(3, 2, {(0, 1): 0.0, (1, 2): 1.0})
        g2 = WeightedGraph(3, 2, {(1, 2): 1.0})
        assert graphs_equal(g1, g2)

    def test_one_different_weight(self):
        g1 = WeightedGraph(3, 2, {(0, 1): 1, (1, 2): 2})
        g2 = WeightedGraph(3, 2, {(0, 1): 1, (1, 2): 3})
        assert not graphs_equal(g1, g2)

    def test_parts_checked(self):
        g1 = WeightedGraph(3, 2, {(0, 1): 1})
        g2 = WeightedGraph(3, 3, {(0, 1): 1})
        assert not graphs_equal(g1, g2)

    def test_numeric_types_compare_by_value(self):
        g1 = WeightedGraph(2, 2, {(0, 1): Fraction(3, 2)})
        g2 = WeightedGraph(2, 2, {(0, 1): 1.5})
        assert graphs_equal(g1, g2)
