import argparse
import dataclasses
import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from pilotkit import (
    BudgetExceededError,
    GenerationConfig,
    Partition,
    PilotAssignment,
    SolveReport,
    WeightedGraph,
    brute_force_exact,
    brute_force_partition,
    coloring_to_mkp,
    contamination_objective,
    count_surjective_assignments,
    decide,
    generate_system,
    greedy_feasible,
    greedy_worst_user,
    interference_matrix,
    interference_pairs,
    local_search_move,
    mkp_objective,
    mkp_to_pa,
    pa_to_mkp,
    random_feasible,
    system_throughput,
    uplink_rate,
)
from pilotkit import solvers
from pilotkit.cli import SOLVERS
from pilotkit.solvers import DEFAULT_BUDGET

import reference
from conftest import flat_system, make_system, small_random_system

TRIANGLE_EDGES = [(0, 1), (0, 2), (1, 2)]


def near_tie_system(payload=False):
    """One AP and tau = 2: the float W ranks (0, 0, 1, 1) first, while the
    exact W of the same beta ranks (0, 1, 0, 1) 4.1e-24 lower."""
    beta = [[1.0], [1 + 3 * 2.0**-52], [1 + 2.0**-52], [1 + 5 * 2.0**-32]]
    s = make_system(beta, [(0,)] * 4, tau=2)
    if payload:  # the exact squares of the same beta
        s = dataclasses.replace(s, beta_sq_exact=[[Fraction(b) ** 2 for b in row] for row in beta])
    return s


class TestCounting:
    @pytest.mark.parametrize(
        "k,tau,expected", [(3, 2, 6), (5, 2, 30), (6, 3, 540), (4, 4, 24), (5, 1, 1)]
    )
    def test_inclusion_exclusion(self, k, tau, expected):
        assert count_surjective_assignments(k, tau) == expected

    def test_matches_power_formula_for_two_pilots(self):
        for k in range(2, 12):
            assert count_surjective_assignments(k, 2) == 2**k - 2


class TestBruteForce:
    def test_visits_every_surjection(self):
        report = brute_force_exact(flat_system(5, 2))
        assert report.iterations == 30
        report = brute_force_exact(flat_system(6, 3))
        assert report.iterations == 540

    def test_budget_refusal_reports_count(self):
        s = flat_system(25, 2)
        with pytest.raises(BudgetExceededError, match=str(2**25 - 2)):
            brute_force_exact(s)
        # a raised budget lets the same instance through
        assert brute_force_exact(flat_system(12, 2), budget=2**12).iterations == 2**12 - 2

    @pytest.mark.parametrize("budget", [math.nan, None, 2.5])
    def test_budget_must_be_an_integer(self, budget):
        # nan compared below every count and enumerated without limit
        s = flat_system(6, 2)
        g = coloring_to_mkp(6, [(0, 1)], 2)
        for solve in (
            lambda: brute_force_exact(s, budget=budget),
            lambda: brute_force_partition(g, budget=budget),
            lambda: decide(s, 1, budget=budget),
        ):
            with pytest.raises(ValueError, match="budget .* is not an integer"):
                solve()
        with pytest.raises(BudgetExceededError):
            brute_force_exact(s, budget=-1)

    def test_separating_pair_is_optimal(self):
        s = make_system(np.ones((2, 2)), [(0,), (1,)], tau=2)
        report = brute_force_exact(s)
        assert report.assignment.pilot_of == (0, 1)
        assert report.objective == 0.0
        assert report.optimality_certificate == "exact"

    def test_triangle_reduction_optimum_one(self):
        s = mkp_to_pa(coloring_to_mkp(3, TRIANGLE_EDGES, 2), exact=True)
        report = brute_force_exact(s, exact=True)
        assert report.objective == Fraction(1)
        assert report.iterations == 6

    def test_lexicographic_tie_break(self):
        # all assignments tie, so the first surjective counter value wins
        report = brute_force_exact(flat_system(3, 2))
        assert report.assignment.pilot_of == (0, 0, 1)

    def test_objective_matches_recomputation(self):
        s = small_random_system(seed=60, k_users=6, tau=2)
        report = brute_force_exact(s)
        assert report.objective == contamination_objective(s, report.assignment)

    def test_invalid_system_refused(self):
        # a zero coefficient on a serving link would make every weight of
        # user 0 infinite; nothing may be certified for such a system
        s = make_system([[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [(0,), (1,), (1,)], tau=2)
        with pytest.raises(ValueError, match="invalid system.*beta\\[0, 0\\]"):
            brute_force_exact(s)

    def test_overflowed_optimum_refused(self):
        # every pair weight is finite, but their float sums are not
        g = WeightedGraph(3, 1, {(0, 1): 1e308, (1, 2): 1e308, (0, 2): 1e308})
        with pytest.raises(ValueError, match="not finite"):
            brute_force_exact(mkp_to_pa(g))
        # rational mode sums the same weights exactly
        assert brute_force_exact(mkp_to_pa(g, exact=True), exact=True).objective == 3 * Fraction(1e308)

    @pytest.mark.parametrize("payload", [False, True])
    def test_near_tie_gets_the_exact_optimum_in_both_modes(self, payload):
        s = near_tie_system(payload)
        want = PilotAssignment((0, 1, 0, 1), 2)
        for exact in (False, True):
            assert brute_force_exact(s, exact=exact).assignment == want
        other = contamination_objective(s, PilotAssignment((0, 0, 1, 1), 2), exact=True)
        assert 0 < other - contamination_objective(s, want, exact=True) < Fraction(1, 10**23)

    def test_payload_not_beta_gives_the_exact_w(self):
        # beta**2 is 2**-1074 for user 0 and 2**-1072 for the others, and the
        # payload 2**-1072 for all, within validation's 2**-1072 absolute
        # slack: the float W charges user 0's pairs 4.25, the exact W 2
        beta = [[2.0**-537], [2.0**-536], [2.0**-536], [2.0**-536]]
        s = dataclasses.replace(
            make_system(beta, [(0,)] * 4, tau=2), beta_sq_exact=[[Fraction(1, 2**1072)]] * 4
        )
        for exact in (False, True):
            assert brute_force_exact(s, exact=exact).assignment.pilot_of == (0, 0, 1, 1)

    def test_labels_do_not_depend_on_the_mode(self):
        systems = [flat_system(6, 3), near_tie_system(), near_tie_system(payload=True)]
        systems += [small_random_system(seed, k_users=7, tau=tau) for seed in range(4) for tau in (2, 3)]
        for s in systems:
            float_report, exact_report = brute_force_exact(s), brute_force_exact(s, exact=True)
            assert float_report.assignment == exact_report.assignment
            assert type(exact_report.objective) is Fraction

    def test_no_assignment_beats_reported_optimum(self):
        import itertools

        s = small_random_system(seed=61, k_users=5, tau=2)
        report = brute_force_exact(s)
        for cand in itertools.product(range(2), repeat=5):
            if len(set(cand)) != 2:
                continue
            value = contamination_objective(s, PilotAssignment(cand, 2))
            assert value >= report.objective - 1e-12


class TestBruteForcePartition:
    def test_triangle(self):
        g = coloring_to_mkp(3, TRIANGLE_EDGES, 2)
        report = brute_force_partition(g)
        assert report.objective == Fraction(1)
        assert report.iterations == 6

    def test_agrees_with_pa_optimum(self):
        for seed in range(8):
            for tau in (2, 3):
                s = small_random_system(seed, k_users=6, tau=tau)
                pa_opt = brute_force_exact(s).objective
                mkp_opt = brute_force_partition(pa_to_mkp(s)).objective
                assert mkp_opt == pytest.approx(pa_opt, rel=1e-12)

    def test_overflowed_optimum_refused(self):
        g = WeightedGraph(3, 1, {(0, 1): 1e308, (1, 2): 1e308, (0, 2): 1e308})
        with pytest.raises(ValueError, match="not finite"):
            brute_force_partition(g)
        # a finite optimum still stands when other labelings overflow
        g2 = WeightedGraph(3, 2, g.weights)
        assert brute_force_partition(g2).objective == 1e308

    def test_dyadic_near_tie_of_five_vertices(self):
        # the float totals rank (0, 0, 1, 1, 1) first, at 0.5 + 2**-52; it
        # sums exactly to 0.5 + 6 * 2**-54, and (0, 1, 0, 1, 0) to 0.5 + 5 * 2**-54
        e = 2.0**-54
        g = WeightedGraph(5, 2, {
            (0, 1): 0.5, (0, 2): 0.0, (0, 3): e, (0, 4): 0.5, (1, 2): 0.5,
            (1, 3): 3 * e, (1, 4): 1.0, (2, 3): e, (2, 4): 2 * e, (3, 4): 3 * e,
        })
        report = brute_force_partition(g)
        assert report.assignment.pilot_of == (0, 1, 0, 1, 0)
        # its float total, 0.5 + 3 * 2**-54 rounded up to 0.5 + 4 * 2**-54, then 2 * 2**-54 more
        assert report.objective == 0.5 + 6 * e

    def test_float_tie_broken_by_the_exact_sums(self):
        # (0, 0, 1, 1) and (0, 1, 0, 1) both total 1.0 in floats; only the
        # second is exactly 1
        g = WeightedGraph(4, 2, {
            (0, 1): 1.0, (0, 2): 1.0, (0, 3): 5.0, (1, 2): 5.0, (1, 3): 0.0, (2, 3): 2.0**-60,
        })
        assert brute_force_partition(g).assignment.pilot_of == (0, 1, 0, 1)

    def test_rounding_accumulated_over_many_pairs(self):
        # (0, 0, 0, 1, 1, 0, 1) adds seven 2**-54 weights after a 0.5 and
        # rounds each away: its float total is 0.5, three units in the last
        # place below (0, 1, 1, 0, 1, 0, 1)'s 0.5 + 6 * 2**-54, and its exact
        # sum is 2**-54 above it
        e = 2.0**-54
        weights = {
            (0, 1): e, (0, 2): 0.5, (0, 3): e, (0, 4): 2 * e, (0, 5): e, (0, 6): 0.5,
            (1, 2): e, (1, 3): 0.5, (1, 5): e, (1, 6): e, (2, 3): 0.5, (2, 4): 2 * e,
            (2, 5): e, (2, 6): 0.5, (3, 4): e, (3, 6): e, (4, 5): 0.5, (5, 6): 2 * e,
        }
        report = brute_force_partition(WeightedGraph(7, 2, weights))
        assert report.assignment.pilot_of == (0, 1, 1, 0, 1, 0, 1)
        assert report.objective == 0.5 + 6 * e

    def test_weights_beyond_float_range_fall_back_to_exact_sums(self):
        # every weight rounds to inf, so every float total is inf and all
        # partitions go to the exact decision: (0, 0, 1, 1) is one more
        # than the two tied optima, of which (0, 1, 0, 1) comes first
        big = 10**400
        g = WeightedGraph(4, 2, {e: big for e in itertools.combinations(range(4), 2)} | {(0, 1): big + 1})
        report = brute_force_partition(g)
        assert report.assignment.pilot_of == (0, 1, 0, 1)
        assert type(report.objective) is Fraction and report.objective == 2 * big
        # a finite optimum beside totals that overflow
        g2 = WeightedGraph(4, 2, {(0, 1): big, (2, 3): big, (0, 2): 1})
        assert brute_force_partition(g2).assignment.pilot_of == (0, 1, 1, 0)
        # with a float weight the objective is a float sum, and it overflows
        with pytest.raises(ValueError, match="not finite"):
            brute_force_partition(WeightedGraph(4, 2, {**g.weights, (2, 3): 0.5}))

    def test_numpy_integer_weights_sum_exactly(self):
        big = np.int64(2**62)
        g = WeightedGraph(3, 1, {(0, 1): big, (0, 2): big, (1, 2): big})
        assert all(type(w) is int for w in g.weights.values())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no fixed-width overflow
            value = mkp_objective(g, Partition((0, 0, 0), 1))
            report = brute_force_partition(g)
        assert type(value) is int and value == 3 * 2**62
        assert type(report.objective) is Fraction and report.objective == 3 * 2**62
        assert report.optimality_certificate == "exact"

    def test_numpy_float_weights_sum_as_floats(self):
        parts = [np.float32(0.2), np.float32(0.1), np.float16(0.3)]
        g = WeightedGraph(3, 1, dict(zip(TRIANGLE_EDGES, parts)))
        assert all(type(w) is float for w in g.weights.values())
        want = float(parts[0]) + float(parts[1]) + float(parts[2])
        value = mkp_objective(g, Partition((0, 0, 0), 1))
        report = brute_force_partition(g)
        assert type(value) is float and value.hex() == want.hex()
        assert type(report.objective) is float and report.objective.hex() == want.hex()

    def test_budget_refusal(self):
        g = coloring_to_mkp(25, [(0, 1)], 2)
        with pytest.raises(BudgetExceededError):
            brute_force_partition(g, budget=1000)


class TestFloatWeightBound:
    """Every entry w' of the float W is within rel * w' + rel * 2**-1018 of
    the exact W of the same beta, ``interference_pairs(s, exact=True)``
    (which is ``reference.interference_exact``), rel being ``_w_error``'s, and an entry that overflowed has an exact one
    within rel of the float overflow threshold 2**1024 - 2**970 or above it."""

    @staticmethod
    def assert_within_bound(s):
        w = interference_matrix(s)
        ref = reference.interference_exact(s)
        rel = solvers._w_error(s)
        tiny = Fraction(rel) / 2**1018
        for k, j, exact in interference_pairs(s, exact=True):
            assert exact == ref[k, j]
            got = float(w[k, j])
            if got == math.inf:
                assert exact * (1 + Fraction(rel)) >= 2**1024 - 2**970
            else:
                assert abs(Fraction(got) - exact) <= Fraction(rel) * Fraction(got) + tiny

    @pytest.mark.parametrize("rule", ["energy:0.95", "top:4", "top:40"])
    def test_generated_systems(self, rule):
        for seed in range(3):
            self.assert_within_bound(small_random_system(seed, m_aps=40, k_users=10, tau=3, rule=rule))

    @pytest.mark.parametrize("low2", [-500, -540, -560, -1000])
    def test_fading_across_many_scales(self, low2):
        # beta from 2**low2 to 1, log-uniform: ratios and squares underflow
        # to subnormals or zero, or overflow, on many entries
        rng = np.random.default_rng(-low2)
        for _ in range(8):
            beta = 2.0 ** rng.uniform(low2, 0, (6, 12))
            serving = [rng.choice(12, rng.integers(1, 13), replace=False) for _ in range(6)]
            self.assert_within_bound(make_system(beta, serving, tau=2))

    def test_ratios_near_the_underflow_threshold(self):
        # each user's own two APs have beta 1 and the others' about 2**-537,
        # so every squared ratio, and every entry of W, is a few 2**-1074
        for seed in range(3):
            rng = np.random.default_rng(seed)
            beta = 2.0 ** rng.uniform(-538, -536, (4, 8))
            for k in range(4):
                beta[k, 2 * k:2 * k + 2] = 1.0
            s = make_system(beta, [(2 * k, 2 * k + 1) for k in range(4)], tau=2)
            assert 0 < interference_matrix(s)[0, 1] < 2.0**-1022
            self.assert_within_bound(s)


class TestDecide:
    def test_triangle_thresholds(self):
        s = mkp_to_pa(coloring_to_mkp(3, TRIANGLE_EDGES, 2), exact=True)
        assert decide(s, 0) is False
        assert decide(s, Fraction(1, 2)) is False
        assert decide(s, 1) is True

    def test_colorable_graph_reaches_zero(self):
        c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        s = mkp_to_pa(coloring_to_mkp(5, c5, 3), exact=True)
        assert decide(s, 0) is True

    @pytest.mark.parametrize("payload", [False, True])
    def test_near_tie_decided_exactly(self, payload):
        s = near_tie_system(payload)
        optimum = contamination_objective(s, PilotAssignment((0, 1, 0, 1), 2), exact=True)
        below = float(optimum)
        if below >= optimum:
            below = math.nextafter(below, 0.0)
        assert decide(s, optimum) is True
        assert decide(s, below) is False

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            decide(flat_system(3, 2), -1)

    def test_nan_threshold_rejected(self):
        # every comparison with nan is False, so it decided False
        with pytest.raises(ValueError, match="nonnegative"):
            decide(flat_system(3, 2), math.nan)


class TestSurjectionBlocks:
    def test_first_block_of_many_labels_in_bounded_memory(self):
        # 12!/3! heads: the heads are grown a chunk at a time, never all at once
        tracemalloc.start()
        try:
            first = next(solvers._surjection_blocks(12, 12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.shape[0] == 12 and 1 <= first.shape[1] < 2 * solvers._BLOCK
        perms = itertools.islice(itertools.permutations(range(12)), first.shape[1])
        assert np.array_equal(first, np.array(list(perms), np.int8).T)
        assert peak < 4e6

    def test_full_enumeration_in_bounded_memory(self):
        tracemalloc.start()
        try:
            count = sum(b.shape[1] for b in solvers._surjection_blocks(20, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2**20 - 2
        assert peak < 8e6

    def test_first_block_of_seventy_labels(self):
        # a used-label set held as an int64 bit mask would overflow at 64 labels
        first = next(solvers._surjection_blocks(70, 70))
        assert 1 <= first.shape[1] < 2 * solvers._BLOCK
        perms = itertools.islice(itertools.permutations(range(70)), first.shape[1])
        assert np.array_equal(first, np.array(list(perms), np.int8).T)

    def test_one_label_on_seventy_items(self):
        # every 1**t tail fits a block, but the tail table takes one numpy
        # axis per item, and numpy allows 32 or 64
        assert [b.tolist() for b in solvers._surjection_blocks(70, 1)] == [[[0]] * 70]
        report = brute_force_exact(flat_system(70, 1))
        assert report.assignment.pilot_of == (0,) * 70
        assert report.iterations == 1
        assert brute_force_partition(coloring_to_mkp(70, [(0, 1)], 1)).iterations == 1


class TestGreedyFeasible:
    def test_deterministic_form(self):
        assert greedy_feasible(flat_system(5, 3)).pilot_of == (0, 1, 2, 2, 2)

    def test_k_equals_tau(self):
        assert greedy_feasible(flat_system(4, 4)).pilot_of == (0, 1, 2, 3)

    def test_single_pilot(self):
        assert greedy_feasible(flat_system(4, 1)).pilot_of == (0, 0, 0, 0)

    def test_too_many_pilots(self):
        s = make_system(np.ones((2, 1)), [(0,), (0,)], tau=3)
        with pytest.raises(ValueError, match="exceeds user count"):
            greedy_feasible(s)

    def test_invalid_system_is_refused(self):
        s = make_system([[-1.0, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=2)
        with pytest.raises(ValueError, match="^invalid system: "):
            greedy_feasible(s)


class TestRandomFeasible:
    def test_invalid_system_is_refused(self):
        s = make_system([[-1.0, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=2)
        with pytest.raises(ValueError, match="^invalid system: "):
            random_feasible(s, 0)

    def test_deterministic_per_seed(self):
        s = flat_system(6, 3)
        assert random_feasible(s, 9).pilot_of == random_feasible(s, 9).pilot_of

    def test_always_surjective(self):
        s = flat_system(6, 3)
        for seed in range(50):
            a = random_feasible(s, seed)
            assert set(a.pilot_of) == {0, 1, 2}

    def test_uniform_over_surjections(self):
        # K=3, tau=2: 6 surjective assignments; 1e4 draws, band = 1/6 +- 3 sigma
        s = flat_system(3, 2)
        counts = {}
        for seed in range(10_000):
            key = random_feasible(s, seed).pilot_of
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for key, c in counts.items():
            assert 1554 < c < 1779, (key, c)

    def test_returns_when_tau_equals_k(self):
        # 30!/30**30 ~ 1e-12 of the labelings are surjective: rejection
        # alone never ends here.
        s = generate_system(GenerationConfig(seed=1), 40, 30, 30)
        assert sorted(random_feasible(s, 7).pilot_of) == list(range(30))

    def test_draws_within_the_rejection_limit_are_unchanged(self):
        for k, tau in [(10, 3), (8, 5), (6, 6)]:
            s = flat_system(k, tau)
            for seed in range(100):
                ref = reference.random_feasible(k, tau, seed, draws=64)
                if ref is not None:
                    assert random_feasible(s, seed).pilot_of == ref

    def test_uniform_with_exact_fallback(self):
        # K = tau = 6: 720 surjections, 720/6**6 of the labelings, so 64
        # draws all fail about 37% of the time and the exact sampler takes
        # over. Both the fallback draws alone and all draws must spread
        # evenly: a chi-square statistic over 720 cells stays near its 719
        # degrees of freedom (standard deviation about 40).
        s = flat_system(6, 6)
        every, fallback = Counter(), Counter()
        for seed in range(720 * 15):
            pilots = random_feasible(s, seed).pilot_of
            every[pilots] += 1
            if reference.random_feasible(6, 6, seed, draws=64) is None:
                fallback[pilots] += 1
        assert len(every) == 720
        assert 0.3 < fallback.total() / every.total() < 0.45
        for counts in (every, fallback):
            assert chi_square(counts, itertools.permutations(range(6))) < 900

    def test_exact_sampler_alone_is_uniform(self):
        # With no rejection draws every call samples exactly. K=5, tau=3
        # (150 surjections, 149 degrees of freedom, standard deviation
        # about 17) is where a sampler blind to completion counts, picking
        # evenly among the viable pilots, would be skewed.
        s = flat_system(5, 3)
        with mock.patch.object(solvers, "_REJECTION_DRAWS", 0):
            counts = Counter(random_feasible(s, seed).pilot_of for seed in range(150 * 40))
        cells = [c for c in itertools.product(range(3), repeat=5) if len(set(c)) == 3]
        assert len(counts) == 150
        assert chi_square(counts, cells) < 250


def chi_square(counts, cells):
    """Pearson's statistic of the counts against an even spread over cells."""
    cells = list(cells)
    expected = counts.total() / len(cells)
    return sum((counts[c] - expected) ** 2 / expected for c in cells)


def coupled_pair_system():
    """Users 0 and 1 interfere strongly; user 2 is orthogonal to both."""
    beta = [[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]]
    gamma = [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]
    return make_system(beta, [(0,), (1,), (2,)], tau=2, gamma=gamma)


class TestGreedyWorstUser:
    def test_separates_coupled_pair(self):
        s = coupled_pair_system()
        init = PilotAssignment((0, 0, 1), 2)
        report = greedy_worst_user(s, init)
        assert report.iterations == 1
        assert report.assignment.pilot_of[0] != report.assignment.pilot_of[1]

    def test_fixpoint_accepts_nothing(self):
        s = coupled_pair_system()
        separated = greedy_worst_user(s, PilotAssignment((0, 0, 1), 2)).assignment
        again = greedy_worst_user(s, separated)
        assert again.iterations == 0
        assert again.assignment == separated

    def test_worst_rate_never_drops(self):
        for seed in range(15):
            s = small_random_system(seed, k_users=6, tau=2)
            init = random_feasible(s, seed)
            report = greedy_worst_user(s, init)
            init_worst = min(uplink_rate(s, init, k) for k in range(6))
            out_worst = min(uplink_rate(s, report.assignment, k) for k in range(6))
            assert out_worst >= init_worst - 1e-15

    def test_objective_matches_recomputation(self):
        s = small_random_system(seed=62, k_users=5, tau=2)
        report = greedy_worst_user(s, random_feasible(s, 1))
        assert report.objective == contamination_objective(s, report.assignment)

    def test_max_rounds_caps_moves(self):
        s = small_random_system(seed=63, k_users=8, tau=2)
        report = greedy_worst_user(s, random_feasible(s, 1), max_rounds=0)
        assert report.iterations == 0


class TestLocalSearch:
    def test_never_worse_than_init(self):
        for seed in range(15):
            s = small_random_system(seed, k_users=7, tau=2)
            init = random_feasible(s, seed)
            report = local_search_move(s, init)
            assert report.objective <= contamination_objective(s, init) + 1e-12

    def test_zero_weight_graph_converges_immediately(self):
        s = make_system(np.eye(4), [(0,), (1,), (2,), (3,)], tau=2)
        report = local_search_move(s, PilotAssignment((0, 0, 1, 1), 2))
        assert report.iterations == 0
        assert report.objective == 0.0

    def test_local_optimum_is_single_move_stable(self):
        s = small_random_system(seed=64, k_users=6, tau=2)
        report = local_search_move(s, random_feasible(s, 5))
        final = report.objective
        labels = list(report.assignment.pilot_of)
        group = {p: labels.count(p) for p in range(2)}
        for k in range(6):
            if group[labels[k]] < 2:
                continue
            for p in range(2):
                if p == labels[k]:
                    continue
                cand = list(labels)
                cand[k] = p
                value = contamination_objective(s, PilotAssignment(tuple(cand), 2))
                assert value >= final - 1e-12

    def test_gap_to_optimum_reported(self, capsys):
        hits = 0
        total = 20
        for seed in range(total):
            s = small_random_system(seed, k_users=7, tau=2)
            init = random_feasible(s, seed)
            found = local_search_move(s, init).objective
            optimum = brute_force_exact(s).objective
            assert found >= optimum - 1e-9  # oracle dominance
            if found <= optimum + 1e-9 * max(1.0, optimum):
                hits += 1
        print(f"\nlocal search hit the optimum on {hits}/{total} instances")

    def test_objective_matches_recomputation(self):
        s = small_random_system(seed=65, k_users=6, tau=3)
        report = local_search_move(s, random_feasible(s, 2))
        assert report.objective == contamination_objective(s, report.assignment)

    def test_max_iters_zero_returns_init(self):
        s = small_random_system(seed=66, k_users=6, tau=2)
        init = random_feasible(s, 3)
        report = local_search_move(s, init, max_iters=0)
        assert report.assignment == init


class TestLocalSearchGuard:
    def test_guard_fires_on_a_move_the_objective_cannot_show(self):
        # From pilots {0, 1, 3, 4} and {2}, moving user 4 away saves 0.5.
        # Then moving user 3 changes the objective by 1e-20 - 3e-20, a
        # negative delta, but the objective is 1 plus tiny terms, the same
        # float before and after: the float guard stops the search there.
        weights = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 2.0, (0, 4): 0.5, (0, 3): 3e-20, (2, 3): 1e-20}
        s = mkp_to_pa(WeightedGraph(5, 2, weights))
        init = PilotAssignment((0, 0, 1, 0, 0), 2)
        with mock.patch.object(solvers, "co_pilot_sum", side_effect=solvers.co_pilot_sum) as spy:
            report = local_search_move(s, init)
        assert report.assignment.pilot_of == (0, 0, 1, 0, 1)
        assert report.iterations == 1
        # the stopping move: negative gain, yet not lower when re-summed
        w = pa_to_mkp(s).matrix()
        assert w[3, 2] - w[3, 0] - w[3, 1] - w[3, 4] < 0
        moved = PilotAssignment((0, 0, 1, 1, 1), 2)
        assert contamination_objective(s, moved) == report.objective
        # one sum to start; the guard re-sums the current and the trial labels
        assert spy.call_count == 3
        labels, moves, objective = reference.local_search_move(s, init)
        assert (report.assignment, report.iterations, report.objective) == (labels, moves, objective)

    @pytest.mark.parametrize("shape", [(50, 100, 5), (100, 200, 8), (200, 400, 10)])
    def test_objective_summed_once_on_generated_systems(self, shape):
        k, m, tau = shape
        for seed in (1, 2):
            s = generate_system(GenerationConfig(seed=seed), m, k, tau)
            with mock.patch.object(solvers, "co_pilot_sum", side_effect=solvers.co_pilot_sum) as spy:
                report = local_search_move(s, random_feasible(s, seed))
            assert report.iterations > 0
            assert spy.call_count == 1

    def test_overflowed_gains_stop_the_search_silently(self):
        # every gain of user 0 overflows: its change is nan, which is not < 0
        weights = {(0, 1): 1e308, (0, 2): 1e308, (0, 3): 1e308, (1, 2): 1e308, (1, 3): 1e308}
        s = mkp_to_pa(WeightedGraph(4, 2, {**weights, (2, 3): 1.0}))
        init = PilotAssignment((0, 0, 0, 1), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = local_search_move(s, init)
        assert report.assignment == init and report.iterations == 0
        assert report.objective == math.inf


class TestReportContract:
    """Every report is scored by recomputation on its own assignment."""

    @pytest.mark.parametrize("k_users, tau", [(6, 2), (6, 3), (10, 2), (10, 3)])
    def test_objective_and_throughput_recompute(self, k_users, tau):
        args = argparse.Namespace(budget=DEFAULT_BUDGET, max_rounds=100, max_iters=10_000)
        for seed in range(2):
            s = small_random_system(seed, m_aps=2 * k_users, k_users=k_users, tau=tau)
            reports = [(solve(s, seed, args), False) for solve in SOLVERS.values()]
            reports.append((brute_force_exact(s, exact=True), True))
            for report, exact in reports:
                objective = contamination_objective(s, report.assignment, exact=exact)
                assert report.objective == objective
                assert type(report.objective) is type(objective)
                assert report.throughput == system_throughput(s, report.assignment)

    def test_partition_report(self):
        for seed in range(3):
            g = pa_to_mkp(small_random_system(seed, k_users=6, tau=3))
            report = brute_force_partition(g)
            assert isinstance(report, SolveReport) and report.throughput is None
            p = Partition(report.assignment.pilot_of, g.k_parts)
            assert report.objective == mkp_objective(g, p)
