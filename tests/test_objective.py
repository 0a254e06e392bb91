import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotkit import (
    PilotAssignment,
    brute_force_exact,
    contamination_objective,
    contamination_report,
    interference_matrix,
    pairwise_interference,
    uplink_rates,
)
from pilotkit.solvers import random_feasible

from conftest import make_system, small_random_system


def ordered_form_objective(s, a):
    """Independent oracle: the user-by-user one-sided triple sum."""
    total = 0.0
    for k in range(s.k_users):
        for k2 in range(s.k_users):
            if k2 == k or a.pilot_of[k2] != a.pilot_of[k]:
                continue
            for m in s.serving_sets[k]:
                total += (s.beta[k2, m] / s.beta[k, m]) ** 2
    return total


class TestPairwiseInterference:
    def test_unit_ratios(self, unit_pair_system):
        assert pairwise_interference(unit_pair_system, 0, 1) == 2.0

    def test_zero_cross_terms(self):
        s = make_system([[1.0, 0.0], [0.0, 1.0]], [(0,), (1,)], tau=1)
        assert pairwise_interference(s, 0, 1) == 0.0

    def test_hand_derived_asymmetric(self):
        # (beta[1,0]/beta[0,0])^2 + (beta[0,1]/beta[1,1])^2 = 4 + 4
        s = make_system([[1.0, 2.0], [2.0, 1.0]], [(0,), (1,)], tau=1)
        assert pairwise_interference(s, 0, 1) == 8.0

    def test_symmetric_in_arguments(self):
        s = small_random_system(seed=41, k_users=5)
        for i in range(5):
            for j in range(i + 1, 5):
                assert pairwise_interference(s, i, j) == pairwise_interference(s, j, i)

    def test_same_user_rejected(self, unit_pair_system):
        with pytest.raises(ValueError, match="distinct"):
            pairwise_interference(unit_pair_system, 1, 1)

    def test_exact_mode_matches_float(self):
        s = small_random_system(seed=42, k_users=4)
        w_float = pairwise_interference(s, 0, 1)
        w_exact = pairwise_interference(s, 0, 1, exact=True)
        assert isinstance(w_exact, Fraction)
        assert math.isclose(w_float, float(w_exact), rel_tol=1e-12)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "beta, serving",
        [([[0.0, 1.0], [1.0, 1.0]], [(0,), (1,)]), ([[1.0, 1.0], [1.0, 1.0]], [(0,), (2,)])],
        ids=["zero-serving-beta", "serving-ap-out-of-range"],
    )
    def test_invalid_system_refused(self, beta, serving, exact):
        # float mode indexes the memoised W and exact mode reads the memoised
        # integer rows; the first build of either validates
        s = make_system(beta, serving, tau=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="invalid system"):
                pairwise_interference(s, 0, 1, exact=exact)

    def test_overflowed_weight_is_inf_without_warning(self):
        # a valid system whose ratio 1 / 1e-160 squares beyond float range
        s = make_system([[1e-160, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=1)
        a = PilotAssignment((0, 0), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert interference_matrix(s).tolist() == [[0.0, math.inf], [math.inf, 0.0]]
            assert contamination_objective(s, a) == math.inf
            assert pairwise_interference(s, 0, 1) == math.inf
            rate0, rate1 = uplink_rates(s, a)
            assert rate0 == 0.0 and 0.0 < rate1 < math.inf  # user 0 drowns in inf
            with pytest.raises(ValueError, match="not finite"):
                brute_force_exact(s)


class TestContaminationObjective:
    def test_all_distinct_pilots_zero(self):
        s = make_system(np.ones((3, 3)), [(0,), (1,), (2,)], tau=3)
        a = PilotAssignment((0, 1, 2), 3)
        assert contamination_objective(s, a) == 0.0

    def test_single_shared_pair(self, unit_pair_system):
        a = PilotAssignment((0, 0), 1)
        assert contamination_objective(unit_pair_system, a) == 2.0

    def test_three_users_one_pair_counts(self):
        beta = [[1.0, 2.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
        s = make_system(beta, [(0,), (1,), (2,)], tau=2)
        a = PilotAssignment((0, 0, 1), 2)
        # brute-force sum over co-pilot pairs: only {0, 1} shares a pilot
        expected = pairwise_interference(s, 0, 1)
        assert contamination_objective(s, a) == expected == 8.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_exchange_identity(self, seed):
        # unordered-pair form equals the ordered one-sided triple sum
        s = small_random_system(seed % 25, k_users=6, tau=2)
        a = random_feasible(s, seed)
        pairwise_total = contamination_objective(s, a)
        ordered_total = ordered_form_objective(s, a)
        assert pairwise_total == pytest.approx(ordered_total, rel=1e-9)

    @given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_label_invariance(self, seed, perm_seed):
        import itertools

        s = small_random_system(seed % 20, k_users=6, tau=3)
        a = random_feasible(s, seed)
        perm = list(itertools.permutations(range(3)))[perm_seed]
        b = PilotAssignment(tuple(perm[p] for p in a.pilot_of), 3)
        assert contamination_objective(s, a) == pytest.approx(
            contamination_objective(s, b), rel=1e-12
        )

    def test_monotone_refinement(self):
        # splitting one pilot group onto a fresh pilot only removes co-pilot
        # pairs, so the cost never grows (the split needs one extra pilot)
        for seed in range(10):
            s = small_random_system(seed + 70, k_users=6, tau=2)
            wider = dataclasses.replace(s, tau_pilots=3)
            merged = PilotAssignment((0, 0, 0, 0, 0, 1), 2)
            r = random.Random(seed)
            group = [k for k in range(6) if merged.pilot_of[k] == 0]
            carved = r.sample(group, r.randint(1, len(group) - 1))
            labels = list(merged.pilot_of)
            for k in carved:
                labels[k] = 2
            split = PilotAssignment(tuple(labels), 3)
            assert contamination_objective(wider, split) <= contamination_objective(
                s, merged
            )

    def test_nonnegative(self):
        for seed in range(10):
            s = small_random_system(seed, k_users=5, tau=2)
            a = random_feasible(s, seed)
            assert contamination_objective(s, a) >= 0.0

    def test_empty_co_pilot_set_keeps_the_mode_type(self):
        s = make_system(np.ones((3, 3)), [(0,), (1,), (2,)], tau=3)
        a = PilotAssignment((0, 1, 2), 3)
        value, exact = contamination_objective(s, a), contamination_objective(s, a, exact=True)
        assert type(value) is float and value == 0.0
        assert type(exact) is Fraction and exact == 0

    def test_exact_mode_equals_float_on_reduced(self):
        s = make_system([[1.0, 2.0], [2.0, 1.0]], [(0,), (1,)], tau=1)
        a = PilotAssignment((0, 0), 1)
        assert contamination_objective(s, a, exact=True) == Fraction(8)


class TestContaminationReport:
    def test_totals_and_per_user(self):
        s = small_random_system(seed=44, k_users=6, tau=2)
        a = random_feasible(s, 3)
        rep = contamination_report(s, a)
        assert rep.total == pytest.approx(sum(rep.per_pair.values()), rel=1e-12)
        assert rep.total == pytest.approx(sum(rep.per_user) / 2, rel=1e-9)
        assert rep.total == pytest.approx(contamination_objective(s, a), rel=1e-12)

    def test_pairs_are_co_pilot_only(self):
        s = small_random_system(seed=45, k_users=5, tau=2)
        a = random_feasible(s, 4)
        rep = contamination_report(s, a)
        for (i, j) in rep.per_pair:
            assert i < j
            assert a.pilot_of[i] == a.pilot_of[j]

    def test_csv_shape(self, unit_pair_system):
        rep = contamination_report(unit_pair_system, PilotAssignment((0, 0), 1))
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "pair_i,pair_j,weight"
        assert lines[1] == "0,1,2.0"
        assert lines[-1] == "total,,2.0"
