import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotkit import (
    CfMmimoSystem,
    GenerationConfig,
    InfeasibleAssignmentError,
    PilotAssignment,
    WeightedGraph,
    contamination_objective,
    generate_system,
    greedy_feasible,
    greedy_worst_user,
    interference_matrix,
    interference_pairs,
    local_search_move,
    mkp_to_pa,
    pa_to_mkp,
    brute_force_exact,
    decide,
    system_throughput,
    uplink_rate,
    uplink_rates,
    validate_system,
)
from pilotkit import objective
from pilotkit.fileio import format_instance
from pilotkit.solvers import random_feasible
from pilotkit.system_model import _gamma_from_beta, _over_common_denominator

import reference
from conftest import count_validations, make_system, small_random_system

# Hand-derived rate of the symmetric two-user system sharing a pilot:
# SINR = (1/4) / (1/4 + 1 + 1/2) = 1/7, prelog (1 - 2/10)/2 = 0.4.
RATE_EXAMPLE = 0.4 * math.log2(8 / 7)


class TestPilotAssignment:
    def test_surjective_ok(self):
        a = PilotAssignment((0, 1, 0), 2)
        assert a.n_users == 3 and a.n_pilots == 2

    def test_missing_pilot_rejected(self):
        with pytest.raises(InfeasibleAssignmentError, match="not surjective"):
            PilotAssignment((0, 0, 0), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(InfeasibleAssignmentError, match="out of range"):
            PilotAssignment((0, 2), 2)

    def test_first_out_of_range_pilot_named(self):
        for pilots in [(0, 1, 7, -1, 9), (0, -1, 1, 7)]:
            with pytest.raises(InfeasibleAssignmentError) as exc:
                PilotAssignment(pilots, 3)
            bad = next(p for p in pilots if not 0 <= p < 3)
            assert str(exc.value) == f"pilot index {bad} out of range [0, 3)"

    def test_numpy_integers_become_ints(self):
        a = PilotAssignment(np.array([0, 2, 1, 1], dtype=np.int64), 3)
        assert a.pilot_of == (0, 2, 1, 1)
        assert [type(p) for p in a.pilot_of] == [int] * 4

    def test_huge_pilot_count_fails_at_once(self):
        with pytest.raises(InfeasibleAssignmentError, match="not surjective: 10+ pilots for 2"):
            PilotAssignment((0, 1), 10**18)


class TestValidateSystem:
    def test_ok(self):
        s = make_system([[1.0, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=2)
        assert validate_system(s).ok

    def test_more_pilots_than_users(self):
        s = make_system([[1.0, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=3)
        res = validate_system(s)
        assert not res.ok
        assert any("no surjective assignment" in v for v in res.violations)

    def test_zero_beta_on_serving_link(self):
        s = make_system([[0.0, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=2)
        res = validate_system(s)
        assert not res.ok
        assert any("zero coefficient on serving link" in v for v in res.violations)
        assert any("[0, 0]" in v for v in res.violations)  # locates the entry

    def test_empty_serving_set(self):
        s = make_system([[1.0, 1.0], [1.0, 1.0]], [(0,), ()], tau=2)
        res = validate_system(s)
        assert any("empty" in v for v in res.violations)

    def test_tau_c_too_short(self):
        s = make_system([[1.0], [1.0]], [(0,), (0,)], tau=2, tau_c=2)
        res = validate_system(s)
        assert any("tau_c" in v for v in res.violations)

    def test_eta_out_of_range(self):
        s = make_system([[1.0], [1.0]], [(0,), (0,)], tau=1, eta=[0.5, 1.5])
        res = validate_system(s)
        assert any("eta" in v for v in res.violations)

    def test_shape_mismatch(self):
        s = CfMmimoSystem(
            m_aps=3,
            k_users=2,
            tau_pilots=1,
            beta=np.ones((2, 2)),
            serving_sets=((0,), (1,)),
            gamma=np.ones((2, 2)),
            eta=np.ones(2),
            rho_u=1.0,
            tau_c=10,
        )
        res = validate_system(s)
        assert not res.ok
        assert any("beta shape" in v for v in res.violations)

    def test_never_raises_on_garbage(self):
        s = CfMmimoSystem(
            m_aps=0,
            k_users=0,
            tau_pilots=0,
            beta=np.zeros((0, 0)),
            serving_sets=(),
            gamma=np.zeros((0, 0)),
            eta=np.zeros(0),
            rho_u=-1.0,
            tau_c=0,
        )
        res = validate_system(s)
        assert not res.ok and len(res.violations) >= 3
        for rho_u in (None, "x"):  # not a real number: reported, not raised
            res = validate_system(dataclasses.replace(s, rho_u=rho_u))
            assert f"uplink SNR rho_u={rho_u} must be positive and finite" in res.violations

    @pytest.mark.parametrize("k_users, more", [
        (10, ()),
        (11, ("and 1 more serving-set violations",)),
        (50, ("and 40 more serving-set violations",)),
    ])
    def test_serving_link_violations_cut_after_ten(self, k_users, more):
        s = make_system(np.zeros((k_users, 1)), [(0,)] * k_users, tau=1)
        listed = tuple(f"zero coefficient on serving link: beta[{k}, 0] = 0.0" for k in range(10))
        assert validate_system(s).violations == listed + more

    def test_serving_link_violations_in_user_order(self):
        # indices below 0 and at 2**63 or more are reported, not raised;
        # the exact payload's zeros are checked on links with nonzero beta
        s = make_system([[0.0, 1.0]] * 6, [(), (0, 1, -5), (0, 7), (), (0,), (1, 2**64, 2**63)], tau=1)
        exact = [[Fraction(b) ** 2 for b in row] for row in s.beta.tolist()]
        exact[1][1] = exact[5][1] = Fraction(0)
        assert validate_system(dataclasses.replace(s, beta_sq_exact=exact)).violations == (
            "serving set of user 0 is empty",
            "serving set of user 1 references AP -5 out of range",
            "zero coefficient on serving link: beta[1, 0] = 0.0",
            "zero exact beta square on serving link (1, 1)",
            "zero coefficient on serving link: beta[2, 0] = 0.0",
            "serving set of user 2 references AP 7 out of range",
            "serving set of user 3 is empty",
            "zero coefficient on serving link: beta[4, 0] = 0.0",
            "zero exact beta square on serving link (5, 1)",
            "serving set of user 5 references AP 9223372036854775808 out of range",
            "and 1 more serving-set violations",
        )

    @pytest.mark.parametrize("field", ["m_aps", "k_users", "tau_pilots", "tau_c"])
    def test_non_integer_count_is_a_violation(self, field):
        s = make_system([[1.0], [1.0]], [(0,), (0,)], tau=1)
        bad = dataclasses.replace(s, **{field: 1.5})
        assert validate_system(bad).violations == (f"{field} 1.5 is not an integer",)

    def test_numpy_integer_counts_pass(self):
        s = make_system([[1.0], [1.0]], [(0,), (0,)], tau=1)
        counts = {f: np.int64(getattr(s, f)) for f in ("m_aps", "k_users", "tau_pilots", "tau_c")}
        assert validate_system(dataclasses.replace(s, **counts)).ok

    def test_non_integer_ap_index_is_refused(self):
        # truncating the indices would read ((0,), (1,)), a valid system
        with pytest.raises(ValueError, match="AP index 0.9 is not an integer"):
            make_system([[1.0, 1.0], [1.0, 1.0]], [(0.9,), (1.5,)], tau=1)

    def test_numpy_integer_ap_indices_pass(self):
        s = make_system([[1.0, 1.0], [1.0, 1.0]], [np.array([1, 0]), (np.int32(1),)], tau=1)
        assert s.serving_sets == ((0, 1), (1,))
        assert all(type(m) is int for aps in s.serving_sets for m in aps)


class TestOneGate:
    """Every system passes one gate, once: no caller restates a system rule."""

    def test_generated_system_is_validated_once(self, monkeypatch):
        judged = count_validations(monkeypatch)
        s = generate_system(GenerationConfig(seed=1), 100, 50, 5)
        init = random_feasible(s, 1)
        local_search_move(s, init)
        greedy_worst_user(s, init)
        assert judged == {id(s): 1}

    def test_invalid_system_is_refused_on_every_use(self):
        s = make_system([[-1.0, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=2)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^invalid system: beta contains negative"):
                interference_matrix(s)

    @pytest.mark.parametrize("call", [
        lambda s: random_feasible(s, 0), greedy_feasible, brute_force_exact, pa_to_mkp,
    ])
    def test_non_integer_pilot_count_is_one_refusal(self, call):
        s = make_system([[1.0], [1.0]], [(0,), (0,)], tau=1)
        bad = dataclasses.replace(s, tau_pilots=1.5)
        with pytest.raises(ValueError, match=r"^invalid system: tau_pilots 1\.5 is not an integer$"):
            call(bad)


class TestGenerateSystem:
    def test_output_passes_validation(self):
        s = generate_system(GenerationConfig(seed=42), 16, 4, 2)
        assert validate_system(s).ok

    def test_deterministic_byte_for_byte(self):
        cfg = GenerationConfig(seed=7, ap_selection_rule="top:3")
        s1 = generate_system(cfg, 12, 5, 2)
        s2 = generate_system(cfg, 12, 5, 2)
        assert format_instance(s1) == format_instance(s2)

    def test_different_seeds_differ(self):
        s1 = generate_system(GenerationConfig(seed=1), 12, 5, 2)
        s2 = generate_system(GenerationConfig(seed=2), 12, 5, 2)
        assert format_instance(s1) != format_instance(s2)

    def test_top_one_rule(self):
        s = generate_system(GenerationConfig(seed=3, ap_selection_rule="top:1"), 10, 4, 2)
        assert all(len(a) == 1 for a in s.serving_sets)

    def test_energy_rule_captures_fraction(self):
        theta = 0.9
        s = generate_system(
            GenerationConfig(seed=4, ap_selection_rule=f"energy:{theta}"), 20, 5, 2
        )
        for k, aps in enumerate(s.serving_sets):
            captured = s.beta[k, list(aps)].sum()
            assert captured >= theta * s.beta[k].sum() * (1 - 1e-12)

    def test_top_rule_beyond_float_range_takes_every_ap(self):
        # N stays an int: any N >= M serves every user from every AP
        huge, every = (
            generate_system(GenerationConfig(seed=5, ap_selection_rule=f"top:{n}"), 9, 4, 2)
            for n in (10**400, 9)
        )
        assert huge.serving_sets == every.serving_sets == ((*range(9),),) * 4
        assert format_instance(huge) == format_instance(every)

    def test_pilots_exceed_users_rejected(self):
        with pytest.raises(ValueError, match="exceeds user count"):
            generate_system(GenerationConfig(seed=0), 8, 4, 5)

    @pytest.mark.parametrize("rule", ["best:3", "top:0", "top:x", "energy:0", "energy:1.5", "energy"])
    def test_bad_rule_rejected(self, rule):
        with pytest.raises(ValueError, match="AP selection rule"):
            generate_system(GenerationConfig(seed=0, ap_selection_rule=rule), 8, 4, 2)

    def test_bad_area_rejected(self):
        with pytest.raises(ValueError, match="area"):
            generate_system(GenerationConfig(seed=0, area_side_m=0.0), 8, 4, 2)

    @pytest.mark.parametrize("field, value, message", [
        ("rho_u", 1e308, "invalid system: gamma contains non-finite entries"),
        ("rho_u", math.inf, "invalid system: uplink SNR rho_u=inf"),
        ("rho_u", -1.0, "invalid system: uplink SNR rho_u=-1.0"),
        ("shadowing_sigma_db", math.inf, "invalid system: beta contains non-finite entries"),
        ("shadowing_sigma_db", 1e4, "invalid system: beta contains non-finite entries"),
        ("pathloss_exponent", math.inf, "invalid system: zero coefficient on serving link"),
        ("pathloss_exponent", math.nan, "invalid system: beta contains non-finite entries"),
        ("area_side_m", math.inf, "area side must be positive and finite, got inf"),
        ("area_side_m", math.nan, "area side must be positive and finite, got nan"),
        ("area_side_m", 1e200, "invalid system: zero coefficient on serving link"),
        ("tau_c", 2, "invalid system: coherence interval tau_c=2 must exceed"),
    ])
    def test_unusable_config_raises_value_error(self, field, value, message):
        # validate_system judges what the generator built; only the area,
        # which never reaches the system, is checked before generation
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                generate_system(GenerationConfig(seed=0, **{field: value}), 8, 4, 2)

    @pytest.mark.parametrize("counts, name", [
        ((1.5, 4, 2), "m_aps 1.5"), ((8, 4.0, 2), "k_users 4.0"), ((8, 4, 2.0), "tau_pilots 2.0"),
    ])
    def test_non_integer_count_raises_value_error(self, counts, name):
        # refused before the deployment warning, which m_aps = 1.5 would trigger
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(name)} is not an integer$"):
                generate_system(GenerationConfig(seed=0), *counts)

    def test_more_users_than_aps_warns(self):
        with pytest.warns(UserWarning, match="atypical"):
            generate_system(GenerationConfig(seed=0), 3, 5, 2)

    def test_eta_policies(self):
        full = generate_system(GenerationConfig(seed=5, eta_policy="full"), 8, 4, 2)
        uni = generate_system(GenerationConfig(seed=5, eta_policy="uniform"), 8, 4, 2)
        assert np.all(full.eta == 1.0)
        assert np.allclose(uni.eta, 0.25)

    def test_arrays_are_read_only(self):
        s = generate_system(GenerationConfig(seed=6), 8, 4, 2)
        with pytest.raises(ValueError):
            s.beta[0, 0] = 2.0

    def test_callers_arrays_stay_writable(self):
        # the system copies an array its caller can still write, and keeps
        # the read-only arrays generate_system hands over without a copy
        s = generate_system(GenerationConfig(seed=6), 8, 4, 2)
        g = s.gamma.copy()
        s2 = dataclasses.replace(s, gamma=g)
        g[0, 0] = 0.25
        assert s2.gamma[0, 0] == s.gamma[0, 0] != 0.25
        assert not s2.gamma.flags.writeable and s2.beta is s.beta
        beta = np.ones((3, 1))
        s3 = make_system(beta[:2], [(0,), (0,)], tau=1)  # a view of the caller's array
        beta[:] = 2.0
        assert s3.beta.tolist() == [[1.0], [1.0]]


class TestGammaDefault:
    def test_half_at_unit_product(self):
        # beta = 1 and tau * rho_p = 1 puts the estimate quality at 1/2
        s = make_system([[1.0]], [(0,)], tau=1)
        g = _gamma_from_beta(s.beta, 1.0, 1)
        assert g[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_zero_beta_gives_zero(self):
        s = make_system([[1.0, 0.0]], [(0,)], tau=1)
        g = _gamma_from_beta(s.beta, 2.0, 3)
        assert g[0, 1] == 0.0

    def test_saturates_to_beta(self):
        s = make_system([[1.0]], [(0,)], tau=1)
        g = _gamma_from_beta(s.beta, 1e12, 1)
        assert g[0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_strictly_below_beta(self):
        s = small_random_system(seed=11)
        g = _gamma_from_beta(s.beta, 100.0, 2)
        mask = s.beta > 0
        assert np.all(g[mask] < s.beta[mask])
        assert np.all(g >= 0)


class TestUplinkRate:
    def test_hand_derived_value(self, rate_example_system):
        a = PilotAssignment((0, 0, 1), 2)
        assert uplink_rate(rate_example_system, a, 0) == pytest.approx(
            RATE_EXAMPLE, rel=1e-12
        )
        assert uplink_rate(rate_example_system, a, 1) == pytest.approx(
            RATE_EXAMPLE, rel=1e-12
        )
        rates = uplink_rates(rate_example_system, a)
        assert rates[:2] == [pytest.approx(RATE_EXAMPLE, rel=1e-12)] * 2

    def test_contamination_free_matches_direct_formula(self, rate_example_system):
        # user 2 is alone on its pilot: coherent term vanishes
        s = rate_example_system
        a = PilotAssignment((0, 0, 1), 2)
        gsum = 0.5
        num = gsum**2
        noncoherent = gsum * 1.0  # only user 2's own fading is nonzero on A(2)
        den = noncoherent + gsum
        expected = 0.4 * math.log2(1 + num / den)
        assert uplink_rate(s, a, 2) == pytest.approx(expected, rel=1e-12)

    def test_extra_co_pilot_user_strictly_decreases(self):
        beta = np.ones((3, 3))
        s = make_system(beta, [(0,), (1,), (2,)], tau=2)
        alone = PilotAssignment((0, 1, 1), 2)
        crowded = PilotAssignment((0, 0, 1), 2)
        assert uplink_rate(s, crowded, 0) < uplink_rate(s, alone, 0)

    def test_label_invariance(self, rate_example_system):
        s = rate_example_system
        a = PilotAssignment((0, 0, 1), 2)
        b = PilotAssignment((1, 1, 0), 2)  # labels swapped
        for k in range(3):
            assert uplink_rate(s, a, k) == pytest.approx(uplink_rate(s, b, k), rel=1e-15)

    def test_index_out_of_range(self, rate_example_system):
        a = PilotAssignment((0, 0, 1), 2)
        with pytest.raises(IndexError):
            uplink_rate(rate_example_system, a, 3)

    def test_mismatched_assignment_rejected(self, rate_example_system):
        a = PilotAssignment((0, 1), 2)
        with pytest.raises(InfeasibleAssignmentError):
            uplink_rate(rate_example_system, a, 0)
        with pytest.raises(InfeasibleAssignmentError):
            uplink_rate(rate_example_system, a, 3)  # the assignment is checked first
        with pytest.raises(InfeasibleAssignmentError):
            uplink_rates(rate_example_system, a)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), moved=st.integers(0, 4), target=st.integers(0, 4))
    def test_monotone_in_co_pilot_set(self, seed, moved, target):
        # moving another user onto the target's pilot never raises its rate
        s = small_random_system(seed % 50, m_aps=10, k_users=5, tau=2)
        a = random_feasible(s, seed)
        if moved == target or a.pilot_of[moved] == a.pilot_of[target]:
            return
        if sum(1 for p in a.pilot_of if p == a.pilot_of[moved]) < 2:
            return  # move would break surjectivity
        joined = list(a.pilot_of)
        joined[moved] = a.pilot_of[target]
        before = uplink_rate(s, a, target)
        after = uplink_rate(s, PilotAssignment(tuple(joined), 2), target)
        assert after <= before + 1e-12


class TestThroughput:
    def test_single_user_system(self):
        s = make_system([[1.0]], [(0,)], tau=1)
        a = PilotAssignment((0,), 1)
        assert system_throughput(s, a) == pytest.approx(uplink_rate(s, a, 0), rel=1e-15)

    def test_symmetric_pair_doubles(self, unit_pair_system):
        a = PilotAssignment((0, 0), 1)
        assert system_throughput(unit_pair_system, a) == pytest.approx(
            2 * uplink_rate(unit_pair_system, a, 0), rel=1e-12
        )

    def test_label_invariance(self):
        s = small_random_system(seed=21, k_users=6, tau=3)
        a = random_feasible(s, 5)
        b = PilotAssignment(tuple((2, 0, 1)[p] for p in a.pilot_of), 3)
        assert system_throughput(s, a) == pytest.approx(system_throughput(s, b), rel=1e-12)


class TestExactBetaSquares:
    def test_matches_float_bits(self):
        # Rational mode's P, built row by row: each row a tuple of ints, and
        # each AP column the exact squares (each float's, or the payload's)
        # times the column's least denominator.
        g = WeightedGraph(3, 2, {(0, 1): Fraction(1, 3), (1, 2): 2, (0, 2): 0.1})
        for s in (small_random_system(seed=31), mkp_to_pa(g, n_dummy_aps=1, exact=True)):
            rows = objective._exact_rows(s)[0]
            assert type(rows) is tuple and len(rows) == s.k_users
            for row, want in zip(rows, reference.integer_beta_squares(s).tolist()):
                assert type(row) is tuple and [type(x) for x in row] == [int] * s.m_aps
                assert list(row) == want
            for col, want in zip(zip(*rows), reference.exact_beta_squares(s).T):
                denom = math.lcm(*(x.denominator for x in want))
                assert list(col) == [x * denom for x in want]

    def test_over_common_denominator(self):
        ints, denom = _over_common_denominator([(1, 6), (3, 4), (5, 1), (0, 9)])
        assert denom == 36 and ints == [6, 27, 180, 0]
        assert _over_common_denominator([(1, 2), (1, 3), (1, 6)]) == ([3, 2, 1], 6)
        assert _over_common_denominator([]) == ([], 1)

    def test_read_only_fraction_arrays(self):
        s = small_random_system(seed=33)
        g = WeightedGraph(3, 2, {(0, 1): Fraction(1, 3), (1, 2): 2})
        payload = mkp_to_pa(g, n_dummy_aps=1, exact=True).beta_sq_exact
        assert payload.shape == (3, 4) and payload[1, 0] == payload[0, 1] == Fraction(1, 6)
        assert payload.dtype == object and not payload.flags.writeable
        assert all(type(x) is Fraction for x in payload.flat)
        want = reference.interference_exact(s)
        pairs = interference_pairs(s, exact=True)
        assert all(type(w) is Fraction for *_, w in pairs)
        k = s.k_users
        assert [(i, j) for i, j, _ in pairs] == [(i, j) for i in range(k) for j in range(i + 1, k)]
        assert [w for *_, w in pairs] == [want[i, j] for i, j, _ in pairs]

    def test_int_payload_entries_become_fractions(self):
        # user 0 served by AP 0, user 1 by AP 1: w(0, 1) = 1/1 + 1/3
        s = make_system([[1.0, 1.0], [1.0, 3**0.5]], [(0,), (1,)], tau=1)
        s = dataclasses.replace(s, beta_sq_exact=[[1, 1], [1, 3]])
        assert all(type(x) is Fraction for x in s.beta_sq_exact.flat)
        value = contamination_objective(s, PilotAssignment((0, 0), 1), exact=True)
        assert type(value) is Fraction and value == Fraction(4, 3)

    def test_payload_shape_checked(self):
        s = mkp_to_pa(WeightedGraph(2, 1, {(0, 1): 1}), exact=True)
        bad = dataclasses.replace(s, beta_sq_exact=[[Fraction(1)], [Fraction(1), Fraction(0)]])
        assert "exact beta-square payload has wrong shape" in validate_system(bad).violations

    @pytest.mark.parametrize(
        "payload, violation",
        [
            ([[1, -1 / 4], [1 / 4, 1]], "exact beta-square payload contains negative entries"),
            ([[0, 1 / 4], [1 / 4, 1]], "zero exact beta square on serving link (0, 0)"),
        ],
        ids=["negative", "zero-serving"],
    )
    def test_payload_values_checked(self, payload, violation):
        # A valid two-user, one-pilot system whose float objective is 0.5:
        # a negative payload entry would certify 0, a zero on a serving
        # link would divide by zero. Both are invalid systems.
        s = make_system([[1.0, 0.5], [0.5, 1.0]], [(0,), (1,)], tau=1)
        a = PilotAssignment((0, 0), 1)
        assert contamination_objective(s, a) == 0.5
        bad = dataclasses.replace(s, beta_sq_exact=payload)
        assert validate_system(bad).violations == (violation,)
        for call in (
            lambda: brute_force_exact(bad, exact=True),
            lambda: decide(bad, 0),
            lambda: contamination_objective(bad, a, exact=True),
        ):
            with pytest.raises(ValueError, match="invalid system: " + re.escape(violation)):
                call()

    def test_payload_disagreeing_with_beta_refused(self):
        # Float mode reads beta (objective 0.5 on (0, 0)), rational mode the
        # payload (it would report 200): a system carrying both is invalid.
        s = make_system([[1.0, 0.5], [0.5, 1.0]], [(0,), (1,)], tau=1)
        a = PilotAssignment((0, 0), 1)
        bad = dataclasses.replace(s, beta_sq_exact=[[1, 100], [100, 1]])
        violation = "exact beta-square payload is not beta**2 at [(0, 1), (1, 0)]"
        assert validate_system(bad).violations == (violation,)
        for call in (
            lambda: brute_force_exact(bad, exact=True),
            lambda: decide(bad, 1),
            lambda: contamination_objective(bad, a, exact=True),
        ):
            with pytest.raises(ValueError, match="invalid system: " + re.escape(violation)):
                call()
        # an ulp apart is the same square; a part in 2**40 is not
        near = [[1, Fraction(1, 4) * (1 + Fraction(1, 2**52))], [Fraction(1, 4), 1]]
        assert validate_system(dataclasses.replace(s, beta_sq_exact=near)).ok
        off = [[1, Fraction(1, 4) * (1 + Fraction(1, 2**40))], [Fraction(1, 4), 1]]
        assert not validate_system(dataclasses.replace(s, beta_sq_exact=off)).ok

    @pytest.mark.parametrize("dummy_aps", [0, 2])
    @pytest.mark.parametrize(
        "weight",
        [3, Fraction(2, 7), 0.1, np.int64(10**15 + 1), 1e308, Fraction(1, 10**400), 5e-324, 10**300],
        ids=["int", "fraction", "float", "int64", "1e308", "tiny-fraction", "subnormal", "big-int"],
    )
    def test_reduction_payloads_agree_with_beta(self, weight, dummy_aps):
        # mixed with other weight types; squares that underflow beta pass too
        weights = {(0, 1): weight, (1, 2): 1, (0, 2): Fraction(1, 3**40), (2, 3): 0.3}
        s = mkp_to_pa(WeightedGraph(4, 2, weights), n_dummy_aps=dummy_aps, exact=True)
        assert validate_system(s).ok

    def test_numpy_integer_payload_stays_exact(self):
        # an int64 numerator scaled by a large common denominator overflowed
        # into a wrong exact objective before payload parts became ints
        weights = {(0, 1): np.int64(10**15 + 1), (1, 2): Fraction(1, 3**30), (0, 2): Fraction(1, 7**20)}
        s = mkp_to_pa(WeightedGraph(3, 1, weights), exact=True)
        assert all(type(x.numerator) is int for x in s.beta_sq_exact.flat)
        a = PilotAssignment((0, 0, 0), 1)
        assert contamination_objective(s, a, exact=True) == sum(weights.values(), Fraction(0))

    def test_reduction_payloads_stay_valid(self):
        # zero entries off the serving links (absent edges, dummy APs) are fine
        g = WeightedGraph(4, 2, {(0, 1): Fraction(1, 3), (2, 3): 2})
        s = mkp_to_pa(g, n_dummy_aps=2, exact=True)
        assert any(x == 0 for x in s.beta_sq_exact.flat)
        assert validate_system(s).ok
        assert brute_force_exact(s, exact=True).objective == 0
