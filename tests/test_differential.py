"""Differential tests: the matrix code against the loop references.

The interference matrix is checked entry by entry against the scalar
``pairwise_interference``; local search, worst-user and the uplink rate
against the loop versions in ``reference.py``, which they replaced.
"""

import math

import numpy as np
import pytest

from pilotkit import (
    GenerationConfig,
    contamination_objective,
    generate_system,
    greedy_worst_user,
    interference_matrix,
    local_search_move,
    pairwise_interference,
    random_feasible,
    uplink_rate,
)

import reference

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
                    assert math.isclose(w[i, j], pairwise_interference(s, i, j), rel_tol=REL)


def test_interference_matrix_matches_pairwise_exact():
    for seed in range(3):
        s = _system((6, 16, 2), seed, "top:8")
        w = interference_matrix(s, exact=True)
        for i in range(6):
            assert w[i][i] == 0
            for j in range(6):
                if i != j:
                    assert w[i][j] == pairwise_interference(s, i, j, exact=True)


def test_matrices_are_memoised_and_read_only():
    s = _system((10, 32, 3), 1)
    w = interference_matrix(s)
    assert interference_matrix(s) is w
    with pytest.raises(ValueError):
        w[0, 1] = 1.0


@pytest.mark.parametrize("shape, seed", CASES)
def test_local_search_matches_reference(shape, seed):
    s = _system(shape, seed)
    init = random_feasible(s, seed)
    report = local_search_move(s, init)
    labels, moves, objective = reference.local_search_move(s, init)
    assert report.assignment == labels
    assert report.iterations == moves
    assert math.isclose(report.objective, objective, rel_tol=REL)


@pytest.mark.parametrize("shape, seed", CASES)
def test_worst_user_matches_reference(shape, seed):
    s = _system(shape, seed)
    init = random_feasible(s, seed)
    report = greedy_worst_user(s, init)
    labels, rounds, rates = reference.greedy_worst_user(s, init)
    assert report.assignment == labels
    assert report.iterations == rounds
    assert math.isclose(report.throughput, sum(rates), rel_tol=REL)
    assert report.objective == contamination_objective(s, labels)


@pytest.mark.parametrize("shape, seed", CASES)
def test_uplink_rate_matches_reference(shape, seed):
    s = _system(shape, seed)
    a = random_feasible(s, seed)
    for k in range(s.k_users):
        assert math.isclose(uplink_rate(s, a, k), reference.uplink_rate(s, a, k), rel_tol=REL)
