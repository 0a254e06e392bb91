import sys
from collections import Counter

import numpy as np
import pytest

from pilotkit import CfMmimoSystem, GenerationConfig, generate_system, system_model


def make_system(beta, serving_sets, tau, gamma=None, eta=None, rho_u=1.0, tau_c=10):
    beta = np.asarray(beta, dtype=float)
    k, m = beta.shape
    if gamma is None:
        gamma = np.where(beta > 0, 0.5, 0.0)
    if eta is None:
        eta = np.ones(k)
    return CfMmimoSystem(
        m_aps=m,
        k_users=k,
        tau_pilots=tau,
        beta=beta,
        serving_sets=tuple(tuple(a) for a in serving_sets),
        gamma=np.asarray(gamma, dtype=float),
        eta=np.asarray(eta, dtype=float),
        rho_u=rho_u,
        tau_c=tau_c,
    )


def flat_system(k_users, tau):
    """All-ones fading, one shared AP: every pair weighs the same."""
    return make_system(np.ones((k_users, 1)), [(0,)] * k_users, tau=tau)


@pytest.fixture
def unit_pair_system():
    """Two symmetric users, one pilot, unit fading everywhere."""
    return make_system([[1.0, 1.0], [1.0, 1.0]], [(0,), (1,)], tau=1)


@pytest.fixture
def rate_example_system():
    """Three users, two pilots; users 0 and 1 replay the symmetric two-user
    hand computation and user 2 is inert (zero cross fading, own AP)."""
    beta = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    gamma = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.5]]
    return make_system(beta, [(0,), (1,), (2,)], tau=2, gamma=gamma)


def small_random_system(seed, m_aps=12, k_users=5, tau=2, rule="energy:0.9"):
    cfg = GenerationConfig(seed=seed, ap_selection_rule=rule)
    return generate_system(cfg, m_aps, k_users, tau)


def count_validations(monkeypatch) -> Counter:
    """validate_system's calls from here on, counted per system object,
    in every pilotkit module that holds the function."""
    judged: Counter = Counter()
    real = system_model.validate_system

    def counting(s):
        judged[id(s)] += 1
        return real(s)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "pilotkit" and getattr(module, "validate_system", None) is real:
            monkeypatch.setattr(module, "validate_system", counting)
    return judged
