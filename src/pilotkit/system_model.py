"""Cell-free massive MIMO system model.

Holds the system tuple (APs, users, per-user serving sets, large-scale
fading matrix, pilots) together with the radio parameters needed to
evaluate uplink achievable rates, plus a seeded synthetic-instance
generator based on a single-slope path-loss model with log-normal
shadowing.

Conventions: all indices are 0-based (users 0..K-1, APs 0..M-1, pilots
0..tau-1); fading and channel-estimate coefficients are dimensionless.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = [
    "InfeasibleAssignmentError",
    "PilotAssignment",
    "CfMmimoSystem",
    "GenerationConfig",
    "ValidationResult",
    "validate_system",
    "generate_system",
    "uplink_rate",
    "uplink_rates",
    "system_throughput",
    "check_assignment",
]

# Reference path loss at d0 = 1 m for the synthetic channel model, in dB.
PATHLOSS_REF_DB = 30.0

# Ratios _user_terms builds at once: batches of about 2 MB.
_TERMS_BATCH = 1 << 18


class InfeasibleAssignmentError(ValueError):
    """A pilot assignment that is not a surjective map onto the pilot set."""


def _listed(labels: list[int], cap: int = 10) -> str:
    """labels as a list, cut after cap entries to keep a message short."""
    more = f" and {len(labels) - cap} more" if len(labels) > cap else ""
    return f"{labels[:cap]}{more}"


def _index(x, error: type, what: str) -> int:
    """x as an int (numpy integers too), else raise error."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{what} {x!r} is not an integer") from None


def _surjective(labels, n, error: type, label: str, items: str) -> tuple[tuple[int, ...], int]:
    """(labels, n) as ints if the labels map onto all of 0..n-1, else raise error.

    Assignments and partitions are both such labellings. The count is
    checked before any work proportional to n, so a huge n fails at once.
    """
    n = _index(n, error, f"{label} count")
    try:
        out = tuple(map(operator.index, labels))
    except TypeError:
        bad = [x for x in labels if not isinstance(x, (int, np.integer, np.bool_))]
        if bad:
            raise error(f"{label} index {bad[0]!r} is not an integer") from None
        out = tuple(map(int, labels))  # numpy bools
    if n < 1:
        raise error(f"need at least one {label}")
    if n > len(out):
        raise error(f"not surjective: {n} {label}s for {len(out)} {items}, so some are empty")
    used = set(out)
    if not 0 <= min(used) <= max(used) < n:
        bad = next(x for x in out if not 0 <= x < n)
        raise error(f"{label} index {bad} out of range [0, {n})")
    if len(used) != n:
        raise error(f"not surjective: {label}s {_listed(sorted(set(range(n)) - used))} are empty")
    return out, n


@dataclass(frozen=True)
class PilotAssignment:
    """Map from users to pilots.

    Feasibility requires surjectivity: every pilot in 0..n_pilots-1 must
    be used by at least one user. The constructor enforces this, so any
    live ``PilotAssignment`` is feasible for its pilot count.
    """

    pilot_of: tuple[int, ...]
    n_pilots: int

    def __post_init__(self) -> None:
        labels, n = _surjective(
            self.pilot_of, self.n_pilots, InfeasibleAssignmentError, "pilot", "users"
        )
        object.__setattr__(self, "pilot_of", labels)
        object.__setattr__(self, "n_pilots", n)

    @property
    def n_users(self) -> int:
        return len(self.pilot_of)


@dataclass(frozen=True, eq=False)
class CfMmimoSystem:
    """The system tuple plus the radio constants of the uplink rate.

    beta[k, m] is the large-scale fading coefficient between user k and
    AP m; it must be strictly positive whenever m serves k. gamma[k, m]
    is the mean-square of the channel estimate, treated as a constant
    fixed before pilot assignment. ``beta_sq_exact``, when present,
    carries exact rational values of beta**2 so that reduction
    certificates avoid square-root rounding; it is filled in by the
    graph-to-system construction in rational mode, stored as a read-only
    K x M object array of Fractions, ignored by the floating-point paths
    and read by rational mode as ints (``objective._exact_rows``). beta,
    gamma and eta are kept as read-only float arrays: an input array the
    caller can still write is copied, a read-only one is kept as is.
    """

    m_aps: int
    k_users: int
    tau_pilots: int
    beta: np.ndarray
    serving_sets: tuple[tuple[int, ...], ...]
    gamma: np.ndarray
    eta: np.ndarray
    rho_u: float
    tau_c: int
    beta_sq_exact: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name in ("beta", "gamma", "eta"):
            given = getattr(self, name)
            arr = np.ascontiguousarray(given, dtype=float)
            if arr.flags.writeable and (arr is given or arr.base is not None):
                arr = arr.copy()  # the caller's memory, still writable: keep a copy
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.beta_sq_exact is not None:
            # with int parts: a numpy integer inside a Fraction overflows
            rows = [
                [Fraction(int(x.numerator), int(x.denominator)) for x in map(Fraction, row)]
                for row in self.beta_sq_exact
            ]
            exact = np.array(rows, dtype=object)  # 1-D if ragged: the shape check reports it
            exact.setflags(write=False)
            object.__setattr__(self, "beta_sq_exact", exact)
        serving = (sorted({_index(m, ValueError, "AP index") for m in a}) for a in self.serving_sets)
        object.__setattr__(self, "serving_sets", tuple(map(tuple, serving)))


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...]


def _payload_mismatches(beta: np.ndarray, exact: np.ndarray) -> list[tuple[int, int]]:
    """(k, m) of every exact payload entry x that is not beta[k, m]**2.

    beta holds a rounded square root of a rounded x, and a tiny x may
    underflow, so x passes within 2**-50 relative (a few ulps) plus
    2**-1072 (a few subnormal spacings). The test is exact, on integers:
    with beta = p / q and x = n / d, |p^2 / q^2 - n / d| <= n / (d 2^50)
    + 2^-1072, multiplied through by d q^2 2^1072.
    """
    wrong = []
    for (k, m), x in np.ndenumerate(exact):
        p, q = beta[k, m].as_integer_ratio()
        n, d = x.numerator, x.denominator
        if abs(p * p * d - n * q * q) << 1072 > (n * q * q << 1022) + d * q * q:
            wrong.append((k, m))
    return wrong


def validate_system(s: CfMmimoSystem) -> ValidationResult:
    """Diagnostic well-formedness check; collects violations, never raises."""
    try:
        for name in ("m_aps", "k_users", "tau_pilots", "tau_c"):
            _index(getattr(s, name), ValueError, name)
    except ValueError as e:  # the checks below compare the counts as integers
        return ValidationResult(False, (str(e),))
    v: list[str] = []
    if s.m_aps < 1:
        v.append("AP count must be positive")
    if s.k_users < 1:
        v.append("user count must be positive")
    if s.tau_pilots < 1:
        v.append("pilot count must be positive")
    if s.tau_pilots > s.k_users:
        v.append(
            f"pilot count {s.tau_pilots} exceeds user count {s.k_users}: "
            "no surjective assignment possible"
        )
    if s.tau_c <= s.tau_pilots:
        v.append(f"coherence interval tau_c={s.tau_c} must exceed pilot length {s.tau_pilots}")
    if not (isinstance(s.rho_u, numbers.Real) and math.isfinite(s.rho_u) and s.rho_u > 0):
        v.append(f"uplink SNR rho_u={s.rho_u} must be positive and finite")

    if s.beta.shape != (s.k_users, s.m_aps):
        v.append(f"beta shape {s.beta.shape} != (K, M) = ({s.k_users}, {s.m_aps})")
    if s.gamma.shape != (s.k_users, s.m_aps):
        v.append(f"gamma shape {s.gamma.shape} != (K, M) = ({s.k_users}, {s.m_aps})")
    if s.eta.shape != (s.k_users,):
        v.append(f"eta shape {s.eta.shape} != (K,) = ({s.k_users},)")
    if len(s.serving_sets) != s.k_users:
        v.append(f"{len(s.serving_sets)} serving sets for {s.k_users} users")
    if v:
        return ValidationResult(False, tuple(v))

    for name, arr in (("beta", s.beta), ("gamma", s.gamma)):
        if not np.isfinite(arr).all():
            v.append(f"{name} contains non-finite entries")
        elif (arr < 0).any():
            v.append(f"{name} contains negative entries")
    if not np.isfinite(s.eta).all() or (s.eta < 0).any() or (s.eta > 1).any():
        v.append("eta entries must lie in [0, 1]")

    exact = s.beta_sq_exact
    if exact is not None and exact.shape != (s.k_users, s.m_aps):
        v.append("exact beta-square payload has wrong shape")
        exact = None
    elif exact is not None and any(x < 0 for x in exact.flat):
        v.append("exact beta-square payload contains negative entries")
    elif exact is not None and np.isfinite(s.beta).all():
        wrong = [
            (k, m) for k, m in _payload_mismatches(s.beta, exact)
            if not (exact[k, m] == 0 and m in s.serving_sets[k])  # reported below
        ]
        if wrong:
            v.append(f"exact beta-square payload is not beta**2 at {_listed(wrong)}")

    # Every serving link in one gather; only a system that fails it is
    # walked link by link, for the messages in order.
    flat = [m for aps in s.serving_sets for m in aps]
    sound = all(s.serving_sets) and 0 <= min(flat) and max(flat) < s.m_aps
    if sound:
        users = np.repeat(np.arange(s.k_users), [len(aps) for aps in s.serving_sets])
        sound = (s.beta[users, flat] > 0).all() and (exact is None or all(exact[users, flat] != 0))
    links: list[str] = []  # cut after ten, as _listed cuts labels
    for k, aps in enumerate(() if sound else s.serving_sets):
        if not aps:
            links.append(f"serving set of user {k} is empty")
            continue
        for m in aps:
            if not 0 <= m < s.m_aps:
                links.append(f"serving set of user {k} references AP {m} out of range")
            elif s.beta[k, m] <= 0:
                links.append(f"zero coefficient on serving link: beta[{k}, {m}] = {s.beta[k, m]}")
            elif exact is not None and exact[k, m] == 0:
                links.append(f"zero exact beta square on serving link ({k}, {m})")
    v += links[:10]
    if len(links) > 10:
        v.append(f"and {len(links) - 10} more serving-set violations")

    return ValidationResult(not v, tuple(v))


def check_assignment(s: CfMmimoSystem, a: PilotAssignment) -> None:
    """Raise unless the (already surjective) assignment matches the system."""
    if a.n_users != s.k_users:
        raise InfeasibleAssignmentError(
            f"assignment covers {a.n_users} users, system has {s.k_users}"
        )
    if a.n_pilots != s.tau_pilots:
        raise InfeasibleAssignmentError(
            f"assignment uses {a.n_pilots} pilots, system has {s.tau_pilots}"
        )


# Values derived from a system, memoised per system object and keyed by the
# function that builds them. Systems are immutable after construction (their
# arrays are read-only), so a derived value never goes stale; the entries die
# with the system.
_DERIVED: "weakref.WeakKeyDictionary[CfMmimoSystem, dict]" = weakref.WeakKeyDictionary()


def _require_valid(s: CfMmimoSystem) -> dict:
    """The one gate, and the only caller of validate_system: returns s's memo of
    derived values. The first call validates s, raises ``ValueError("invalid
    system: ...")`` on a violation and records a pass by creating the memo."""
    memo = _DERIVED.get(s)
    if memo is None:
        result = validate_system(s)
        if not result.ok:
            raise ValueError("invalid system: " + "; ".join(result.violations))
        memo = _DERIVED[s] = {}
    return memo


def derived(s: CfMmimoSystem, build):
    """build(s), computed once per system object and memoised behind the
    gate, so nothing is ever derived from an invalid system. Builders return
    read-only arrays or tuples, because every caller shares the value."""
    memo = _require_valid(s)
    value = memo.get(build)
    if value is None:
        value = memo[build] = build(s)
    return value


def _over_common_denominator(ratios) -> tuple[list[int], int]:
    """Exact values, given as (numerator, denominator) pairs, as ints over
    their least common denominator D: ([n * (D // d), ...], D), D = 1 for
    no values. Rational mode sums and divides these instead of Fractions."""
    ratios = list(ratios)
    denom = math.lcm(*(d for _, d in ratios))
    return [n * (denom // d) for n, d in ratios], denom


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for the synthetic-instance generator, and the only statement of its defaults.

    ap_selection_rule is either ``"top:N"`` (the N strongest APs per user)
    or ``"energy:THETA"`` (the smallest prefix of APs, in decreasing
    fading order, capturing fraction THETA of the user's total fading
    energy). eta_policy is ``"full"`` (eta = 1 for everyone) or
    ``"uniform"`` (eta = 1/K). The pilot phase uses the data SNR rho_u
    in the default channel-estimate coefficients.

    The default rho_u is the normalized SNR of a 100 mW transmitter over
    thermal noise at 20 MHz with a 9 dB noise figure (about -92 dBm),
    which keeps generated instances out of the purely noise-limited
    regime given the raw linear fading gains of the path-loss model.
    """

    area_side_m: float = 1000.0
    seed: int = 0
    pathloss_exponent: float = 3.5
    shadowing_sigma_db: float = 8.0
    ap_selection_rule: str = "energy:0.95"
    rho_u: float = 1.57e11
    tau_c: int = 200
    eta_policy: str = "full"


def _parse_ap_rule(rule: str) -> tuple[str, int | float]:
    """(kind, N) for top:N, N an int of any size; (kind, THETA) for energy:THETA."""
    kind, _, arg = rule.partition(":")
    try:
        value = int(arg) if kind == "top" else float(arg)
    except ValueError:
        value = math.nan
    if (kind == "top" and value >= 1) or (kind == "energy" and 0 < value <= 1):
        return kind, value
    raise ValueError(
        f"invalid AP selection rule {rule!r}: expected 'top:N' (N >= 1) "
        "or 'energy:THETA' (0 < THETA <= 1)"
    )


def _gamma_from_beta(beta: np.ndarray, rho_p: float, tau: int) -> np.ndarray:
    """The default gamma, tau rho_p beta**2 / (tau rho_p beta + 1): the contamination-free
    LMMSE estimate quality of a pilot of length tau sent at SNR rho_p."""
    with np.errstate(over="ignore", invalid="ignore"):  # validate_system refuses a non-finite gamma
        x = tau * rho_p * beta
        return np.where(beta > 0, x * beta / (x + 1.0), 0.0)


def _serving_sets(beta: np.ndarray, rule_kind: str, rule_arg) -> tuple[tuple[int, ...], ...]:
    """Every user's serving set A(k) under an AP selection rule, APs in increasing order.

    Each row of beta is ranked by decreasing fading, equal fading going to
    the lower AP index, as a stable sort ranks it. top:N takes the first N
    APs of the ranking (all of them when N >= M); energy:THETA takes the
    shortest prefix whose running sum reaches THETA times the row's total.
    """
    k_users, m_aps = beta.shape
    rows = np.arange(k_users)[:, None]
    order = np.argsort(-beta, axis=1, kind="stable")
    ranked = beta[rows, order]
    if rule_kind == "top":
        take = np.full(k_users, min(rule_arg, m_aps))
    else:
        cum = np.cumsum(ranked, axis=1, out=ranked)
        # cum is nondecreasing along a row, so counting its entries below the
        # target is searchsorted(side="left"), which puts the nan target of a
        # row holding a nan (sorted last) after every number
        below = cum < rule_arg * cum[:, -1:]
        nan_rows = np.isnan(cum[:, -1])
        below[nan_rows] = ~np.isnan(cum[nan_rows])
        take = np.minimum(below.sum(axis=1) + 1, m_aps)
    chosen = np.zeros(beta.shape, dtype=bool)
    chosen[rows, order] = np.arange(m_aps) < take[:, None]
    aps = np.nonzero(chosen)[1].tolist()  # row by row, each row's APs increasing
    ends = np.cumsum(take).tolist()
    return tuple(tuple(aps[a:b]) for a, b in zip([0, *ends], ends))


def generate_system(
    cfg: GenerationConfig, m_aps: int, k_users: int, tau_pilots: int
) -> CfMmimoSystem:
    """Generate a random system, deterministically from cfg.seed.

    APs and users are placed uniformly in a square of side
    cfg.area_side_m. Fading follows a single-slope log-distance model,
    beta = 10**((-PL0 - 10 * alpha * log10(d / d0) + X) / 10) with
    PL0 = 30 dB at d0 = 1 m, alpha = cfg.pathloss_exponent, and shadowing
    X ~ N(0, cfg.shadowing_sigma_db**2); distances are floored at d0.
    Serving sets come from cfg.ap_selection_rule and gamma from the
    default channel-estimate formula.

    Raises ValueError on a configuration or count it cannot use or, as
    ``derived`` does, on a system that fails ``validate_system``
    (tau_pilots > k_users, say); warns, but proceeds, when k_users > m_aps.
    """
    rule_kind, rule_arg = _parse_ap_rule(cfg.ap_selection_rule)
    if not 0 < cfg.area_side_m < math.inf:  # the area never reaches the system
        raise ValueError(f"area side must be positive and finite, got {cfg.area_side_m}")
    if cfg.shadowing_sigma_db < 0:
        raise ValueError("shadowing sigma must be nonnegative")
    counts = {"m_aps": m_aps, "k_users": k_users, "tau_pilots": tau_pilots}
    m_aps, k_users, tau_pilots = (_index(x, ValueError, name) for name, x in counts.items())
    if min(m_aps, k_users, tau_pilots) < 1:  # generation indexes a user's last AP
        raise ValueError("m_aps, k_users and tau_pilots must all be positive")
    if cfg.eta_policy not in ("full", "uniform"):
        raise ValueError(f"unknown eta policy {cfg.eta_policy!r}")
    if k_users > m_aps:
        warnings.warn(
            f"{k_users} users with only {m_aps} APs: atypical deployment",
            stacklevel=2,
        )

    rng = np.random.default_rng(cfg.seed)
    ap_xy = rng.uniform(0.0, cfg.area_side_m, size=(m_aps, 2))
    ue_xy = rng.uniform(0.0, cfg.area_side_m, size=(k_users, 2))
    shadow = rng.normal(0.0, cfg.shadowing_sigma_db, size=(k_users, m_aps))

    dx = ue_xy[:, 0, None] - ap_xy[:, 0]
    dy = ue_xy[:, 1, None] - ap_xy[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # validate_system refuses inf, nan or 0
        dist = np.maximum(np.sqrt(dx * dx + dy * dy), 1.0)
        pl_db = PATHLOSS_REF_DB + 10.0 * cfg.pathloss_exponent * np.log10(dist)
        beta = 10.0 ** ((-pl_db + shadow) / 10.0)
    del shadow, dx, dy, dist, pl_db  # K x M each: gone before the serving sets and gamma
    serving = _serving_sets(beta, rule_kind, rule_arg)
    gamma = _gamma_from_beta(beta, cfg.rho_u, tau_pilots)
    eta = np.full(k_users, 1.0 if cfg.eta_policy == "full" else 1.0 / k_users)
    for arr in (beta, gamma, eta):
        arr.setflags(write=False)  # read-only, so the system keeps them without a copy

    s = CfMmimoSystem(
        m_aps=m_aps,
        k_users=k_users,
        tau_pilots=tau_pilots,
        beta=beta,
        serving_sets=serving,
        gamma=gamma,
        eta=eta,
        rho_u=cfg.rho_u,
        tau_c=cfg.tau_c,
    )
    _require_valid(s)
    return s


def _user_terms(s: CfMmimoSystem) -> tuple[np.ndarray, ...]:
    """The assignment-independent terms of every pair and user.

    Returns (W, numerator, noncoherent, noise, coherent): the float
    interference matrix W[k, j] = o[k, j] + o[j, k], with the one-sided
    o[k, j] = sum_{m in A(k)} (beta[j, m] / beta[k, m])**2; per user k,
    rho_u * eta[k] * (sum of gamma over A(k))**2, the non-coherent
    interference and the noise term sum(gamma over A(k)); and
    coherent[k, j] = eta[j] * (sum_{m in A(k)} gamma[k, m] beta[j, m] / beta[k, m])**2,
    what user j adds, before the factor rho_u, to k's coherent
    interference when the two share a pilot. Both matrices have a zero
    diagonal.

    Users whose serving sets have the same size a are built together,
    about _TERMS_BATCH ratios at a time, from one gather of their columns
    of beta. Their ratios beta[j, m] / beta[k, m] are laid out as one
    C-ordered (K, users, a) array, so each row is reduced like a 1-D sum
    over A(k): every entry is the float a per-user loop gives, and W
    equals the scalar ``pair_weight`` of ``tests/reference.py`` bit for
    bit. The non-coherent term keeps one BLAS product per user, on a copy
    of the user's columns in the F order a per-user gather gives, so its
    bits do not depend on the batches either.
    """
    k_users, beta, gamma, eta = s.k_users, s.beta, s.gamma, s.eta
    one_sided, coherent = np.empty((k_users, k_users)), np.empty((k_users, k_users))
    noise, noncoherent = np.empty(k_users), np.empty(k_users)
    by_size: dict[int, list[int]] = {}
    for k, aps in enumerate(s.serving_sets):
        by_size.setdefault(len(aps), []).append(k)
    # An overflowed term is inf without a warning (certifying callers refuse it); nan warns.
    with np.errstate(over="ignore"):
        for a, same in by_size.items():
            step = max(1, _TERMS_BATCH // (k_users * a))
            for lo in range(0, len(same), step):
                chunk = same[lo:lo + step]
                users, idx = np.array(chunk), np.array([s.serving_sets[k] for k in chunk])
                g = gamma[users[:, None], idx]
                noise[users] = np.add.reduce(g, axis=1)
                b = beta.take(idx, axis=1)  # C-ordered; [:, i] is users[i]'s columns
                for i, k in enumerate(chunk):
                    noncoherent[k] = s.rho_u * (eta @ (np.asfortranarray(b[:, i]) @ gamma[k, idx[i]]))
                # [j, i, :] holds the ratios of user j to users[i]
                ratios = np.divide(b, beta[users[:, None], idx], order="C")
                one_sided[users] = np.add.reduce(ratios * ratios, axis=2).T
                ratio = np.add.reduce(g * ratios, axis=2)
                coherent[users] = (eta[:, None] * ratio * ratio).T
        w = one_sided + one_sided.T
        numerator = s.rho_u * eta * noise * noise
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(coherent, 0.0)
    terms = (w, numerator, noncoherent, noise, coherent)
    for arr in terms:
        arr.setflags(write=False)
    return terms


def _in_order(values) -> float:
    """values added left to right, on every Python (3.12's sum() compensates)."""
    total = 0.0
    for x in values:
        total += x
    return total


def _from_terms(s: CfMmimoSystem, num, interference, noncoherent, noise) -> list[float]:
    """Rates (1 - tau/tau_c)/2 * log2(1 + SINR) from lists of the SINR's
    terms, in Python floats; interference is the co-pilot sum before the
    factor rho_u."""
    rho_u, prelog = s.rho_u, (1.0 - s.tau_pilots / s.tau_c) / 2.0
    return [
        prelog * math.log2(1.0 + (n / (i * rho_u + c + z) if n != 0.0 else 0.0))
        for n, i, c, z in zip(num, interference, noncoherent, noise)
    ]


def _rates(s: CfMmimoSystem, labels: np.ndarray, users) -> list[float]:
    """Rates of users (an index array in increasing order, or a slice) that
    hold whole pilots, in one masked pass over their rows and columns of
    the coherent matrix: every co-pilot of each of them is among them."""
    _, numerator, noncoherent, noise, coherent = derived(s, _user_terms)
    # Each row adds its co-pilot terms one at a time in user order, as a
    # loop does; the others add +0.0, which changes no nonnegative sum.
    mine = labels[users]
    same = mine[:, None] == mine
    interference = np.cumsum(np.where(same, coherent[users][:, users], 0.0), axis=1)[:, -1]
    terms = (numerator[users], interference, noncoherent[users], noise[users])
    return _from_terms(s, *(x.tolist() for x in terms))


def uplink_rate(s: CfMmimoSystem, a: PilotAssignment, k: int) -> float:
    """Uplink achievable rate of user k in bits/s/Hz.

    (1 - tau/tau_c)/2 * log2(1 + SINR), where the SINR numerator is
    rho_u * eta[k] * (sum of gamma over the serving set squared) and the
    denominator adds coherent interference from users sharing k's pilot,
    non-coherent interference from every user (including k itself), and
    the noise term sum(gamma). Only the coherent term depends on the
    assignment: row k of the per-system coefficients, summed over k's
    co-pilots in user order, as ``uplink_rates`` sums it.
    """
    check_assignment(s, a)
    if not 0 <= k < s.k_users:
        raise IndexError(f"user index {k} out of range [0, {s.k_users})")
    _, numerator, noncoherent, noise, coherent = derived(s, _user_terms)
    labels = np.asarray(a.pilot_of)
    interference = _in_order(coherent[k, labels == labels[k]].tolist())
    terms = ([float(numerator[k])], [interference], [float(noncoherent[k])], [float(noise[k])])
    return _from_terms(s, *terms)[0]


def uplink_rates(s: CfMmimoSystem, a: PilotAssignment) -> list[float]:
    """Uplink rates of all users in user order, in one masked pass."""
    check_assignment(s, a)
    return _rates(s, np.asarray(a.pilot_of), slice(None))


def system_throughput(s: CfMmimoSystem, a: PilotAssignment) -> float:
    """Sum of the uplink rates of all users, added in user order."""
    return _in_order(uplink_rates(s, a))
