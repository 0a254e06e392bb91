"""Versioned text formats for instances, graphs, assignments, partitions.

All formats are line-oriented, diffable, and 0-indexed. Blank lines and
lines starting with ``#`` are ignored. Floats are written with their
shortest round-trip representation, so parse(serialize(x)) is
value-exact; graph weights may also be integers or rationals ``p/q``.

    pa-instance/1            mkp-graph/1          pa-assignment/1
    aps 4                    vertices 3           users 3
    users 2                  parts 2              pilots 2
    pilots 2                 edge 0 1 1           assign 0 1 0
    rho_u 100.0              edge 1 2 1/2
    tau_c 200                                     mkp-partition/1
    eta 1.0 1.0              (omitted edge        vertices 3
    serve 0 1                weights default      parts 2
    serve 2 3                to 1)                assign 0 1 0
    beta <M floats> x K
    gamma <M floats> x K

A gamma that is bit for bit the default estimate of beta (as ``gen`` and
``reduce mkp-to-pa`` build it) is the one line ``gamma default`` under the
header ``pa-instance/2``, rebuilt on reading from beta, rho_u and pilots, so
a hand-edited beta changes it too. Any other gamma is written as rows under
``pa-instance/1``, as before; both read. Older pilotkit refuses ``/2`` (exit 3).

Assignment and partition files share one form: a labels line plus its
dimensions.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from .reductions import Partition, WeightedGraph
from .system_model import CfMmimoSystem, PilotAssignment, _gamma_from_beta

__all__ = [
    "FormatError",
    "format_instance",
    "parse_instance",
    "format_graph",
    "parse_graph",
    "format_assignment",
    "parse_assignment",
    "format_partition",
    "parse_partition",
    "read_instance",
    "write_instance",
    "read_graph",
    "write_graph",
    "read_assignment",
    "write_assignment",
    "read_partition",
    "write_partition",
]

INSTANCE_MAGIC = "pa-instance/1"
DEFAULT_GAMMA_MAGIC = "pa-instance/2"
GRAPH_MAGIC = "mkp-graph/1"
ASSIGNMENT_MAGIC = "pa-assignment/1"
PARTITION_MAGIC = "mkp-partition/1"


class FormatError(ValueError):
    """Malformed or mismatched input text."""


def _fmt_float(x) -> str:
    return repr(float(x))


def _fmt_weight(w) -> str:
    if isinstance(w, Fraction):
        return f"{w.numerator}/{w.denominator}"
    if isinstance(w, int):
        return str(w)
    return _fmt_float(w)


def _weight(token: str):
    if "/" in token:
        return Fraction(token)
    try:
        return int(token)
    except ValueError:
        return float(token)


class _Lines:
    def __init__(self, text: str, *magics: str):
        self.rows = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
        if not self.rows or self.rows[0] not in magics:
            found = self.rows[0] if self.rows else "<empty>"
            raise FormatError(f"expected header {' or '.join(map(repr, magics))}, found {found!r}")
        self.pos = 1

    def take(self, key: str, conv=int, count: int | None = None) -> list:
        """The values of the next line, which must read ``key v1 v2 ...``:
        each token converted with conv, and count of them if count is given."""
        if self.pos >= len(self.rows):
            raise FormatError(f"unexpected end of input, expected {key!r} line")
        found, *tokens = self.rows[self.pos].split()
        if found != key:
            raise FormatError(f"expected {key!r} line, found {self.rows[self.pos]!r}")
        self.pos += 1
        try:
            values = list(map(conv, tokens))
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"bad value in {key} line: {e}") from e
        if count is not None and len(values) != count:
            raise FormatError(f"{key} row has {len(values)} entries, expected {count}")
        return values

    def one(self, key: str, conv=int):
        return self.take(key, conv, 1)[0]

    def peek_key(self) -> str | None:
        if self.pos >= len(self.rows):
            return None
        return self.rows[self.pos].split()[0]

    def done(self) -> None:
        if self.pos != len(self.rows):
            raise FormatError(f"trailing content: {self.rows[self.pos]!r}")


def _default_gamma(beta: np.ndarray, rho_u: float, tau: int) -> np.ndarray | None:
    try:  # the gamma generate_system and mkp_to_pa build; None if tau is beyond float range
        with np.errstate(all="ignore"):  # validate_system judges an invalid beta
            return _gamma_from_beta(beta, rho_u, tau)
    except OverflowError:
        return None


def format_instance(s: CfMmimoSystem) -> str:
    rho_u = _fmt_float(s.rho_u)
    default = _default_gamma(s.beta, float(rho_u), s.tau_pilots)  # as the reader rebuilds it
    is_default = default is not None and np.array_equal(s.gamma.view("u8"), default.view("u8"))
    out = [DEFAULT_GAMMA_MAGIC if is_default else INSTANCE_MAGIC, f"aps {s.m_aps}"]
    out += [f"users {s.k_users}", f"pilots {s.tau_pilots}", f"rho_u {rho_u}", f"tau_c {s.tau_c}"]
    out.append("eta " + " ".join(map(repr, s.eta.tolist())))
    out.extend("serve " + " ".join(map(str, aps)) for aps in s.serving_sets)
    out.extend("beta " + " ".join(map(repr, row)) for row in s.beta.tolist())
    if is_default:
        out.append("gamma default")
    else:
        out.extend("gamma " + " ".join(map(repr, row)) for row in s.gamma.tolist())
    return "\n".join(out) + "\n"


def parse_instance(text: str) -> CfMmimoSystem:
    ln = _Lines(text, INSTANCE_MAGIC, DEFAULT_GAMMA_MAGIC)
    m, k, tau = ln.one("aps"), ln.one("users"), ln.one("pilots")
    rho_u, tau_c = ln.one("rho_u", float), ln.one("tau_c")
    eta = ln.take("eta", float, k)
    serving = tuple(tuple(ln.take("serve")) for _ in range(k))
    beta = np.array([ln.take("beta", float, m) for _ in range(k)])
    if ln.rows[0] == DEFAULT_GAMMA_MAGIC:
        if ln.one("gamma", str) != "default":
            raise FormatError(f"{DEFAULT_GAMMA_MAGIC} wants the line 'gamma default'")
        gamma = _default_gamma(beta, rho_u, tau)
        if gamma is None:
            raise FormatError(f"pilots {tau} is beyond float range for 'gamma default'")
    else:
        gamma = np.array([ln.take("gamma", float, m) for _ in range(k)])
    ln.done()
    eta = np.array(eta)
    for arr in (beta, gamma, eta):
        arr.setflags(write=False)  # read-only, so the system keeps them without a copy
    return CfMmimoSystem(
        m_aps=m,
        k_users=k,
        tau_pilots=tau,
        beta=beta,
        serving_sets=serving,
        gamma=gamma,
        eta=eta,
        rho_u=rho_u,
        tau_c=tau_c,
    )


def format_graph(g: WeightedGraph) -> str:
    out = [GRAPH_MAGIC, f"vertices {g.n_vertices}", f"parts {g.k_parts}"]
    for (i, j) in sorted(g.weights):
        out.append(f"edge {i} {j} {_fmt_weight(g.weights[(i, j)])}")
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> WeightedGraph:
    ln = _Lines(text, GRAPH_MAGIC)
    n, k = ln.one("vertices"), ln.one("parts")
    edges = []
    while ln.peek_key() == "edge":
        # endpoints parse like weights; WeightedGraph refuses a non-integer one
        values = ln.take("edge", _weight)
        if len(values) not in (2, 3):
            raise FormatError(f"edge line wants 'i j [weight]', got {values}")
        edges.append((tuple(values[:2]), values[2] if len(values) == 3 else 1))
    ln.done()
    try:
        g = WeightedGraph(n, k, dict(edges))
    except ValueError as e:
        raise FormatError(str(e)) from e
    if len(g.weights) != len(edges):
        raise FormatError(f"duplicate edge: {len(edges)} edge lines name {len(g.weights)} edges")
    return g


def _format_labels(magic: str, items: str, parts: str, labels: tuple[int, ...], n: int) -> str:
    return f"{magic}\n{items} {len(labels)}\n{parts} {n}\nassign {' '.join(map(str, labels))}\n"


def _parse_labels(text: str, magic: str, items: str, parts: str) -> tuple[tuple[int, ...], int]:
    """The labels and the label count of an assignment or partition file."""
    ln = _Lines(text, magic)
    n, k = ln.one(items), ln.one(parts)
    labels = ln.take("assign")
    ln.done()
    if len(labels) != n:
        raise FormatError(f"assign lists {len(labels)} {items}, header says {n}")
    return tuple(labels), k


def format_assignment(a: PilotAssignment) -> str:
    return _format_labels(ASSIGNMENT_MAGIC, "users", "pilots", a.pilot_of, a.n_pilots)


def parse_assignment(text: str) -> PilotAssignment:
    return PilotAssignment(*_parse_labels(text, ASSIGNMENT_MAGIC, "users", "pilots"))


def format_partition(p: Partition) -> str:
    return _format_labels(PARTITION_MAGIC, "vertices", "parts", p.block_of, p.n_blocks)


def parse_partition(text: str) -> Partition:
    return Partition(*_parse_labels(text, PARTITION_MAGIC, "vertices", "parts"))


def read_instance(path) -> CfMmimoSystem:
    return parse_instance(Path(path).read_text())


def write_instance(path, s: CfMmimoSystem) -> None:
    Path(path).write_text(format_instance(s))


def read_graph(path) -> WeightedGraph:
    return parse_graph(Path(path).read_text())


def write_graph(path, g: WeightedGraph) -> None:
    Path(path).write_text(format_graph(g))


def read_assignment(path) -> PilotAssignment:
    return parse_assignment(Path(path).read_text())


def write_assignment(path, a: PilotAssignment) -> None:
    Path(path).write_text(format_assignment(a))


def read_partition(path) -> Partition:
    return parse_partition(Path(path).read_text())


def write_partition(path, p: Partition) -> None:
    Path(path).write_text(format_partition(p))
