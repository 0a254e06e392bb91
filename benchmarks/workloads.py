"""The four pilotkit benchmark workloads.

Each workload makes a pool of inputs from the run seed (setup), runs one
instance on one pool entry (run), and checks an instance's output
afterwards (check). Instances cycle through the pool, which is about as
large as the number of instances a run completes, so that each run
averages over many inputs. Systems are handed to an instance as a fresh
object so that a per-object cache inside pilotkit cannot carry work from
one instance to the next.

Shapes are (K users, M APs, tau pilots). README.md explains why each
workload exists and which layers it loads.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Relative tolerance of a float objective against its exact value; the
# same bound pilotkit's float measure-equality check uses.
FLOAT_REL_TOL = 1e-9


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _generate(pk, shape, seed):
    k, m, tau = shape
    cfg = pk.system_model.GenerationConfig(seed=seed)
    return pk.system_model.generate_system(cfg, m, k, tau)


def _value_text(v) -> str:
    """Exact text of a float or Fraction; hex, because a sum of exact pair
    weights can pass Python's 4300-digit limit on decimal conversion."""
    if isinstance(v, Fraction):
        return f"{v.numerator:x}/{v.denominator:x}"
    return repr(v)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_REL_TOL * max(abs(a), abs(b))


class Workload:
    """Defaults for the hooks a workload may leave alone."""

    def prepare(self, entry):
        """Untimed: turn a pool entry into the input of one instance."""
        return entry

    def capture(self, entry, out):
        """Untimed: collect what the instance left outside its return value."""
        return out

    def counts(self, entry, out):
        """Per-layer counts the benchmark reads from an instance's output."""
        return {}

    def gap(self, pk, entry, out):
        """A heuristic's objective over the exact optimum, where one is known."""
        return None

    def pool_shapes(self, tiny):
        """The (K, M, tau) of every pool entry, in order."""
        shapes = self.tiny_shapes if tiny else self.shapes
        return [shapes[i % len(shapes)] for i in range(len(shapes) if tiny else self.pool_size)]


@dataclass
class SystemEntry:
    """A generated system and the seed of its random starting assignment."""

    system: object
    start_seed: int


class SystemWorkload(Workload):
    """A workload whose pool is generated systems, one per instance."""

    def setup(self, pk, seed, tiny, workdir):
        rng = _rng(seed, self.name)
        pool = []
        for shape in self.pool_shapes(tiny):
            system = _generate(pk, shape, rng.randrange(2**31))
            pool.append(SystemEntry(system, rng.randrange(2**31)))
        return pool

    def prepare(self, entry):
        return copy.copy(entry.system), entry.start_seed


class ExactSweep(SystemWorkload):
    """The `pilotkit bench` experiment: exact optimum plus four heuristics."""

    name = "exact-sweep"
    # Three of four instances have 95% surjective labelings; the fourth,
    # 32%, is the slow tail.
    shapes = ((10, 32, 3),) * 3 + ((8, 32, 5),)
    tiny_shapes = ((6, 12, 2),) * 3 + ((5, 12, 3),)
    pool_size = 100

    def run(self, pk, job):
        s, start_seed = job
        sv, sm, ob = pk.solvers, pk.system_model, pk.objective
        brute = sv.brute_force_exact(s)
        greedy = sv.greedy_feasible(s)
        start = sv.random_feasible(s, start_seed)
        ls = sv.local_search_move(s, start)
        wu = sv.greedy_worst_user(s, start)
        results = {}
        for name, a, objective in (
            ("brute", brute.assignment, brute.objective),
            ("greedy", greedy, ob.contamination_objective(s, greedy)),
            ("random", start, ob.contamination_objective(s, start)),
            ("local-search", ls.assignment, ls.objective),
            ("worst-user", wu.assignment, wu.objective),
        ):
            results[name] = (a.pilot_of, objective, sm.system_throughput(s, a))
        reported_throughput = {
            "brute": brute.throughput,
            "local-search": ls.throughput,
            "worst-user": wu.throughput,
        }
        return {
            "results": results,
            "reported_throughput": reported_throughput,
            "surjections": brute.iterations,
        }

    def fingerprint(self, out):
        return json.dumps(
            [[n, list(p), repr(o), repr(t)] for n, (p, o, t) in out["results"].items()]
        )

    def check(self, pk, entry, out):
        s = entry.system
        res = out["results"]
        pilots, opt, _ = res["brute"]
        problems = []
        a = pk.system_model.PilotAssignment(pilots, s.tau_pilots)
        recomputed = pk.objective.contamination_objective(s, a)
        if opt != recomputed:
            problems.append(f"brute objective {opt!r} != recomputed {recomputed!r}")
        expected = pk.solvers.count_surjective_assignments(s.k_users, s.tau_pilots)
        if out["surjections"] != expected:
            problems.append(f"brute visited {out['surjections']} of {expected} surjections")
        for name, (_, objective, _) in res.items():
            if objective < opt:
                problems.append(f"{name} objective {objective!r} below optimum {opt!r}")
        if res["local-search"][1] > res["random"][1]:
            problems.append("local search ended above its starting objective")
        for name, reported in out["reported_throughput"].items():
            if reported != res[name][2]:
                problems.append(f"{name} throughput {reported!r} != {res[name][2]!r}")
        return problems

    def gap(self, pk, entry, out):
        """Local-search objective over the exact optimum."""
        return out["results"]["local-search"][1] / out["results"]["brute"][1]


class HeuristicScale(SystemWorkload):
    """Deployment-scale heuristics from a random start; no exact solver."""

    name = "heuristic-scale"
    # The K=100 quarter is the tail; a change that scales better shows there.
    shapes = ((50, 100, 5),) * 3 + ((100, 200, 8),)
    tiny_shapes = ((12, 24, 3),) * 3 + ((16, 32, 4),)
    pool_size = 150

    def run(self, pk, job):
        s, start_seed = job
        sv, sm, ob = pk.solvers, pk.system_model, pk.objective
        start = sv.random_feasible(s, start_seed)
        out = {"start": start.pilot_of}
        for name, rep in (
            ("local-search", sv.local_search_move(s, start)),
            ("worst-user", sv.greedy_worst_user(s, start)),
        ):
            a = rep.assignment
            out[name] = {
                "pilots": a.pilot_of,
                "objective": ob.contamination_objective(s, a),
                "throughput": sm.system_throughput(s, a),
                "reported": (rep.objective, rep.throughput),
            }
        return out

    def fingerprint(self, out):
        return json.dumps(
            [list(out["start"])]
            + [
                [n, list(out[n]["pilots"]), repr(out[n]["objective"]), repr(out[n]["throughput"])]
                for n in ("local-search", "worst-user")
            ]
        )

    def check(self, pk, entry, out):
        s = entry.system
        sm = pk.system_model
        problems = []
        if out["start"] != pk.solvers.random_feasible(s, entry.start_seed).pilot_of:
            problems.append("random start differs from a fresh draw with the same seed")
        for name in ("local-search", "worst-user"):
            r = out[name]
            if r["reported"] != (r["objective"], r["throughput"]):
                problems.append(f"{name} report {r['reported']!r} != recomputed values")
        start = sm.PilotAssignment(out["start"], s.tau_pilots)
        if out["local-search"]["objective"] > pk.objective.contamination_objective(s, start):
            problems.append("local search ended above its starting objective")
        wu = sm.PilotAssignment(out["worst-user"]["pilots"], s.tau_pilots)
        worst = min(sm.uplink_rate(s, wu, k) for k in range(s.k_users))
        worst_start = min(sm.uplink_rate(s, start, k) for k in range(s.k_users))
        if worst < worst_start:
            problems.append(f"worst-user lowered the minimum rate {worst_start!r} -> {worst!r}")
        return problems


@dataclass
class CertifyEntry:
    text: str
    assignment_seeds: tuple


class Certify(Workload):
    """Exact-rational certificates that the reduction keeps the objective.

    As in acceptance criterion 1, each system is reduced once per mode and
    the verifier is handed that graph.
    """

    name = "certify"
    # Two size classes, 3:1, so that p50 falls inside the small class and
    # p90 inside the large one. A continuum of K = 6..20 put p50 where
    # instance times change fastest with K, and p50 moved by 20% from seed
    # to seed; cycling tau inside a class moved it by 9%.
    shapes = ((10, 32, 2),) * 3 + ((20, 64, 4),)
    tiny_shapes = ((4, 8, 2), (5, 8, 3), (5, 8, 2), (6, 8, 3))
    pool_size = 200
    n_assignments = 5

    def setup(self, pk, seed, tiny, workdir):
        rng = _rng(seed, self.name)
        pool = []
        for shape in self.pool_shapes(tiny):
            s = _generate(pk, shape, rng.randrange(2**31))
            seeds = tuple(rng.randrange(2**31) for _ in range(self.n_assignments))
            pool.append(CertifyEntry(pk.fileio.format_instance(s), seeds))
        return pool

    def run(self, pk, entry):
        fio, rd, sv = pk.fileio, pk.reductions, pk.solvers
        s = fio.parse_instance(entry.text)
        g_float = rd.pa_to_mkp(s)
        g_exact = rd.pa_to_mkp(s, exact=True)
        g_text = fio.format_graph(g_exact)
        round_trip = rd.graphs_equal(g_exact, fio.parse_graph(g_text))
        s_back = rd.mkp_to_pa(g_exact, exact=True)
        checks = []
        for seed in entry.assignment_seeds:
            a = sv.random_feasible(s, seed)
            checks.append(
                (
                    a.pilot_of,
                    rd.verify_measure_equality(s, a, graph=g_float),
                    rd.verify_measure_equality(s, a, exact=True, graph=g_exact),
                    rd.verify_measure_equality(s_back, a, exact=True, graph=g_exact),
                )
            )
        return {
            "users": s.k_users,
            "back_users": s_back.k_users,
            "float_weights": g_float.weights,
            "exact_weights": g_exact.weights,
            "graph_text": g_text,
            "round_trip": round_trip,
            "checks": checks,
        }

    def capture(self, entry, out):
        """Reduce the output to its digest and problems at once.

        Exact values run to thousands of digits; keeping them for every
        instance until the end of the run would make peak_rss_mb measure
        the benchmark rather than pilotkit.
        """
        text = json.dumps(
            [
                _sha(out["graph_text"]),
                out["round_trip"],
                [repr(w) for _, w in sorted(out["float_weights"].items())],
                [
                    [list(p)] + [[_value_text(r.m_pa), _value_text(r.m_mkp), r.passed] for r in reps]
                    for p, *reps in out["checks"]
                ],
            ]
        )
        return {"fingerprint": _sha(text), "problems": self._problems(out)}

    def fingerprint(self, out):
        return out["fingerprint"]

    def check(self, pk, entry, out):
        return out["problems"]

    def _problems(self, out):
        problems = []
        if not out["round_trip"]:
            problems.append("exact graph changed in a format/parse round trip")
        if out["back_users"] != out["users"]:
            problems.append("back-reduced system has a different user count")
        for key, w in out["exact_weights"].items():
            if not _close(out["float_weights"][key], float(w)):
                problems.append(f"float weight of edge {key} far from its exact value")
                break
        for pilots, rep_float, rep_exact, rep_back in out["checks"]:
            for rep in (rep_float, rep_exact, rep_back):
                if not rep.passed:
                    problems.append(f"{rep.mode} measure equality failed for {pilots}")
            if rep_exact.m_pa != rep_back.m_pa:
                problems.append(f"back-reduced exact objective differs for {pilots}")
            if not _close(rep_float.m_pa, float(rep_exact.m_pa)):
                problems.append(f"float objective far from exact for {pilots}")
        return problems


# One instance in five is a malformed input that must exit with code 3.
MALFORMED = ("truncated-instance", "non-surjective-assignment", "wrong-magic")
EXIT_OK, EXIT_VALIDATION = 0, 3


@dataclass
class CliEntry:
    kind: str
    steps: list  # (argv, expected exit code)
    shape: tuple = ()
    gen_seed: int = 0
    solve_seed: int = 0
    files: dict = field(default_factory=dict)


class CliPipeline(Workload):
    """gen -> reduce -> solve -> verify through pilotkit.cli.main, in process."""

    name = "cli-pipeline"
    shape = (20, 64, 4)
    tiny_shape = (6, 12, 2)
    pool_size = 300

    def setup(self, pk, seed, tiny, workdir):
        rng = _rng(seed, self.name)
        k, m, tau = shape = self.tiny_shape if tiny else self.shape
        workdir = Path(workdir)
        base_text = pk.fileio.format_instance(_generate(pk, shape, rng.randrange(2**31)))
        lines = base_text.splitlines(keepends=True)
        inputs = {
            "base": base_text,
            "truncated": "".join(lines[: len(lines) // 2]),
            "wrong-magic": "pa-instance/9\n" + "".join(lines[1:]),
            # Valid header and length, but pilot tau-1 is never used.
            "non-surjective": (
                f"pa-assignment/1\nusers {k}\npilots {tau}\n"
                "assign " + " ".join(str(u % (tau - 1)) for u in range(k)) + "\n"
            ),
        }
        paths = {name: str(workdir / f"{name}.txt") for name in inputs}
        for name, text in inputs.items():
            Path(paths[name]).write_text(text)
        files = {
            name: str(workdir / name)
            for name in ("inst.txt", "graph.txt", "report.csv", "assign.txt", "rates.csv", "pairs.csv")
        }
        malformed = {
            "truncated-instance": ["reduce", "pa-to-mkp", "--in", paths["truncated"], "--out", files["graph.txt"]],
            "non-surjective-assignment": [
                "verify", "--instance", paths["base"], "--assignment", paths["non-surjective"], "--exact",
            ],
            "wrong-magic": [
                "solve", "--instance", paths["wrong-magic"], "--solver", "local-search", "--out", files["report.csv"],
            ],
        }
        size = 5 if tiny else self.pool_size
        pool = []
        for i in range(size):
            if i % 5 == 4:
                kind = MALFORMED[(i // 5) % len(MALFORMED)]
                pool.append(CliEntry(kind, [(malformed[kind], EXIT_VALIDATION)]))
                continue
            gen_seed, solve_seed = rng.randrange(2**31), rng.randrange(2**31)
            steps = [
                ["gen", "--aps", str(m), "--users", str(k), "--pilots", str(tau),
                 "--seed", str(gen_seed), "--out", files["inst.txt"]],
                ["reduce", "pa-to-mkp", "--in", files["inst.txt"], "--out", files["graph.txt"]],
                ["solve", "--instance", files["inst.txt"], "--solver", "local-search",
                 "--seed", str(solve_seed), "--out", files["report.csv"],
                 "--assignment-out", files["assign.txt"], "--rates-out", files["rates.csv"],
                 "--pairs-out", files["pairs.csv"]],
                ["verify", "--instance", files["inst.txt"], "--assignment", files["assign.txt"], "--exact"],
            ]
            pool.append(
                CliEntry("valid", [(argv, EXIT_OK) for argv in steps], shape, gen_seed, solve_seed, files)
            )
        return pool

    def run(self, pk, entry):
        codes = []
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            for argv, expected in entry.steps:
                try:
                    code = pk.cli.main(argv)
                except SystemExit as e:  # argparse usage errors
                    code = e.code
                codes.append(code)
                if code != expected:
                    break
        return {"codes": codes, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def capture(self, entry, out):
        """Read and delete the files an accepted pipeline wrote.

        Deleting them lets the next instance create its files afresh:
        ext4 flushes a file that is truncated and rewritten when it is
        closed, which would add disk latency that users writing new files
        do not see.
        """
        if entry.kind != "valid" or out["codes"] != [EXIT_OK] * len(entry.steps):
            return out
        text = {}
        for name, path in entry.files.items():
            text[name] = Path(path).read_text()
            Path(path).unlink()
        report = list(csv.DictReader(io.StringIO(text["report.csv"])))
        rates = list(csv.DictReader(io.StringIO(text["rates.csv"])))
        out["hashes"] = {n: _sha(text[n]) for n in ("inst.txt", "graph.txt", "assign.txt", "pairs.csv")}
        out["objective"] = float(report[0]["objective"])
        out["rates"] = [float(r["rate"]) for r in rates]
        return out

    def fingerprint(self, out):
        return json.dumps(
            [out["codes"], out.get("hashes"), repr(out.get("objective")), [repr(r) for r in out.get("rates", [])]]
        )

    def _expected(self, pk, entry):
        k, m, tau = entry.shape
        cfg = pk.system_model.GenerationConfig(seed=entry.gen_seed)
        inst_text = pk.fileio.format_instance(pk.system_model.generate_system(cfg, m, k, tau))
        s = pk.fileio.parse_instance(inst_text)
        ls = pk.solvers.local_search_move(s, pk.solvers.random_feasible(s, entry.solve_seed))
        return s, ls, inst_text

    def check(self, pk, entry, out):
        expected_codes = [code for _, code in entry.steps]
        if out["codes"] != expected_codes:
            return [f"{entry.kind}: exit codes {out['codes']} != {expected_codes}"]
        if entry.kind != "valid":
            return [] if "error:" in out["stderr"] else [f"{entry.kind}: no error message"]
        s, ls, inst_text = self._expected(pk, entry)
        a = ls.assignment
        fio = pk.fileio
        want = {
            "inst.txt": _sha(inst_text),
            "graph.txt": _sha(fio.format_graph(pk.reductions.pa_to_mkp(s))),
            "assign.txt": _sha(fio.format_assignment(a)),
            "pairs.csv": _sha(pk.objective.contamination_report(s, a).to_csv()),
        }
        problems = [f"{n} differs from the library's output" for n in want if out["hashes"][n] != want[n]]
        if out["objective"] != float(ls.objective):
            problems.append(f"solve objective {out['objective']!r} != {float(ls.objective)!r}")
        rates = [pk.system_model.uplink_rate(s, a, k) for k in range(s.k_users)]
        if out["rates"] != rates:
            problems.append("rates differ from uplink_rate")
        if not out["stdout"].rstrip().splitlines()[-1].startswith("PASS mode=rational"):
            problems.append("verify did not print an exact PASS")
        return problems

    def counts(self, entry, out):
        expected = [code for _, code in entry.steps]
        return {
            "cli.rejected": out["codes"].count(EXIT_VALIDATION),
            "cli.unexpected_exit": sum(c != e for c, e in zip(out["codes"], expected)),
        }


WORKLOADS = {w.name: w for w in (ExactSweep, HeuristicScale, Certify, CliPipeline)}
