"""Command-line surface: gen, reduce, solve, verify, bench.

Every command is deterministic given its flags; all randomness is
seeded explicitly. Exit codes: 0 success, 2 usage error, 3 validation
or format failure, 4 exact-solver budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import statistics
import sys
import time
from pathlib import Path

from . import fileio
from .objective import contamination_report
from .reductions import (
    _as_float,
    coloring_to_mkp,
    mkp_solution_to_pa,
    mkp_to_pa,
    pa_solution_to_mkp,
    pa_to_mkp,
    verify_measure_equality,
)
from .solvers import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    SolveReport,
    brute_force_exact,
    greedy_feasible,
    greedy_worst_user,
    local_search_move,
    random_feasible,
)
from .system_model import GenerationConfig, generate_system, uplink_rates

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

REPORT_HEADER = ["instance", "solver", "objective", "throughput", "elapsed_s", "certificate"]


def _config_flag(p: argparse.ArgumentParser, flag: str, field: str, help: str) -> None:
    """A generator flag stored as its GenerationConfig field, with that field's default."""
    default = getattr(GenerationConfig, field)
    p.add_argument(flag, dest=field, type=type(default), default=default, help=help)


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    """The generator flags that gen and bench share."""
    p.add_argument("--aps", type=int, required=True, help="number of APs (M)")
    p.add_argument("--users", type=int, required=True, help="number of users (K)")
    p.add_argument("--pilots", type=int, required=True, help="number of pilots (tau)")
    _config_flag(p, "--seed", "seed", "RNG seed; bench's instance i uses seed+i")
    _config_flag(p, "--area", "area_side_m", "square side length in meters")
    _config_flag(p, "--ap-rule", "ap_selection_rule", "AP selection: top:N or energy:THETA")


def _generation_config(args, seed: int) -> GenerationConfig:
    """The declared generator flags as a config with this seed; the rest keep defaults."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(GenerationConfig)
             if hasattr(args, f.name)}
    return GenerationConfig(**{**given, "seed": seed})


def cmd_gen(args) -> int:
    s = generate_system(_generation_config(args, args.seed), args.aps, args.users, args.pilots)
    fileio.write_instance(args.out, s)
    mean_serving = sum(len(a) for a in s.serving_sets) / s.k_users
    print(f"wrote {args.out}: M={s.m_aps} K={s.k_users} tau={s.tau_pilots} "
          f"mean|A(k)|={mean_serving:.2f}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.direction == "pa-to-mkp":
        s = fileio.read_instance(args.infile)
        g = pa_to_mkp(s)
        fileio.write_graph(args.out, g)
        print(
            f"wrote {args.out}: {g.n_vertices} vertices, {len(g.weights)} edges, "
            f"k={g.k_parts}; partition cost on the output equals assignment cost "
            "on the input (scale 1)"
        )
    elif args.direction == "mkp-to-pa":
        g = fileio.read_graph(args.infile)
        s = mkp_to_pa(g, n_dummy_aps=args.dummy_aps)
        fileio.write_instance(args.out, s)
        print(
            f"wrote {args.out}: M={s.m_aps} K={s.k_users} tau={s.tau_pilots}; "
            "assignment cost on the output equals partition cost on the input (scale 1)"
        )
    else:  # color-to-mkp
        g = fileio.read_graph(args.infile)
        unit = coloring_to_mkp(g.n_vertices, g.weights.keys(), g.k_parts)
        fileio.write_graph(args.out, unit)
        print(
            f"wrote {args.out}: unit weights on {len(unit.weights)} edges; optimum 0 "
            f"iff the graph is {unit.k_parts}-colourable"
        )
    return EXIT_OK


def _construction(name: str, construct):
    """Solver entry for a one-shot construction, timed from its start."""

    def solve(s, seed: int, args) -> SolveReport:
        t0 = time.perf_counter()
        return SolveReport.of(s, construct(s, seed), name, t0)

    return solve


# Solver name -> solve(system, seed, args), where args carries the budget,
# max_rounds and max_iters flags that `solve` and `bench` share.
SOLVERS = {
    "brute": lambda s, seed, args: brute_force_exact(s, budget=args.budget),
    "greedy": _construction("greedy", lambda s, seed: greedy_feasible(s)),
    "random": _construction("random", lambda s, seed: random_feasible(s, seed)),
    "worst-user": lambda s, seed, args: greedy_worst_user(
        s, random_feasible(s, seed), max_rounds=args.max_rounds
    ),
    "local-search": lambda s, seed, args: local_search_move(
        s, random_feasible(s, seed), max_iters=args.max_iters
    ),
}
SOLVER_NAMES = tuple(SOLVERS)


def _split_solvers(arg: str) -> list[str]:
    names = [n.strip() for n in arg.split(",") if n.strip()]
    unknown = [n for n in names if n not in SOLVERS]
    if unknown or not names:
        why = f"unknown solver {unknown[0]!r}" if unknown else "need at least one solver"
        raise argparse.ArgumentTypeError(f"{why}; choose from {', '.join(SOLVER_NAMES)}")
    return names


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    """The limits that solve and bench pass to SOLVERS."""
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="max exact enumerations")
    p.add_argument("--max-rounds", type=int, default=100, help="worst-user improvement rounds")
    p.add_argument("--max-iters", type=int, default=10_000, help="local-search move cap")


def _report_row(instance: str, rep: SolveReport) -> list[str]:
    return [instance, rep.solver_name, repr(float(rep.objective)), repr(float(rep.throughput)),
            f"{rep.elapsed_seconds:.6f}", rep.optimality_certificate]


def _write_csv(path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def cmd_solve(args) -> int:
    s = fileio.read_instance(args.instance)
    rows, rate_rows = [], []
    for name in args.solver:
        rep = SOLVERS[name](s, args.seed, args)
        rows.append(_report_row(args.instance, rep))
        if args.rates_out:
            rates = uplink_rates(s, rep.assignment)
            rate_rows += [[args.instance, name, str(k), repr(r)] for k, r in enumerate(rates)]
        if args.assignment_out:
            fileio.write_assignment(args.assignment_out, rep.assignment)
        if args.pairs_out:
            Path(args.pairs_out).write_text(contamination_report(s, rep.assignment).to_csv())
        print(
            f"{name}: objective={float(rep.objective):.6g} "
            f"throughput={rep.throughput:.6g} [{rep.optimality_certificate}]"
        )
    _write_csv(args.out, REPORT_HEADER, rows)
    if args.rates_out:
        _write_csv(args.rates_out, ["instance", "solver", "user", "rate"], rate_rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.instance:
        s = fileio.read_instance(args.instance)
        a = fileio.read_assignment(args.assignment)
        rep = verify_measure_equality(s, a, exact=args.exact)
    else:
        g = fileio.read_graph(args.graph)
        p = fileio.read_partition(args.partition)
        s = mkp_to_pa(g, exact=args.exact)
        a = mkp_solution_to_pa(p)
        rep = verify_measure_equality(s, a, exact=args.exact, graph=g)
    status = "PASS" if rep.passed else "FAIL"
    print(
        f"{status} mode={rep.mode} m_pa={_as_float(rep.m_pa)!r} "
        f"m_mkp={_as_float(rep.m_mkp)!r} rel_diff={rep.rel_diff:.3e}"
    )
    return EXIT_OK if rep.passed else EXIT_VALIDATION


def cmd_bench(args) -> int:
    rows = []
    ratios: dict[str, list[float]] = {n: [] for n in args.solvers if n != "brute"}
    for i in range(args.count):
        seed = args.seed + i
        s = generate_system(_generation_config(args, seed), args.aps, args.users, args.pilots)
        instance = f"gen-{seed}"
        reports = {name: SOLVERS[name](s, seed, args) for name in args.solvers}
        rows += [_report_row(instance, reports[name]) for name in args.solvers]
        if "brute" in reports:
            opt = float(reports["brute"].objective)
            for name, rs in ratios.items():
                obj = float(reports[name].objective)
                rs.append(obj / opt if opt else (1.0 if obj <= 1e-12 else float("inf")))
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(args.out, REPORT_HEADER, rows)
    print(f"wrote {args.out}: {len(rows)} rows over {args.count} instances")
    if args.summary_out and any(ratios.values()):
        summary = [
            [name, str(len(rs)), repr(statistics.fmean(rs)), repr(max(rs))]
            for name, rs in sorted(ratios.items())
            if rs
        ]
        _write_csv(args.summary_out, ["solver", "n_instances", "mean_ratio", "max_ratio"], summary)
        print(f"wrote {args.summary_out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotkit",
        description="Pilot assignment for cell-free massive MIMO: generate, reduce, solve, verify, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    _add_instance_flags(p)
    _config_flag(p, "--pathloss", "pathloss_exponent", "path-loss exponent")
    _config_flag(p, "--shadow-db", "shadowing_sigma_db", "shadowing std dev in dB")
    _config_flag(p, "--rho-u", "rho_u", "normalized uplink SNR")
    _config_flag(p, "--tau-c", "tau_c", "coherence interval in symbols")
    _config_flag(p, "--eta-policy", "eta_policy", "full (eta = 1) or uniform (eta = 1/K)")
    p.add_argument("--out", required=True, help="output instance path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="transform between instance and graph files")
    p.add_argument("direction", choices=("pa-to-mkp", "mkp-to-pa", "color-to-mkp"))
    p.add_argument("--in", dest="infile", required=True, help="input path")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--dummy-aps", type=int, default=0, help="extra all-zero AP columns (mkp-to-pa)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="run solvers on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--solver", type=_split_solvers, required=True,
                   help="comma list from: " + ", ".join(SOLVER_NAMES))
    p.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--rates-out", help="per-user rate CSV path")
    p.add_argument("--assignment-out", help="write the solution assignment (single solver)")
    p.add_argument("--pairs-out", help="per-pair contamination CSV path (single solver)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check measure equality of a reduced pair")
    p.add_argument("--instance", help="instance file (with --assignment)")
    p.add_argument("--assignment", help="assignment file")
    p.add_argument("--graph", help="graph file (with --partition)")
    p.add_argument("--partition", help="partition file")
    p.add_argument("--exact", action="store_true", help="rational-arithmetic certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="benchmark solvers over seeded instances")
    p.add_argument("--count", type=int, required=True, help="number of instances")
    _add_instance_flags(p)
    p.add_argument("--solvers", type=_split_solvers, default="brute,greedy,random,local-search")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--summary-out", help="aggregate gap-statistics CSV path")
    p.set_defaults(func=cmd_bench)

    return parser


# parse_args keeps no state in the parser (a fresh namespace per call, no
# append defaults), so in-process callers can share one
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command and return its exit code; a usage error exits with
    code 2 through argparse. All calls in a process share one parser."""
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        given = [bool(x) for x in (args.instance, args.assignment, args.graph, args.partition)]
        if given not in ([True, True, False, False], [False, False, True, True]):
            parser.error("verify wants --instance with --assignment, or --graph with --partition")
    if args.command == "solve" and len(args.solver) != 1:
        if args.assignment_out:
            parser.error("--assignment-out needs exactly one solver")
        if args.pairs_out:
            parser.error("--pairs-out needs exactly one solver")
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as e:  # FormatError and the label errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
