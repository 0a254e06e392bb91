#!/usr/bin/env python3
"""Run one pilotkit benchmark workload and print its result.

From the root of a checkout:

    python3 benchmarks/run.py --workload exact-sweep --seed 1 --seconds 35 --trace 0

The inputs come from --seed alone. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1. The line before it holds the details of the run:
environment, output digest and sample counts. README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# setup_s is the median of this many imports plus input generations.
SETUP_REPEATS = 5
# An untimed run goes on past --seconds until this many instances have
# completed, so that at least ten samples lie beyond instance_ms.p90.
MIN_INSTANCES = 100

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("instance_ms.p50", "ms"),
    ("instance_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_pilotkit(fresh=False):
    """Import pilotkit and its six modules; fresh=True imports them anew."""
    if fresh:
        for name in [m for m in sys.modules if m == "pilotkit" or m.startswith("pilotkit.")]:
            del sys.modules[name]
    package = importlib.import_module("pilotkit")
    modules = {layer: importlib.import_module(f"pilotkit.{layer}") for layer in tracing.LAYERS}
    return SimpleNamespace(package=package, **modules)


@dataclass
class Phase:
    """One timed loop: per-instance seconds and (instance, output, error)."""

    times: list = field(default_factory=list)
    records: list = field(default_factory=list)
    wall: float = 0.0

    @property
    def completed(self) -> int:
        return sum(1 for _, out, _ in self.records if out is not None)

    @property
    def per_second(self) -> float:
        return self.completed / self.wall


def measure(wl, pk, pool, seconds, min_instances, tracer=None) -> Phase:
    """Closed loop, one instance at a time, cycling through the pool."""
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while i < min_instances or time.perf_counter() - start < seconds:
        entry = pool[i % len(pool)]
        job = wl.prepare(entry)
        out = error = None
        with tracer.instance_span(i) if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                out = wl.run(pk, job)
            except Exception:
                error = traceback.format_exc()
            phase.times.append(time.perf_counter() - t0)
        if out is not None:
            try:
                out = wl.capture(entry, out)
            except Exception:
                out, error = None, traceback.format_exc()
        phase.records.append((i, out, error))
        i += 1
    phase.wall = time.perf_counter() - start
    return phase


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list
    digest: str
    digest_entries: int
    gap: float


def evaluate(wl, pk, pool, phases) -> Verdict:
    """Check every instance's output.

    The first output of each pool entry gets the workload's full check;
    a later instance on the same entry must reproduce that output exactly.
    The digest covers the first outputs of the first MIN_INSTANCES pool
    entries, which every untraced run completes, so two commits run with
    the same seed can be compared for the same output.
    """
    first: dict = {}
    attempted = failed = 0
    problems = []
    gaps = []
    for phase in phases:
        for i, out, error in phase.records:
            attempted += 1
            key = i % len(pool)
            if error is not None:
                issues = [error.strip().splitlines()[-1]]
            else:
                try:
                    fp = wl.fingerprint(out)
                    if key not in first:
                        issues = wl.check(pk, pool[key], out)
                        first[key] = (fp, not issues)
                        gap = wl.gap(pk, pool[key], out)
                        if gap is not None:
                            gaps.append(gap)
                    elif fp != first[key][0]:
                        issues = [f"output differs from the first output on pool entry {key}"]
                    else:
                        issues = [] if first[key][1] else ["repeats a failed output"]
                except Exception:
                    issues = [traceback.format_exc().strip().splitlines()[-1]]
            if issues:
                failed += 1
                problems.extend(f"instance {i}: {p}" for p in issues)
    covered = [k for k in sorted(first) if k < MIN_INSTANCES]
    digest = hashlib.sha256("\n".join(first[k][0] for k in covered).encode()).hexdigest()
    gap = statistics.fmean(gaps) if gaps else 0.0
    return Verdict(attempted, failed, problems, digest, len(covered), gap)


def end_to_end(phase, setup_times, verdict) -> dict:
    times_ms = [t * 1e3 for t in phase.times]
    p90 = statistics.quantiles(times_ms, n=10)[-1] if len(times_ms) > 1 else times_ms[0]
    return {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": phase.per_second,
        "instance_ms.p50": statistics.median(times_ms),
        "instance_ms.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (verdict.attempted - verdict.failed) / verdict.attempted,
    }


def run(args, workdir):
    wl = workloads.WORKLOADS[args.workload]()
    setup_times, gen_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pk = load_pilotkit(fresh=True)
        with tracing.timing_calls(pk.system_model, "generate_system") if args.trace else nullcontext([0.0]) as gen:
            pool = wl.setup(pk, args.seed, args.tiny, workdir)
        setup_times.append(time.perf_counter() - t0)
        gen_times.append(gen[0])
    if not Path(pk.package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported pilotkit from {pk.package.__file__}, not from {SRC}")

    floor = len(pool) if args.tiny else 1
    if args.trace:
        plain = measure(wl, pk, pool, args.seconds / 2, floor)
        tracer = tracing.Tracer()
        patched = tracing.install(tracer, pk)
        try:
            traced = measure(wl, pk, pool, args.seconds / 2, floor, tracer)
        finally:
            tracing.uninstall(patched)
        phases = [plain, traced]
        verdict = evaluate(wl, pk, pool, phases)
        counts = Counter()
        for i, out, _ in traced.records:
            if out is not None:
                counts.update(wl.counts(pool[i % len(pool)], out))
        metrics = tracing.layer_metrics(tracer, traced.completed, counts)
        metrics["system_model.generate_system.setup_s"] = statistics.median(gen_times)
        metrics["solvers.local_search_move.gap_mean"] = verdict.gap
        # Both phases start at instance 0; compare them over the instances
        # both completed, so the shape mix cannot differ between the two.
        common = min(len(plain.times), len(traced.times))
        metrics["trace.overhead_ratio"] = sum(plain.times[:common]) / sum(traced.times[:common])
        units = dict(tracing.PER_LAYER)
    else:
        phases = [measure(wl, pk, pool, args.seconds, floor if args.tiny else MIN_INSTANCES)]
        verdict = evaluate(wl, pk, pool, phases)
        metrics = end_to_end(phases[0], setup_times, verdict)
        units = dict(END_TO_END)

    times_ms = [t * 1e3 for t in phases[-1].times]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "pool_size": len(pool),
        "instances": [p.completed for p in phases],
        "wall_s": [p.wall for p in phases],
        "samples": len(times_ms),
        "samples_beyond_p90": None if args.trace else sum(t > metrics["instance_ms.p90"] for t in times_ms),
        "setup_s_each": setup_times,
        "digest": verdict.digest,
        "digest_entries": verdict.digest_entries,
        "heuristic_gap_mean": verdict.gap,
        "problems": verdict.problems[:20],
        "computed": list(tracing.COMPUTED) if args.trace else [],
        "env": environment(),
    }
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """Threads of the OpenBLAS library numpy loaded, asked through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny shapes, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: set before pilotkit imports numpy.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pilotkit" / "__init__.py").is_file():
        print(f"error: pilotkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result, detail = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for problem in detail["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
