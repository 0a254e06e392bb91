#!/usr/bin/env python3
"""Run workloads over several seeds and summarise each metric.

From the root of a checkout:

    python3 benchmarks/collect.py --seeds 1-10 --seconds 20 --out BENCH.json
    python3 benchmarks/collect.py --workloads certify --seeds 1-5 --seconds 20 --trace 1

Each run is a separate `benchmarks/run.py` process, one after another.
For every metric the summary gives the median, the quartiles and the
spread (interquartile distance over the median) of its values; with
--trace 0 it prints each end-to-end metric with its unit, its spread and
a third of its bound from BENCHMARK.json. --out writes every run's
result and details plus the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    detail["process_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), detail


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="a range such as 1-10 or a list such as 3,7")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write all runs and the summary to this JSON file")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, detail = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"process_s={detail['process_s']:.1f}", flush=True)
        summary = summarise([r["result"] for r in runs])
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            line = f"{workload:16s} {name:50s} {s['unit']:6s} median={s['median']:<12.6g} spread={s['spread']:.4f}"
            if name in bounds:
                line += f" bound/3={bounds[name] / 3:.4f}" + ("" if s["spread"] < bounds[name] / 3 else "  WIDE")
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
