"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with `python -m pytest benchmarks`.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The workloads BENCHMARK.json lists, plus certify, which run.py also offers.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["certify"]

# Per-layer metrics each workload must move, which shows that the
# traced run wraps the names pilotkit modules imported from each other.
LOADED = {
    "exact-sweep": ["solvers.brute_force_exact.busy_s", "solvers.brute_force_exact.surjections"],
    "heuristic-scale": ["reductions.pa_to_mkp.float.busy_s", "system_model.uplink_rate.calls"],
    "certify": ["reductions.verify_measure_equality.exact.busy_s", "fileio.bytes_parsed"],
    "cli-pipeline": ["cli.verify.busy_s", "fileio.parse_instance.busy_s", "cli.rejected"],
}


def _bench(workload, trace, cwd=ROOT, bench_dir=BENCH):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, kind):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    detail = json.loads(lines[-2])["detail"]
    assert detail["env"]["python"] and detail["env"]["numpy"] and detail["env"]["nproc"] >= 1
    if trace:
        for name in LOADED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(result["metrics"][m]["value"] != 0 for m in want)
        assert detail["digest_entries"] == detail["pool_size"]


def test_wrong_objective_lowers_ok_share(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    pk = run.load_pilotkit()
    wl = workloads.ExactSweep()
    pool = wl.setup(pk, 3, True, tmp_path)
    phase = run.measure(wl, pk, pool, 0, len(pool))
    clean = run.evaluate(wl, pk, pool, [phase])
    assert clean.failed == 0

    results = phase.records[0][1]["results"]
    pilots, objective, throughput = results["brute"]
    results["brute"] = (pilots, objective * 1.5, throughput)
    wrong = run.evaluate(wl, pk, pool, [phase])
    assert wrong.failed == 1
    assert run.end_to_end(phase, [1.0], wrong)["ok_share"] < 1


def test_exits_nonzero_without_pilotkit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path, bench_dir=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
