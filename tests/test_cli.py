import csv
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pilotkit
from pilotkit import cli, contamination_objective, graphs_equal, uplink_rates
from pilotkit.cli import SOLVER_NAMES, _generation_config, build_parser, main
from pilotkit.fileio import (
    format_assignment,
    format_graph,
    read_assignment,
    read_graph,
    read_instance,
    write_graph,
    write_instance,
)
from pilotkit import GenerationConfig, PilotAssignment, WeightedGraph, mkp_to_pa, validate_system

from conftest import count_validations


def run(*argv):
    return main([str(a) for a in argv])


def run_fresh(*argv):
    """The CLI in a fresh interpreter that shows every warning on stderr."""
    path = [str(Path(pilotkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "pilotkit.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def gen_instance(tmp_path, name="inst.txt", **overrides):
    path = tmp_path / name
    args = {
        "aps": 12,
        "users": 5,
        "pilots": 2,
        "seed": 42,
    }
    args.update(overrides)
    code = run(
        "gen",
        "--aps", args["aps"],
        "--users", args["users"],
        "--pilots", args["pilots"],
        "--seed", args["seed"],
        "--out", path,
    )
    assert code == 0
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _zero_links(*links):
    return "; ".join(f"zero coefficient on serving link: beta[{k}, {m}] = 0.0" for k, m in links)


# Generator inputs that build an invalid system at (M, K, tau) = (8, 4, 2),
# and the exact line each leaves on stderr.
REFUSED_GEN = {
    ("--rho-u", "1e308"): "error: invalid system: gamma contains non-finite entries\n",
    ("--area", "inf"): "error: area side must be positive and finite, got inf\n",
    ("--pathloss", "inf"): f"error: invalid system: {_zero_links(*((k, 0) for k in range(4)))}\n",
    ("--pathloss", "nan"): "error: invalid system: beta contains non-finite entries\n",
    ("--pathloss=-1e308",): (
        "error: invalid system: beta contains non-finite entries; "
        "gamma contains non-finite entries\n"
    ),
    ("--pathloss=-50",): "error: invalid system: gamma contains non-finite entries\n",
    # a nan fading (distance floored to 1 m, inf * 0 dB) among zeros: the
    # energy rule serves each user up to the nan, which sorts last
    ("--area", "2", "--pathloss", "1e308"): (
        "error: invalid system: beta contains non-finite entries; " + _zero_links(
            (0, 1), (0, 4), (0, 5), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 0), (2, 2)
        ) + "; and 8 more serving-set violations\n"
    ),
}


class TestGen:
    def test_writes_valid_instance(self, tmp_path, capsys):
        path = gen_instance(tmp_path)
        assert validate_system(read_instance(path)).ok
        out = capsys.readouterr().out
        assert "M=12 K=5 tau=2" in out

    def test_deterministic_files(self, tmp_path):
        p1 = gen_instance(tmp_path, "a.txt")
        p2 = gen_instance(tmp_path, "b.txt")
        assert p1.read_text() == p2.read_text()

    def test_pilots_exceed_users_is_validation_failure(self, tmp_path, capsys):
        code = run("gen", "--aps", 8, "--users", 4, "--pilots", 5,
                   "--out", tmp_path / "x.txt")
        assert code == 3
        assert "exceeds user count" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--aps", 8, "--users", 4, "--out", tmp_path / "x.txt")
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", list(REFUSED_GEN))
    def test_unusable_generator_input_is_validation_failure(self, tmp_path, capsys, flags):
        code = run("gen", "--aps", 8, "--users", 4, "--pilots", 2, *flags,
                   "--out", tmp_path / "x.txt")
        assert code == 3
        assert capsys.readouterr().err == REFUSED_GEN[flags]
        assert not (tmp_path / "x.txt").exists()

    def test_top_rule_beyond_float_range_takes_every_ap(self, tmp_path):
        # N stays an int, so top:10**400 at M = 12 writes the top:12 file
        files = []
        for n in (10**400, 12):
            files.append(tmp_path / f"top{len(files)}.txt")
            assert run("gen", "--aps", 12, "--users", 5, "--pilots", 2, "--seed", 3,
                       "--ap-rule", f"top:{n}", "--out", files[-1]) == 0
        assert files[0].read_bytes() == files[1].read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (("--eta-policy", "x"), "error: unknown eta policy 'x'"),
        (("--ap-rule", "x"), "error: invalid AP selection rule 'x'"),
    ])
    def test_unknown_generator_rule_exits_3(self, tmp_path, capsys, flags, message):
        # the generator alone states its rules; the parser restates none
        code = run("gen", *GEN_SIZES, *flags, "--out", tmp_path / "x.txt")
        assert code == 3
        assert capsys.readouterr().err.startswith(message)

    def test_many_zero_serving_links_stay_a_short_line(self, tmp_path, capsys):
        # 50 zero serving links: ten are listed, the rest counted
        code = run("gen", "--aps", 100, "--users", 50, "--pilots", 2, "--pathloss", "inf",
                   "--out", tmp_path / "x.txt")
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert err.startswith("error: invalid system: zero coefficient on serving link: beta[0, 0]")
        assert err.rstrip().endswith("and 40 more serving-set violations")


GEN_SIZES = ["--aps", "8", "--users", "4", "--pilots", "2"]


class TestGeneratorFlags:
    """Every GenerationConfig the CLI builds comes from the parsed flags;
    a flag left out keeps GenerationConfig's default."""

    @pytest.mark.parametrize("argv", [
        ["gen", *GEN_SIZES, "--out", "x.txt"],
        ["bench", "--count", "1", *GEN_SIZES, "--out", "x.csv"],
    ])
    def test_defaults_are_generation_config_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert args.seed == GenerationConfig().seed
        assert _generation_config(args, 5) == GenerationConfig(seed=5)

    def test_gen_sets_every_field(self):
        args = build_parser().parse_args([
            "gen", *GEN_SIZES, "--out", "x.txt", "--seed", "3", "--area", "500",
            "--ap-rule", "top:2", "--pathloss", "3", "--shadow-db", "4", "--rho-u", "1e9",
            "--tau-c", "50", "--eta-policy", "uniform",
        ])
        assert _generation_config(args, args.seed) == GenerationConfig(
            area_side_m=500.0, seed=3, pathloss_exponent=3.0, shadowing_sigma_db=4.0,
            ap_selection_rule="top:2", rho_u=1e9, tau_c=50, eta_policy="uniform",
        )


class TestReduce:
    def test_pa_mkp_round_trip(self, tmp_path):
        inst = gen_instance(tmp_path)
        graph = tmp_path / "g.txt"
        back = tmp_path / "back.txt"
        graph2 = tmp_path / "g2.txt"
        assert run("reduce", "pa-to-mkp", "--in", inst, "--out", graph) == 0
        assert run("reduce", "mkp-to-pa", "--in", graph, "--out", back) == 0
        assert run("reduce", "pa-to-mkp", "--in", back, "--out", graph2) == 0
        g, g2 = read_graph(graph), read_graph(graph2)
        assert g.n_vertices == g2.n_vertices and g.k_parts == g2.k_parts
        for key, w in g.weights.items():
            assert g2.weights[key] == pytest.approx(w, rel=1e-9)

    def test_mkp_to_pa_writes_default_gamma_and_verifies(self, tmp_path):
        inst = gen_instance(tmp_path)
        graph, back, asg = tmp_path / "g.txt", tmp_path / "back.txt", tmp_path / "a.txt"
        assert run("reduce", "pa-to-mkp", "--in", inst, "--out", graph) == 0
        assert run("reduce", "mkp-to-pa", "--in", graph, "--out", back) == 0
        text = back.read_text()
        assert text.startswith("pa-instance/2\n") and text.endswith("\ngamma default\n")
        assert run("solve", "--instance", back, "--solver", "greedy",
                   "--out", tmp_path / "r.csv", "--assignment-out", asg) == 0
        assert run("verify", "--instance", back, "--assignment", asg, "--exact") == 0

    def test_mkp_to_pa_weight_eight(self, tmp_path):
        gpath = tmp_path / "pair.txt"
        write_graph(gpath, WeightedGraph(2, 2, {(0, 1): 8}))
        out = tmp_path / "inst.txt"
        assert run("reduce", "mkp-to-pa", "--in", gpath, "--out", out) == 0
        s = read_instance(out)
        assert s.beta[0, 1] == s.beta[1, 0] == 2.0

    def test_color_to_mkp_then_solve_reaches_zero(self, tmp_path):
        gpath = tmp_path / "tri.txt"
        gpath.write_text(
            "mkp-graph/1\nvertices 3\nparts 3\nedge 0 1\nedge 0 2\nedge 1 2\n"
        )
        unit = tmp_path / "unit.txt"
        assert run("reduce", "color-to-mkp", "--in", gpath, "--out", unit) == 0
        inst = tmp_path / "inst.txt"
        assert run("reduce", "mkp-to-pa", "--in", unit, "--out", inst) == 0
        report = tmp_path / "r.csv"
        assert run("solve", "--instance", inst, "--solver", "brute", "--out", report) == 0
        rows = read_csv(report)
        assert float(rows[1][2]) == pytest.approx(0.0, abs=1e-12)

    def test_format_mismatch(self, tmp_path):
        inst = gen_instance(tmp_path)
        code = run("reduce", "mkp-to-pa", "--in", inst, "--out", tmp_path / "x.txt")
        assert code == 3

    def test_nan_weight_is_validation_failure(self, tmp_path, capsys):
        gpath = tmp_path / "nan.txt"
        gpath.write_text("mkp-graph/1\nvertices 3\nparts 2\nedge 0 1 nan\nedge 1 2\n")
        out = tmp_path / "x.txt"
        assert run("reduce", "mkp-to-pa", "--in", gpath, "--out", out) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_weight_beyond_float_range_is_validation_failure(self, tmp_path, capsys):
        gpath = tmp_path / "big.txt"
        write_graph(gpath, WeightedGraph(3, 2, {(0, 1): 1, (1, 2): 10**400}))
        out = tmp_path / "x.txt"
        assert run("reduce", "mkp-to-pa", "--in", gpath, "--out", out) == 3
        assert "edge (1, 2) is beyond float range" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_brute_on_triangle_reduction(self, tmp_path, capsys):
        gpath = tmp_path / "tri.txt"
        gpath.write_text(
            "mkp-graph/1\nvertices 3\nparts 2\nedge 0 1 1\nedge 0 2 1\nedge 1 2 1\n"
        )
        inst = tmp_path / "inst.txt"
        run("reduce", "mkp-to-pa", "--in", gpath, "--out", inst)
        report = tmp_path / "r.csv"
        assert run("solve", "--instance", inst, "--solver", "brute", "--out", report) == 0
        rows = read_csv(report)
        assert rows[0] == ["instance", "solver", "objective", "throughput", "elapsed_s", "certificate"]
        assert float(rows[1][2]) == pytest.approx(1.0, rel=1e-9)
        assert rows[1][5] == "exact"

    def test_report_matches_recomputed_objective(self, tmp_path):
        inst = gen_instance(tmp_path)
        report = tmp_path / "r.csv"
        asg = tmp_path / "a.txt"
        assert run(
            "solve", "--instance", inst, "--solver", "local-search",
            "--out", report, "--assignment-out", asg,
        ) == 0
        s = read_instance(inst)
        a = read_assignment(asg)
        row = read_csv(report)[1]
        assert float(row[2]) == contamination_objective(s, a)

    def test_greedy_always_succeeds(self, tmp_path):
        inst = gen_instance(tmp_path)
        assert run("solve", "--instance", inst, "--solver", "greedy",
                   "--out", tmp_path / "r.csv") == 0

    def test_multiple_solvers_and_rates(self, tmp_path):
        inst = gen_instance(tmp_path)
        report = tmp_path / "r.csv"
        rates = tmp_path / "rates.csv"
        assert run(
            "solve", "--instance", inst, "--solver", "brute,greedy,random",
            "--out", report, "--rates-out", rates,
        ) == 0
        assert len(read_csv(report)) == 4  # header + 3 solvers
        assert len(read_csv(rates)) == 1 + 3 * 5

    def test_rates_only_with_rates_out(self, tmp_path, monkeypatch):
        inst = gen_instance(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "uplink_rates", lambda *a: calls.append(a) or uplink_rates(*a))
        solve = ("solve", "--instance", inst, "--solver", "greedy,local-search",
                 "--out", tmp_path / "r.csv")
        assert run(*solve) == 0
        assert calls == []
        assert run(*solve, "--rates-out", tmp_path / "rates.csv") == 0
        assert len(calls) == 2 and len(read_csv(tmp_path / "rates.csv")) == 1 + 2 * 5

    def test_pairs_out_matches_objective(self, tmp_path):
        inst = gen_instance(tmp_path)
        report = tmp_path / "r.csv"
        pairs = tmp_path / "pairs.csv"
        assert run(
            "solve", "--instance", inst, "--solver", "greedy",
            "--out", report, "--pairs-out", pairs,
        ) == 0
        lines = pairs.read_text().strip().splitlines()
        assert lines[0] == "pair_i,pair_j,weight"
        total = float(lines[-1].split(",")[2])
        assert total == float(read_csv(report)[1][2])

    def test_pairs_out_needs_single_solver(self, tmp_path):
        inst = gen_instance(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("solve", "--instance", inst, "--solver", "greedy,random",
                "--out", tmp_path / "r.csv", "--pairs-out", tmp_path / "p.csv")
        assert exc.value.code == 2

    def test_unknown_solver_is_usage_error(self, tmp_path):
        inst = gen_instance(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("solve", "--instance", inst, "--solver", "annealing",
                "--out", tmp_path / "r.csv")
        assert exc.value.code == 2

    @pytest.mark.parametrize("solver", SOLVER_NAMES)
    def test_zero_beta_on_serving_link_is_validation_failure(self, tmp_path, capsys, solver):
        inst = gen_instance(tmp_path)
        m = read_instance(inst).serving_sets[0][0]
        text = inst.read_text()
        row = next(ln for ln in text.splitlines() if ln.startswith("beta "))
        cells = row.split()
        cells[1 + m] = "0.0"
        inst.write_text(text.replace(row, " ".join(cells)))
        code = run("solve", "--instance", inst, "--solver", solver, "--out", tmp_path / "r.csv")
        assert code == 3
        assert "invalid system" in capsys.readouterr().err

    def test_overflowed_brute_optimum_is_validation_failure(self, tmp_path, capsys):
        g = WeightedGraph(3, 1, {(0, 1): 1e308, (1, 2): 1e308, (0, 2): 1e308})
        inst = tmp_path / "inst.txt"
        write_instance(inst, mkp_to_pa(g))
        report = tmp_path / "r.csv"
        assert run("solve", "--instance", inst, "--solver", "brute", "--out", report) == 3
        assert "not finite" in capsys.readouterr().err
        assert not report.exists()

    def test_overflowed_local_search_prints_no_warning(self, tmp_path):
        weights = {(0, 1): 1e308, (0, 2): 1e308, (0, 3): 1e308, (1, 2): 1e308, (1, 3): 1e308}
        inst = tmp_path / "inst.txt"
        write_instance(inst, mkp_to_pa(WeightedGraph(4, 2, {**weights, (2, 3): 1.0})))
        proc = run_fresh(
            "solve", "--instance", inst, "--solver", "local-search", "--out", tmp_path / "r.csv"
        )
        assert proc.returncode == 0 and "objective=inf" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr, proc.stderr

    def test_budget_refusal_exit_code(self, tmp_path, capsys):
        inst = gen_instance(tmp_path, users=8, aps=16)
        code = run("solve", "--instance", inst, "--solver", "brute",
                   "--budget", 10, "--out", tmp_path / "r.csv")
        assert code == 4
        assert "254" in capsys.readouterr().err  # 2^8 - 2 assignments needed


class TestVerify:
    def test_instance_assignment_pass(self, tmp_path, capsys):
        inst = gen_instance(tmp_path)
        asg = tmp_path / "a.txt"
        run("solve", "--instance", inst, "--solver", "greedy",
            "--out", tmp_path / "r.csv", "--assignment-out", asg)
        assert run("verify", "--instance", inst, "--assignment", asg) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("PASS mode=float")
        assert run("verify", "--instance", inst, "--assignment", asg, "--exact") == 0

    def test_tampered_beta_fails_with_location(self, tmp_path, capsys):
        inst = gen_instance(tmp_path)
        asg = tmp_path / "a.txt"
        run("solve", "--instance", inst, "--solver", "greedy",
            "--out", tmp_path / "r.csv", "--assignment-out", asg)
        s = read_instance(inst)
        m = s.serving_sets[0][0]
        text = inst.read_text()
        row = next(ln for ln in text.splitlines() if ln.startswith("beta "))
        cells = row.split()
        cells[1 + m] = "0.0"
        inst.write_text(text.replace(row, " ".join(cells)))
        capsys.readouterr()
        assert run("verify", "--instance", inst, "--assignment", asg) == 3
        out, err = capsys.readouterr()
        # refused on stderr, like every other command's invalid system
        assert out == ""
        assert err.startswith("error: invalid system: ") and f"[0, {m}]" in err

    def test_gamma_section_must_match_the_header(self, tmp_path, capsys):
        inst = gen_instance(tmp_path)
        asg = tmp_path / "a.txt"
        run("solve", "--instance", inst, "--solver", "greedy",
            "--out", tmp_path / "r.csv", "--assignment-out", asg)
        text = inst.read_text()
        assert text.startswith("pa-instance/2\n") and text.endswith("\ngamma default\n")
        gamma = read_instance(inst).gamma.tolist()
        rows = "".join("gamma " + " ".join(map(repr, row)) + "\n" for row in gamma)
        for bad in (text.replace("pa-instance/2", "pa-instance/1"), text.replace("gamma default\n", rows)):
            inst.write_text(bad)
            capsys.readouterr()
            assert run("verify", "--instance", inst, "--assignment", asg, "--exact") == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ")
        # the same system in the row form still reads
        inst.write_text(text.replace("pa-instance/2", "pa-instance/1").replace("gamma default\n", rows))
        assert run("verify", "--instance", inst, "--assignment", asg, "--exact") == 0

    def test_valid_instance_is_validated_once(self, tmp_path, monkeypatch):
        inst = gen_instance(tmp_path)
        asg = tmp_path / "a.txt"
        run("solve", "--instance", inst, "--solver", "greedy",
            "--out", tmp_path / "r.csv", "--assignment-out", asg)
        judged = count_validations(monkeypatch)
        for exact in ((), ("--exact",)):
            judged.clear()
            assert run("verify", "--instance", inst, "--assignment", asg, *exact) == 0
            assert list(judged.values()) == [1]

    def test_graph_partition_mode(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text(
            "mkp-graph/1\nvertices 3\nparts 2\nedge 0 1 1/2\nedge 1 2 3\n"
        )
        ppath = tmp_path / "p.txt"
        ppath.write_text("mkp-partition/1\nvertices 3\nparts 2\nassign 0 0 1\n")
        assert run("verify", "--graph", gpath, "--partition", ppath, "--exact") == 0
        assert "PASS mode=rational" in capsys.readouterr().out

    def test_graph_partition_exact_on_float_weights(self, tmp_path, capsys):
        # the graph pa-to-mkp writes has float weights; rational mode must
        # sum their exact values on both sides
        inst = gen_instance(tmp_path, aps=24, users=8, pilots=3)
        gpath = tmp_path / "g.txt"
        assert run("reduce", "pa-to-mkp", "--in", inst, "--out", gpath) == 0
        ppath = tmp_path / "p.txt"
        ppath.write_text("mkp-partition/1\nvertices 8\nparts 3\nassign 0 1 2 0 1 2 0 1\n")
        capsys.readouterr()
        assert run("verify", "--graph", gpath, "--partition", ppath, "--exact") == 0
        assert capsys.readouterr().out.startswith("PASS mode=rational")

    @pytest.mark.parametrize("weight", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_graph_weight_beyond_float_range(self, tmp_path, capsys, weight):
        gpath = tmp_path / "g.txt"
        write_graph(gpath, WeightedGraph(3, 2, {(0, 1): 1, (1, 2): weight}))
        ppath = tmp_path / "p.txt"
        ppath.write_text("mkp-partition/1\nvertices 3\nparts 2\nassign 0 1 0\n")
        for exact in ([], ["--exact"]):
            assert run("verify", "--graph", gpath, "--partition", ppath, *exact) == 3
            assert "edge (1, 2) is beyond float range" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", [1e308, 10**308], ids=["float", "int"])
    def test_block_sum_beyond_float_range(self, tmp_path, capsys, weight):
        # every edge fits a float, the block sum does not
        gpath = tmp_path / "g.txt"
        write_graph(gpath, WeightedGraph(3, 1, {(0, 1): weight, (0, 2): weight, (1, 2): weight}))
        ppath = tmp_path / "p.txt"
        ppath.write_text("mkp-partition/1\nvertices 3\nparts 1\nassign 0 0 0\n")
        assert run("verify", "--graph", gpath, "--partition", ppath, "--exact") == 0
        assert capsys.readouterr().out.startswith("PASS mode=rational m_pa=inf m_mkp=inf ")
        assert run("verify", "--graph", gpath, "--partition", ppath) == 3
        assert capsys.readouterr().out.startswith("FAIL mode=float")

    def test_float_totals_beyond_float_range_print_inf(self, tmp_path, capsys):
        # inf - inf is nan: the difference of two overflowed totals reads inf
        gpath = tmp_path / "g.txt"
        write_graph(gpath, WeightedGraph(3, 1, {(0, 1): 1e308, (1, 2): 1e308}))
        ppath = tmp_path / "p.txt"
        ppath.write_text("mkp-partition/1\nvertices 3\nparts 1\nassign 0 0 0\n")
        assert run("verify", "--graph", gpath, "--partition", ppath) == 3
        assert capsys.readouterr().out == "FAIL mode=float m_pa=inf m_mkp=inf rel_diff=inf\n"

    def test_block_sum_beyond_float_range_prints_no_warning(self, tmp_path):
        # in a fresh interpreter, so numpy's warnings would reach stderr
        gpath = tmp_path / "g.txt"
        write_graph(gpath, WeightedGraph(3, 1, {(0, 1): 1e308, (0, 2): 1e308, (1, 2): 1e308}))
        ppath = tmp_path / "p.txt"
        ppath.write_text("mkp-partition/1\nvertices 3\nparts 1\nassign 0 0 0\n")
        proc = run_fresh("verify", "--graph", gpath, "--partition", ppath)
        assert proc.returncode == 3 and proc.stdout.startswith("FAIL mode=float")
        assert "RuntimeWarning" not in proc.stderr, proc.stderr

    def test_infeasible_assignment_file(self, tmp_path, capsys):
        inst = gen_instance(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("pa-assignment/1\nusers 5\npilots 2\nassign 0 0 0 0 0\n")
        assert run("verify", "--instance", inst, "--assignment", bad) == 3

    def test_huge_pilot_count_is_validation_failure(self, tmp_path, capsys):
        inst = gen_instance(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("pa-assignment/1\nusers 5\npilots 99999999999999999999\nassign 0 1 0 1 0\n")
        assert run("verify", "--instance", inst, "--assignment", bad) == 3
        assert "not surjective" in capsys.readouterr().err

    def test_mixed_modes_are_usage_error(self, tmp_path):
        # each flag alone, and all four: neither the instance pair nor the graph pair
        inst = gen_instance(tmp_path)
        flags = {"--instance": inst, "--assignment": inst, "--graph": inst, "--partition": inst}
        for chosen in (["--instance"], ["--graph"], ["--assignment"], list(flags)):
            with pytest.raises(SystemExit) as exc:
                run("verify", *(x for flag in chosen for x in (flag, flags[flag])))
            assert exc.value.code == 2


class TestBench:
    def test_rows_ratios_and_determinism(self, tmp_path):
        out1 = tmp_path / "b1.csv"
        out2 = tmp_path / "b2.csv"
        summary = tmp_path / "s.csv"
        for out in (out1, out2):
            code = run(
                "bench", "--count", 5, "--aps", 10, "--users", 5, "--pilots", 2,
                "--seed", 3, "--solvers", "brute,greedy,local-search",
                "--out", out, "--summary-out", summary,
            )
            assert code == 0
        rows1, rows2 = read_csv(out1), read_csv(out2)
        assert len(rows1) == 1 + 5 * 3
        stable = [[c for i, c in enumerate(r) if i != 4] for r in rows1]
        stable2 = [[c for i, c in enumerate(r) if i != 4] for r in rows2]
        assert stable == stable2  # deterministic apart from wall-clock column
        opt = {r[0]: float(r[2]) for r in rows1[1:] if r[1] == "brute"}
        for r in rows1[1:]:
            if r[1] != "brute" and opt[r[0]] > 0:
                assert float(r[2]) / opt[r[0]] >= 1 - 1e-9
        srows = read_csv(summary)
        assert srows[0] == ["solver", "n_instances", "mean_ratio", "max_ratio"]
        for row in srows[1:]:
            assert float(row[2]) >= 1 - 1e-9


    def test_unusable_area_is_validation_failure(self, tmp_path, capsys):
        code = run("bench", "--count", 1, *GEN_SIZES, "--area", "inf",
                   "--out", tmp_path / "b.csv")
        assert code == 3
        assert capsys.readouterr().err.startswith("error: area side must be positive")


class TestParserReuse:
    """main() parses every call with one parser; no call may leak a flag
    into the next."""

    def test_calls_share_no_state(self, tmp_path, capsys):
        inst = gen_instance(tmp_path)
        rates = tmp_path / "rates.csv"
        asg = tmp_path / "a.txt"
        assert run("solve", "--instance", inst, "--solver", "greedy",
                   "--out", tmp_path / "r.csv", "--rates-out", rates) == 0
        rates.unlink()
        assert run("solve", "--instance", inst, "--solver", "greedy",
                   "--out", tmp_path / "r.csv", "--assignment-out", asg) == 0
        assert not rates.exists()

        g7, g, g0 = (tmp_path / f"{n}.txt" for n in ("g7", "g", "g0"))
        dims = ("--aps", 12, "--users", 5, "--pilots", 2)
        assert run("gen", *dims, "--seed", 7, "--out", g7) == 0
        assert run("gen", *dims, "--out", g) == 0
        assert run("gen", *dims, "--seed", 0, "--out", g0) == 0
        assert g.read_bytes() == g0.read_bytes() != g7.read_bytes()

        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("verify", "--instance", inst, "--partition", asg)
        assert exc.value.code == 2
        assert "verify wants --instance with --assignment" in capsys.readouterr().err
        assert run("verify", "--instance", inst, "--assignment", asg, "--exact") == 0
        assert capsys.readouterr().out.startswith("PASS mode=rational")

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()
