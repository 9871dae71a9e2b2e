"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import harddisks
from harddisks import contraction, coupling, dynamics
from harddisks.cli import main
from harddisks.metric import PiecewiseMetric, from_csv, to_csv
from harddisks.contraction import max_density
from oracles import assemble_as_written


def run_cli(args):
    return main(args)


# stdout of `table --Ls 1,2,3,5,8,12,16,33,64,256`, the same under the
# oracles.assemble_as_written kernel.  A solver change that moves any bound
# must update these pins on purpose.
TABLE_PIN = """L,rho_star
1,0.124999771118
2,0.140418996811
3,0.139675006866
5,0.144310035706
8,0.150023546219
12,0.15143032074
16,0.152181501389
33,0.152843542099
64,0.153998641968
256,0.154482526779
"""

# stdout of `table --rigorous` on the same grid sizes, pinned like TABLE_PIN.
RIGOROUS_TABLE_PIN = """L,rho_star
1,0.124999771118
2,0.136231403351
3,0.137614374161
5,0.143251390457
8,0.148441839218
12,0.150358657837
16,0.151371679306
33,0.152516117096
64,0.153797922134
256,0.154433803558
"""

# Bytes of `bound --L 16`, `bound --L 16 --hamming` and `metric --L 16 --rho
# 0.15 --out m.csv` (its stdout, which is also m.csv.report.json, then m.csv
# and m.csv.overlay.csv), pinned like TABLE_PIN.
BOUND16_PIN = """{
  "L": 16,
  "rho_star": 0.152181501389,
  "tol": 1e-06,
  "variant": "clamped",
  "epsilon_hat": 1e-06,
  "iterations": 20,
  "metric": {
    "values": [
      0.123722622159,
      0.24696021261,
      0.369221959438,
      0.490005138402,
      0.604601303563,
      0.693815062346,
      0.758165978563,
      0.804473565516,
      0.928196187675,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0
    ]
  },
  "tight_lambda_max": 2.0
}
"""

BOUND16_HAMMING_PIN = """{
  "L": 16,
  "rho_star": 0.124999875,
  "tol": 1e-06,
  "variant": "clamped",
  "epsilon_hat": 1e-06,
  "iterations": 0,
  "metric": {
    "values": [
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0,
      1.0
    ]
  },
  "tight_lambda_max": 4.0
}
"""

METRIC16_REPORT_PIN = """{
  "L": 16,
  "rho": 0.15,
  "variant": "clamped",
  "axioms_pass": true,
  "tight_lambda_max": 2.0,
  "min_residual": -6.66133814775e-17,
  "residuals": [
    0.0,
    0.0,
    0.0,
    0.0,
    3.12250225676e-18,
    3.33066907388e-17,
    6.66133814775e-17,
    -6.66133814775e-17,
    0.0680426123635,
    0.130422860012,
    0.110145710126,
    0.0896015529803,
    0.0695518512015,
    0.0511679326473,
    0.0360210975698,
    0.0273378875203
  ]
}
"""

METRIC16_CSV_PIN = """lambda_right,d
0.25,0.11928874756799362
0.5,0.23810984561548534
0.75,0.3559900715604981
1,0.47244471740035465
1.25,0.5830738222650184
1.5,0.6698717083380861
1.75,0.7330680463996199
2,0.7789132803454096
2.25,0.8982020279134032
2.5,1.0
2.75,1.0
3,1.0
3.25,1.0
3.5,1.0
3.75,1.0
4,1.0
"""

METRIC16_OVERLAY_PIN = """lambda_right,d,d_analytic
0.25,0.119288747568,0.119288449346
0.5,0.238109845615,0.238109250341
0.75,0.35599007156,0.355989181585
1,0.4724447174,0.472443536289
"""

# SHA-256 of the CSV that `metric --L 256 --rho 0.1544` writes: the input
# metric that perfbench's couple_cold and ell_sweep workloads set up.
METRIC256_CSV_SHA256 = "893fddc63001eacbacd260fc305101768cf24b8e2a8620d04acbd4cbdaea474e"


PUBLIC_NAMES = [
    "BoundResult", "ConstraintSystem", "assemble",
    "max_density", "repaired_metric",
    "ContractionEstimate", "estimate_contraction", "ChainStats",
    "Configuration", "random_config", "run",
    "crescent_area",
    "PiecewiseMetric", "analytic_small_ell", "check_axioms",
    "__version__",
]


class TestPublicSurface:
    def test_all_pinned_and_resolvable(self):
        assert harddisks.__all__ == PUBLIC_NAMES
        for name in PUBLIC_NAMES:
            assert getattr(harddisks, name) is not None, name

    @staticmethod
    def loaded_modules(tmp_path, argv=None):
        """The modules a fresh interpreter holds after `import harddisks.cli`,
        and after `main(argv)` when argv is given (its stdout discarded)."""
        # the oracles module is importable here, so an import of it would show
        paths = [Path(harddisks.__file__).resolve().parents[1], Path(__file__).resolve().parent]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        code = ("import contextlib, io, json, sys, harddisks.cli\n"
                f"argv = {argv!r}\n"
                "if argv is not None:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        try:\n"
                "            code = harddisks.cli.main(argv)\n"
                "        except SystemExit as exc:\n"
                "            code = exc.code\n"
                "    assert code == 0, code\n"
                "print(json.dumps(sorted(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True, timeout=60)
        return set(json.loads(out.stdout))

    def test_cli_import_loads_no_test_code(self, tmp_path):
        for argv in (None, ["--help"]):
            modules = self.loaded_modules(tmp_path, argv)
            assert not modules & {"scipy", "pytest", "oracles", "mpmath"}
            # nor numpy, nor any compute module: each command imports what it runs
            assert "numpy" not in modules
            assert {m for m in modules if m.startswith("harddisks")} == {"harddisks", "harddisks.cli"}

    @pytest.mark.parametrize("argv, absent", [
        (["table", "--Ls", "8"], {"coupling", "dynamics"}),
        (["simulate", "--n", "4", "--rho", "0.05", "--steps", "10", "--seed", "1"],
         {"contraction", "coupling", "metric"}),
        (["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0", "--trials", "100",
          "--metric", "METRIC", "--seed", "1"], {"contraction"}),
    ])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, absent):
        metric = tmp_path / "metric.csv"
        to_csv(max_density(8).metric, metric)
        argv = [str(metric) if a == "METRIC" else a for a in argv]
        modules = self.loaded_modules(tmp_path, argv)
        assert "numpy" in modules
        assert not modules & {f"harddisks.{m}" for m in absent}
        assert "mpmath" not in modules  # the 40-digit references are test code

    def test_dir_lists_the_public_names(self):
        assert set(harddisks.__all__) <= set(dir(harddisks))
        assert harddisks.max_density is contraction.max_density

    def test_trials_help_names_the_configuration_size(self, capsys):
        # the parser states K0 as a literal, so that building it imports no coupling
        with pytest.raises(SystemExit):
            run_cli(["couple", "--help"])
        assert f"buys ceil(trials / {coupling.K0}) configurations" in " ".join(
            capsys.readouterr().out.split())


class TestBound:
    def test_hamming_baseline(self, capsys):
        assert run_cli(["bound", "--hamming", "--L", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["rho_star"] - 0.125) < 1e-6

    def test_small_grid_with_output(self, tmp_path, capsys):
        out = tmp_path / "bound.json"
        assert run_cli(["bound", "--L", "8", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["L"] == 8
        assert abs(payload["rho_star"] - 0.150024) < 2e-4
        manifest = json.loads((tmp_path / "bound.json.manifest.json").read_text())
        assert manifest["command"] == "bound"
        assert manifest["params"]["L"] == 8
        assert "wall_clock_s" in manifest

    def test_unknown_flag_exits_two(self):
        for flags in (["--bogus"], ["--quadrature-order", "16"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(["bound", *flags])
            assert exc.value.code == 2

    def test_variant_flag_removed_exits_two(self):
        for command in (["bound"], ["table", "--Ls", "8"], ["metric", "--rho", "0.15", "--out", "m.csv"]):
            with pytest.raises(SystemExit) as exc:
                run_cli([*command, "--variant", "clamped"])
            assert exc.value.code == 2

    def test_tol_flag_removed_exits_two(self):
        # the search resolution is the constant contraction.SEARCH_TOL
        for command in (["bound"], ["table", "--Ls", "8"]):
            with pytest.raises(SystemExit) as exc:
                run_cli([*command, "--tol", "1e-4"])
            assert exc.value.code == 2

    def test_rigorous_variant_in_json(self, capsys):
        assert run_cli(["bound", "--L", "16", "--rigorous"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variant"] == "rigorous"
        assert payload["rho_star"] < json.loads(BOUND16_PIN)["rho_star"]

    @pytest.mark.parametrize("flags, pin", [([], BOUND16_PIN), (["--hamming"], BOUND16_HAMMING_PIN)])
    def test_stdout_pinned(self, flags, pin, capsys):
        assert run_cli(["bound", "--L", "16", *flags]) == 0
        assert capsys.readouterr().out == pin

    @pytest.mark.parametrize("L", ["0", "-3"])
    def test_empty_grid_exits_two(self, L, capsys):
        for flags in ([], ["--hamming"]):
            with pytest.raises(SystemExit) as info:
                run_cli(["bound", "--L", L, *flags])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument --L: must be a positive integer, got {L}" in captured.err


class TestTable:
    def test_single_row(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli(["table", "--Ls", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "L,rho_star"
        L, rho = lines[1].split(",")
        assert L == "8" and abs(float(rho) - 0.150024) < 2e-4

    @pytest.mark.parametrize("variant", ["clamped", "as_written"])
    def test_stdout_pinned(self, variant, monkeypatch, capsys):
        if variant == "as_written":
            monkeypatch.setattr(contraction, "assemble", assemble_as_written)
        assert run_cli(["table", "--Ls", "1,2,3,5,8,12,16,33,64,256"]) == 0
        assert capsys.readouterr().out == TABLE_PIN

    @pytest.mark.parametrize("variant", ["clamped", "as_written"])
    def test_rigorous_stdout_pinned(self, variant, monkeypatch, capsys):
        if variant == "as_written":
            monkeypatch.setattr(contraction, "assemble", assemble_as_written)
        assert run_cli(["table", "--rigorous", "--Ls", "1,2,3,5,8,12,16,33,64,256"]) == 0
        assert capsys.readouterr().out == RIGOROUS_TABLE_PIN

    def test_rigorous_reaches_the_papers_bound(self, tmp_path, capsys):
        # the cell-covering assembly at L = 88 prints 0.154028149 (README)
        out = tmp_path / "t.csv"
        assert run_cli(["table", "--rigorous", "--Ls", "88", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "88,0.154028148651"
        assert float(out.read_text().splitlines()[1].split(",")[1]) >= 0.154
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["params"]["rigorous"] is True

    def test_malformed_sizes_name_what_was_expected(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["table", "--Ls", "8,,16"])
        assert info.value.code == 2
        assert "argument --Ls: invalid grid_sizes value: '8,,16'" in capsys.readouterr().err

    @pytest.mark.parametrize("Ls", ["8,0", "-3", "0,8"])
    def test_empty_grid_exits_two(self, Ls, capsys):
        # as bound --L 0: a flag error, before any search runs
        with pytest.raises(SystemExit) as info:
            run_cli(["table", "--Ls", Ls])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --Ls: must be a positive integer, got " in captured.err

    def test_rows_nondecreasing(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["table", "--Ls", "8,16,32", "--out", str(out)]) == 0
        rhos = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert rhos == sorted(rhos)


class TestMetric:
    def test_writes_csv_overlay_and_report(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run_cli(["metric", "--L", "64", "--rho", "0.15", "--out", str(out)]) == 0
        metric = from_csv(out)
        assert metric.L == 64
        report = json.loads((tmp_path / "m.csv.report.json").read_text())
        assert report["axioms_pass"] is True
        assert report["tight_lambda_max"] == pytest.approx(2.0)
        assert report["min_residual"] >= -1e-12
        overlay = (tmp_path / "m.csv.overlay.csv").read_text().splitlines()
        assert overlay[0] == "lambda_right,d,d_analytic"
        assert len(overlay) - 1 == 16  # grid points with lambda <= 1

    def test_outputs_pinned(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run_cli(["metric", "--L", "16", "--rho", "0.15", "--out", str(out)]) == 0
        assert capsys.readouterr().out == METRIC16_REPORT_PIN
        assert (tmp_path / "m.csv.report.json").read_text() == METRIC16_REPORT_PIN
        assert out.read_text() == METRIC16_CSV_PIN
        assert (tmp_path / "m.csv.overlay.csv").read_text() == METRIC16_OVERLAY_PIN

    def test_benchmark_input_pinned(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run_cli(["metric", "--L", "256", "--rho", "0.1544", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == METRIC256_CSV_SHA256

    def test_small_instance(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli(["metric", "--L", "2", "--rho", "0.05", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "m.csv.report.json").read_text())
        assert report["axioms_pass"] is True
        assert len(out.read_text().splitlines()) == 3

    def test_infeasible_density_exits_three(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run_cli(["metric", "--L", "8", "--rho", "0.2", "--out", str(out)]) == 3

    def test_out_of_range_density_exits_three(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli(["metric", "--L", "8", "--rho", "0.4", "--out", str(out)]) == 3

    def test_assembles_and_verifies_once(self, tmp_path, monkeypatch):
        calls = {"assemble": 0, "slack_report": 0}
        for name in calls:
            fn = getattr(contraction, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(contraction, name, counted)
        assert run_cli(["metric", "--L", "16", "--rho", "0.15", "--out", str(tmp_path / "m.csv")]) == 0
        # one system; the decision builds no residuals, the witness checks every row
        assert calls == {"assemble": 1, "slack_report": 1}

    def test_rigorous_witness(self, tmp_path, capsys):
        # rho*_rig(88) = 0.154028148651 (README), so 0.154 is feasible
        out = tmp_path / "m.csv"
        assert run_cli(["metric", "--rigorous", "--L", "88", "--rho", "0.154",
                        "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["variant"] == "rigorous" and report["axioms_pass"] is True
        assert len(report["residuals"]) == 88 and min(report["residuals"]) >= -1e-12
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["params"] == {"L": 88, "rho": 0.154, "rigorous": True}

    def test_rigorous_above_its_bound_exits_three(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run_cli(["metric", "--rigorous", "--L", "88", "--rho", "0.15403",
                        "--out", str(out)]) == 3
        assert "infeasible" in capsys.readouterr().err
        # the clamped system is feasible there: rho*(88) exceeds rho*_rig(88)
        assert run_cli(["metric", "--L", "88", "--rho", "0.15403", "--out", str(out)]) == 0


# stdout and snapshot SHA-256 of `simulate --n 64 --rho 0.15 --steps 70000
# --seed 1`, whose 70,000 steps end in a partial RUN_SLICE of 368.  A
# change to the draws, the cell grid or the snapshot format must update them.
SIMULATE_PIN = """{
  "n": 64,
  "rho": 0.15,
  "steps": 70000,
  "accepted": 33967,
  "rejected": 36033,
  "acceptance_rate": 0.485242857143,
  "seed": 1
}
"""
SIMULATE_SNAPSHOT_SHA256 = "1a70e0b2b40373b1fdac38ee57ebbf63ff3d681b496fa5a8cd9fffec02e328f4"


class TestSimulate:
    def test_stats_and_snapshot(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code = run_cli([
            "simulate", "--n", "16", "--rho", "0.1", "--steps", "5000",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["steps"] == 5000
        assert payload["accepted"] + payload["rejected"] == 5000
        snapshot = (tmp_path / "sim.json.snapshot.csv").read_text().splitlines()
        assert snapshot[0] == "x,y" and len(snapshot) == 17
        sidecar = json.loads((tmp_path / "sim.json.snapshot.csv.json").read_text())
        assert sidecar["n"] == 16 and sidecar["seed"] == 7

    def test_outputs_pinned(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert run_cli(["simulate", "--n", "64", "--rho", "0.15", "--steps", "70000",
                        "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == SIMULATE_PIN
        snapshot = (tmp_path / "sim.json.snapshot.csv").read_bytes()
        assert hashlib.sha256(snapshot).hexdigest() == SIMULATE_SNAPSHOT_SHA256

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(["simulate", "--n", "16", "--rho", "0.1", "--steps", "2000",
                     "--seed", "3", "--out", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_runs_outside_coupling_regime(self, capsys):
        # 8r = 0.505: only `couple` needs the small-radius regime
        assert run_cli(["simulate", "--n", "8", "--rho", "0.1", "--steps", "100",
                        "--seed", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] + payload["rejected"] == payload["steps"] == 100

    def test_bad_steps_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["simulate", "--n", "4", "--rho", "0.02", "--steps", "-5", "--seed", "1"])
        assert info.value.code == 2
        assert "argument --steps: must be a nonnegative integer, got -5" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["simulate", "--n", "4", "--rho", "0.02", "--steps", "10", "--seed", "-1"])
        assert info.value.code == 2
        assert "argument --seed: must be a nonnegative integer, got -1" in capsys.readouterr().err

    def test_no_disks_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["simulate", "--n", "0", "--rho", "0.15", "--steps", "10", "--seed", "1"])
        assert info.value.code == 2
        assert "argument --n: must be a positive integer, got 0" in capsys.readouterr().err

    def test_out_of_range_density_exits_three(self, capsys):
        assert run_cli(["simulate", "--n", "8", "--rho", "0.3",
                        "--steps", "10", "--seed", "1"]) == 3
        assert "density must lie in (0, 1/4)" in capsys.readouterr().err

    def test_jammed_insertion_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(dynamics, "MAX_INSERTION_ATTEMPTS", 1)
        assert run_cli(["simulate", "--n", "64", "--rho", "0.2",
                        "--steps", "10", "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert "random insertion failed" in err
        assert "n=64" in err and "rho=0.2" in err


class TestManifest:
    """`main` writes one run record per successful command with --out."""

    @pytest.mark.parametrize("argv, params, seed", [
        (["bound", "--L", "8", "--rigorous"], {"L": 8, "hamming": False, "rigorous": True}, None),
        (["table", "--Ls", "4,8"], {"Ls": [4, 8], "rigorous": False}, None),
        (["metric", "--L", "8", "--rho", "0.14"], {"L": 8, "rho": 0.14, "rigorous": False}, None),
        (["simulate", "--n", "16", "--rho", "0.1", "--steps", "100", "--seed", "4"],
         {"n": 16, "rho": 0.1, "steps": 100}, 4),
        (["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0", "--trials", "100",
          "--metric", "METRIC", "--seed", "6"],
         {"n": 8, "rho": 0.1, "ell": 1.0, "trials": 100, "metric": "METRIC"}, 6),
    ])
    def test_params_are_the_subcommand_flags(self, tmp_path, capsys, argv, params, seed):
        metric = tmp_path / "metric.csv"
        to_csv(max_density(8).metric, metric)
        argv = [str(metric) if a == "METRIC" else a for a in argv]
        params = {k: str(metric) if v == "METRIC" else v for k, v in params.items()}
        out = tmp_path / "run.out"
        assert run_cli(["--threads", "3", *argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.out.manifest.json").read_text())
        assert list(manifest) == ["command", "params", "seed", "version", "wall_clock_s"]
        assert manifest["command"] == argv[0]
        assert manifest["params"] == params and list(manifest["params"]) == list(params)
        assert manifest["seed"] == seed
        assert manifest["version"] == harddisks.__version__
        assert manifest["wall_clock_s"] >= 0.0

    def test_none_without_out_or_on_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["bound", "--L", "4"]) == 0
        out = tmp_path / "m.csv"
        assert run_cli(["metric", "--L", "8", "--rho", "0.2", "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []


class TestCouple:
    @pytest.fixture()
    def metric_file(self, tmp_path):
        path = tmp_path / "metric.csv"
        to_csv(max_density(32).metric, path)
        return path

    def test_estimates_contraction(self, tmp_path, metric_file, capsys):
        out = tmp_path / "couple.json"
        code = run_cli([
            "couple", "--n", "8", "--rho", "0.1", "--ell", "2.0",
            "--trials", "20000", "--metric", str(metric_file),
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["trials"] == 20000
        assert payload["mean_delta_exact"] <= payload["mean_delta_bound"] + 1e-12
        # m^2 disk-0 grid points and KC crescent proposals per configuration
        configs = -(-20000 // coupling.K0)
        grid = coupling._grid_side(dynamics.radius_for_density(8, 0.1)) ** 2
        assert sum(payload["outcome_counts"].values()) == (grid + coupling.KC) * configs

    def test_thread_count_does_not_change_output(self, tmp_path, metric_file):
        outs = []
        for threads, name in (("1", "t1.json"), ("3", "t3.json")):
            coupling._cold_pool.cache_clear()
            out = tmp_path / name
            run_cli(["--threads", threads, "couple", "--n", "8", "--rho", "0.1",
                     "--ell", "1.0", "--trials", "8000",
                     "--metric", str(metric_file), "--seed", "5", "--out", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_missing_metric_file_exits_four(self, tmp_path):
        assert run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0",
                        "--trials", "10", "--metric", str(tmp_path / "nope.csv"),
                        "--seed", "1"]) == 4

    def test_metric_file_off_the_grid_exits_three(self, tmp_path, metric_file):
        header, *rows = metric_file.read_text().splitlines()
        bad = tmp_path / "dropped.csv"
        bad.write_text("\n".join([header, *rows[:-2], rows[-1]]) + "\n")
        assert run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0",
                        "--trials", "10", "--metric", str(bad), "--seed", "1"]) == 3

    def test_metric_file_out_of_range_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "two.csv"
        to_csv(PiecewiseMetric(values=(2.0, 2.0)), bad)
        assert run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0",
                        "--trials", "10", "--metric", str(bad), "--seed", "1"]) == 3
        assert "metric CSV row 1: d 2 outside [0, 1]" in capsys.readouterr().err

    def test_metric_file_non_numeric_exits_three(self, tmp_path, metric_file, capsys):
        header, *rows = metric_file.read_text().splitlines()
        bad = tmp_path / "text.csv"
        bad.write_text("\n".join([header, *rows[:3], "0.5,x", *rows[4:]]) + "\n")
        assert run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0",
                        "--trials", "10", "--metric", str(bad), "--seed", "1"]) == 3
        assert "metric CSV row 4: non-numeric field in '0.5,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, err", [
        # lambda_1 + lambda_2 > 4, so d_1 + d_2 must reach the tail's 1
        ("2,0.2\n4,0.3", "rows 1 and 2 break the tail rule d_1 + d_2 >= 1"),
        ("1,0.1\n2,0.5\n3,0.6\n4,1", "rows 1 and 1 break subadditivity d_2 <= d_1 + d_1"),
    ])
    def test_metric_file_breaking_the_axioms_exits_three(self, tmp_path, rows, err, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"lambda_right,d\n{rows}\n")
        assert run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "1",
                        "--trials", "100", "--metric", str(bad), "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: metric CSV {err}" in captured.err

    def test_benchmark_witness_passes_the_axiom_check(self, tmp_path, capsys):
        witness = tmp_path / "m.csv"
        assert run_cli(["metric", "--L", "256", "--rho", "0.1544", "--out", str(witness)]) == 0
        assert run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "1",
                        "--trials", "100", "--metric", str(witness), "--seed", "1"]) == 0

    def test_negative_seed_exits_two(self, metric_file, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0", "--trials", "10",
                     "--metric", str(metric_file), "--seed", "-1"])
        assert info.value.code == 2
        assert "argument --seed: must be a nonnegative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n", "--trials"])
    def test_zero_count_exits_two(self, metric_file, flag, capsys):
        with pytest.raises(SystemExit) as info:  # the repeated flag's last value wins
            run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0", "--trials", "10",
                     "--metric", str(metric_file), "--seed", "1", flag, "0"])
        assert info.value.code == 2
        assert f"argument {flag}: must be a positive integer, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_thread_count_exits_two(self, metric_file, threads, capsys):
        # a flag error on every command, not only on couple
        for command in (["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0", "--trials", "10",
                         "--metric", str(metric_file), "--seed", "1"], ["bound", "--L", "8"]):
            with pytest.raises(SystemExit) as info:
                run_cli(["--threads", threads, *command])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument --threads: must be a positive integer, got {threads}" in captured.err

    def test_bad_displacement_exits_three(self, metric_file):
        assert run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "9.0",
                        "--trials", "10", "--metric", str(metric_file),
                        "--seed", "1"]) == 3

    def test_out_of_range_density_exits_three(self, metric_file, capsys):
        assert run_cli(["couple", "--n", "8", "--rho", "0.3", "--ell", "1.0",
                        "--trials", "10", "--metric", str(metric_file),
                        "--seed", "1"]) == 3
        assert "density must lie in (0, 1/4)" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["-0.1", "0"])
    def test_nonpositive_density_exits_three(self, metric_file, rho, capsys):
        assert run_cli(["couple", "--n", "8", "--rho", rho, "--ell", "1.0",
                        "--trials", "10", "--metric", str(metric_file),
                        "--seed", "1"]) == 3
        assert "density" in capsys.readouterr().err

    def test_radius_outside_coupling_regime_exits_three(self, metric_file, capsys):
        assert run_cli(["couple", "--n", "2", "--rho", "0.2", "--ell", "1.0",
                        "--trials", "2000", "--metric", str(metric_file),
                        "--seed", "1"]) == 3
        assert "8r = 1.43" in capsys.readouterr().err

    def test_caged_displacement_exits_three(self, metric_file, monkeypatch, capsys):
        # a budget of one round leaves the chains whose first angle failed caged
        monkeypatch.setattr(coupling, "DISPLACE_ROUNDS", 1)
        assert run_cli(["couple", "--n", "32", "--rho", "0.2", "--ell", "4.0",
                        "--trials", "20000", "--metric", str(metric_file),
                        "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert "no valid displacement found within the retry budget" in err
        assert re.search(r": [1-9]\d* of 512 chains caged \(n=32, rho=0.2, ell=4\)", err)

    def test_exact_change_above_bound_exits_three(self, metric_file, positive_gap, capsys):
        assert run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0",
                        "--trials", "100", "--metric", str(metric_file),
                        "--seed", "1"]) == 3
        assert "exceeded the analysis bound" in capsys.readouterr().err
