"""End-to-end tests for the command-line interface."""

import json

import pytest

from harddisks import coupling
from harddisks.cli import main
from harddisks.metric import from_csv, to_csv
from harddisks.contraction import max_density


def run_cli(args):
    return main(args)


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

    def test_bad_variant_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bound", "--variant", "nope"])
        assert exc.value.code == 2


class TestTable:
    def test_single_row(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli(["table", "--Ls", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "L,rho_star"
        L, rho = lines[1].split(",")
        assert L == "8" and abs(float(rho) - 0.150024) < 2e-4

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

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(["simulate", "--n", "16", "--rho", "0.1", "--steps", "2000",
                     "--seed", "3", "--out", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_bad_steps_exits_three(self):
        assert run_cli(["simulate", "--n", "4", "--rho", "0.02",
                        "--steps", "-5", "--seed", "1"]) == 3


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
        assert sum(payload["outcome_counts"].values()) == 20000

    def test_thread_count_does_not_change_output(self, tmp_path, metric_file):
        outs = []
        for threads, name in (("1", "t1.json"), ("3", "t3.json")):
            coupling._POOL_CACHE.clear()
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

    def test_bad_displacement_exits_three(self, metric_file):
        assert run_cli(["couple", "--n", "8", "--rho", "0.1", "--ell", "9.0",
                        "--trials", "10", "--metric", str(metric_file),
                        "--seed", "1"]) == 3
