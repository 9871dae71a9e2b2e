"""Tests for the piecewise-constant metric and configuration distances."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harddisks import metric as metric_mod
from harddisks.dynamics import Configuration
from harddisks.geometry import crescent_area
from harddisks.metric import (
    DisagreementPair,
    PiecewiseMetric,
    analytic_small_ell,
    check_axioms,
    disagreements,
    from_csv,
    from_json,
    hamming_metric,
    pair_distance,
    to_csv,
    to_json,
)


class TestEval:
    def test_tail_value_is_one(self):
        m = PiecewiseMetric(values=(0.1, 0.2, 0.3, 0.4))
        assert m.eval(5.0) == 1.0

    def test_zero_displacement_is_zero(self):
        m = PiecewiseMetric(values=(0.5,))
        assert m.eval(0.0) == 0.0

    def test_interval_lookup(self):
        values = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        m = PiecewiseMetric(values=values)
        assert m.eval(0.6) == 0.2  # 0.6 in (0.5, 1.0]

    def test_right_endpoints_return_stored_values(self):
        values = tuple(np.linspace(0.05, 1.0, 16))
        m = PiecewiseMetric(values=values)
        for i, lam in enumerate(m.grid):
            assert m.eval(lam) == values[i]

    def test_rejects_negative(self):
        m = PiecewiseMetric(values=(1.0,))
        with pytest.raises(ValueError):
            m.eval(-0.1)
        with pytest.raises(ValueError):
            m.eval_array([0.5, -0.1])

    @given(st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
    def test_eval_array_matches_scalar(self, lam):
        m = PiecewiseMetric(values=tuple(np.linspace(0.1, 1.0, 32)))
        assert m.eval_array([lam])[0] == m.eval(lam)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PiecewiseMetric(values=())


class TestAnalyticSmallEll:
    def test_zero_at_origin(self):
        assert analytic_small_ell(0.0, 0.1) == 0.0

    def test_definitional_identity_with_crescent_area(self):
        for lam in (0.2, 0.5, 0.8, 1.0):
            for rho in (0.05, 0.14, 0.2):
                expect = rho / (math.pi * (1 - 4 * rho)) * crescent_area(lam)
                assert analytic_small_ell(lam, rho) == pytest.approx(expect, rel=1e-14)

    def test_frozen_value(self):
        assert analytic_small_ell(1.0, 0.1544) == pytest.approx(0.5086839749159963, abs=1e-12)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            analytic_small_ell(1.5, 0.1)
        with pytest.raises(ValueError):
            analytic_small_ell(0.5, 0.25)


class TestCheckAxioms:
    def test_hamming_metric_passes(self):
        assert check_axioms(hamming_metric(16)).passed

    def test_superadditive_pair_reported(self):
        report = check_axioms(PiecewiseMetric(values=(0.2, 0.5)))
        assert not report.passed
        assert (1, 1, 0.5) in report.subadditivity_violations

    def test_monotonicity_violation_reported(self):
        report = check_axioms(PiecewiseMetric(values=(0.5, 0.4, 1.0, 1.0)))
        assert report.monotonicity_violations

    def test_range_violation_reported(self):
        report = check_axioms(PiecewiseMetric(values=(0.5, 1.2)))
        assert report.range_violations

    def test_tail_subadditivity_enforced(self):
        # d_i + d_j must reach 1 whenever lam_i + lam_j exceeds the grid end.
        report = check_axioms(PiecewiseMetric(values=(0.1, 0.2, 0.3, 0.4)))
        assert any(i + j > 4 for (i, j, _) in report.subadditivity_violations)


def _config(centers, r):
    return Configuration(centers, r)


class TestPairDistance:
    r = 0.01

    def test_single_disagreement_at_tail(self):
        a = _config([[0.5, 0.5], [0.1, 0.1]], self.r)
        b = a.replace(0, (0.5 + 4 * self.r, 0.5))
        m = PiecewiseMetric(values=tuple(np.linspace(0.1, 1.0, 8)))
        assert pair_distance(disagreements(a, b), m) == 1.0

    def test_switched_disks_are_identical(self):
        a = _config([[0.5, 0.5], [0.1, 0.1]], 0.01)
        b = _config([[0.1, 0.1], [0.5, 0.5]], 0.01)
        m = PiecewiseMetric(values=tuple(np.linspace(0.1, 1.0, 8)))
        assert pair_distance(disagreements(a, b), m) == 0.0

    def test_crossed_pairing_preferred_when_shorter(self):
        r = 0.01
        a = _config([[0.5, 0.5], [0.3, 0.3]], r)
        # b nearly swaps the two disks; the straight pairing is at tail
        # distance while the crossed one stays within one cell.
        b = _config([[0.3 + 0.5 * r, 0.3], [0.5 + 0.5 * r, 0.5]], r)
        m = PiecewiseMetric(values=tuple(np.linspace(0.1, 1.0, 8)))
        d = pair_distance(disagreements(a, b), m)
        assert d == 2 * m.eval(0.5)
        assert d < 2.0

    def test_symmetric_in_configurations(self):
        rng = np.random.default_rng(3)
        r = 0.01
        m = PiecewiseMetric(values=tuple(np.linspace(0.1, 1.0, 8)))
        for _ in range(50):
            a = Configuration([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]], r)
            b = a.replace(0, a.centers[0] + (rng.random(2) - 0.5) * 0.05)
            assert pair_distance(disagreements(a, b), m) == pytest.approx(
                pair_distance(disagreements(b, a), m), abs=1e-15
            )

    def test_no_disagreement_is_zero(self):
        a = _config([[0.5, 0.5]], 0.01)
        m = hamming_metric()
        assert pair_distance(disagreements(a, a), m) == 0.0

    def test_more_than_two_disagreements_rejected(self):
        a = _config([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]], 0.01)
        with pytest.raises(ValueError):
            DisagreementPair(a, a, (0, 1, 2))


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        m = PiecewiseMetric(values=tuple(np.linspace(0.015625, 1.0, 64)))
        path = tmp_path / "m.csv"
        to_csv(m, path)
        back = from_csv(path)
        assert back.L == m.L
        assert all(abs(a - b) < 1e-12 for a, b in zip(back.values, m.values))

    def test_csv_header_and_grid(self, tmp_path):
        m = PiecewiseMetric(values=(0.25, 0.5, 0.75, 1.0))
        path = tmp_path / "m.csv"
        to_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda_right,d"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [1.0, 2.0, 3.0, 4.0]

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lam,d\n1.0,0.5\n")
        with pytest.raises(ValueError):
            from_csv(path)

    def test_csv_rejects_rows_off_the_grid(self, tmp_path):
        path = tmp_path / "m.csv"
        to_csv(PiecewiseMetric(values=(0.25, 0.5, 0.75, 1.0)), path)
        header, *rows = path.read_text().splitlines()
        dropped = [header, rows[0], rows[1], rows[3]]  # L = 3 grid: 4/3, 8/3, 4
        swapped = [header, rows[0], rows[2], rows[1], rows[3]]
        for lines, bad_row in ((dropped, "row 1"), (swapped, "row 2")):
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=bad_row):
                from_csv(path)

    def test_json_round_trip(self):
        m = PiecewiseMetric(values=(0.25, 0.5, 0.75, 1.0), rho=0.14)
        back = from_json(to_json(m))
        assert back.values == m.values and back.rho == 0.14

    def test_json_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_json('{"L": 3, "values": [0.5, 1.0]}')
