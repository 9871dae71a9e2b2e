"""Tests for the piecewise-constant metric and configuration distances."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harddisks import metric as metric_mod
from harddisks.dynamics import Configuration
from harddisks.geometry import crescent_area
from harddisks.metric import (
    PiecewiseMetric,
    analytic_small_ell,
    check_axioms,
    from_csv,
    sum_down,
    to_csv,
)
from oracles import (
    DisagreementPair,
    check_axioms_looped,
    disagreements,
    hamming_metric,
    pair_distance,
    replaced,
    round_down,
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
        with pytest.raises(ValueError):
            m.eval(math.nan)

    def test_infinite_displacement_is_one(self):
        m = PiecewiseMetric(values=(0.1, 0.2))
        assert m.eval(math.inf) == 1.0
        assert m.eval_array([0.5, math.inf]).tolist() == [0.1, 1.0]

    @given(st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
    def test_eval_array_matches_scalar(self, lam):
        m = PiecewiseMetric(values=tuple(np.linspace(0.1, 1.0, 32)))
        assert m.eval_array([lam])[0] == m.eval(lam)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PiecewiseMetric(values=())


class TestStorage:
    def test_values_are_one_read_only_array(self):
        m = PiecewiseMetric(values=[0.25, 0.5, 1])
        assert isinstance(m.values, np.ndarray)
        assert m.values.dtype == np.float64 and m.values.shape == (3,)
        assert not m.values.flags.writeable
        with pytest.raises(ValueError):
            m.values[0] = 0.0

    def test_copies_the_callers_array(self):
        source = np.linspace(0.1, 1.0, 8)
        m = PiecewiseMetric(values=source)
        source[:] = 2.0
        assert m.values.tolist() == np.linspace(0.1, 1.0, 8).tolist()
        assert source.flags.writeable

    @pytest.mark.parametrize("values", [[], [[0.5, 1.0]], np.ones((2, 2)), 0.5])
    def test_rejects_empty_or_not_one_dimensional(self, values):
        with pytest.raises(ValueError):
            PiecewiseMetric(values=values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        # NaN slips past every comparison, so estimate_contraction would return NaN
        with pytest.raises(ValueError, match="finite"):
            PiecewiseMetric(values=[0.1, bad, 0.5, 1.0])

    def test_axiom_report_holds_plain_numbers(self):
        report = check_axioms(PiecewiseMetric(values=np.array([0.5, 1.2, 0.3])))
        entries = (report.range_violations + report.monotonicity_violations
                   + report.subadditivity_violations)
        assert entries and all(type(e[0]) is int and type(e[-1]) is float for e in entries)
        assert [type(x) for e in report.monotonicity_violations for x in e] == [int, float, float]

    def test_csv_round_trip_is_byte_identical(self, tmp_path):
        m = PiecewiseMetric(values=np.sqrt(np.linspace(1 / 3, 1.0, 37)))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        to_csv(m, first)
        to_csv(from_csv(first), second)
        assert first.read_bytes() == second.read_bytes()


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


finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


class TestSumDown:
    @given(finite_floats, finite_floats)
    def test_is_the_exact_sum_rounded_down(self, a, b):
        assert sum_down(a, b) == round_down(Fraction(a) + Fraction(b))

    def test_rounds_down_where_the_nearest_float_is_above(self):
        # 0.1 + 0.2 rounds up to 0.30000000000000004; the exact sum lies below it
        assert sum_down(0.1, 0.2) == 0.3 < 0.1 + 0.2
        assert sum_down([0.5, 0.25], 0.25).tolist() == [0.75, 0.5]  # exact sums stay


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

    def test_a_float_sum_that_rounds_up_is_a_violation(self):
        # fl(0.3 + 0.55) = 0.8500000000000001 lies above the exact sum; 0.85, the float below, passes
        rounded_up = PiecewiseMetric(values=(0.3, 0.55, 0.3 + 0.55))
        report = check_axioms(rounded_up)
        assert report.subadditivity_violations == [(1, 2, 0.8500000000000001)]
        assert report == check_axioms_looped(rounded_up)
        assert check_axioms(PiecewiseMetric(values=(0.3, 0.55, 0.85))).passed

    def test_tail_subadditivity_enforced(self):
        # d_i + d_j must reach 1 whenever lam_i + lam_j exceeds the grid end.
        report = check_axioms(PiecewiseMetric(values=(0.1, 0.2, 0.3, 0.4)))
        assert any(i + j > 4 for (i, j, _) in report.subadditivity_violations)

    @pytest.mark.parametrize("mutation", ["none", "range", "monotonicity", "subadditivity",
                                          "tail", "all"])
    @pytest.mark.parametrize("L", [1, 2, 7, 40])
    def test_matches_looped_reference(self, mutation, L):
        # The concave sqrt(lam/4) passes; each mutation breaks one axiom at
        # L = 40 (the tail rule through subadditivity_violations), "all" every one.
        d = np.sqrt(np.arange(1, L + 1) / L)
        if mutation in ("range", "all"):
            d[-1], d[0] = 1.5, -0.1
        if mutation in ("monotonicity", "all"):
            d[L // 2] -= 0.3
        if mutation in ("subadditivity", "all"):
            d[L // 2 :] = np.minimum(1.0, d[L // 2 :] + 0.5)
        if mutation in ("tail", "all"):
            d *= 0.4
        report = check_axioms(PiecewiseMetric(values=tuple(d)))
        assert report == check_axioms_looped(PiecewiseMetric(values=tuple(d)))
        if mutation == "none" or L == 40:
            assert report.passed == (mutation == "none")
        if L == 40 and mutation in ("range", "monotonicity"):
            assert getattr(report, f"{mutation}_violations")
        kinds = {"range": (int, float), "monotonicity": (int, float, float),
                 "subadditivity": (int, int, float)}
        for kind, types in kinds.items():
            for violation in getattr(report, f"{kind}_violations"):
                assert tuple(map(type, violation)) == types


def _config(centers, r):
    return Configuration(centers, r)


class TestPairDistance:
    r = 0.01

    def test_single_disagreement_at_tail(self):
        a = _config([[0.5, 0.5], [0.1, 0.1]], self.r)
        b = replaced(a, 0, (0.5 + 4 * self.r, 0.5))
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
            b = replaced(a, 0, a.centers[0] + (rng.random(2) - 0.5) * 0.05)
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
        assert back.values.tobytes() == m.values.tobytes()

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
        extra = [header, rows[0], rows[1], rows[2], rows[3] + ",2"]  # "4,1,2"
        text = [header, rows[0], rows[1], rows[2], "4,x"]
        not_a_number = [header, "nan,0.5", "4,1"]  # would load as L = 2
        for lines, bad_row in ((dropped, "row 1"), (swapped, "row 2"),
                               (extra, "row 4: 3 fields, expected 2"),
                               (text, "row 4: non-numeric field in '4,x'"),
                               (not_a_number, "row 1: lambda_right nan, expected 4\\*1/2")):
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=bad_row):
                from_csv(path)

    def test_csv_rejects_out_of_range_and_non_monotone(self, tmp_path):
        path = tmp_path / "m.csv"
        cases = (
            ((0.25, 2.0, 2.0, 2.0), "row 2: d 2 outside"),
            ((-0.5, 0.5, 0.75, 1.0), "row 1: d -0.5 outside"),
            ((0.25, 0.75, 0.5, 1.0), "row 2: d 0.75 exceeds row 3"),
        )
        for values, bad_row in cases:
            to_csv(PiecewiseMetric(values=values), path)
            with pytest.raises(ValueError, match=bad_row):
                from_csv(path)
        path.write_text("lambda_right,d\n1,0.25\n2,0.5\n3,0.75\n4,nan\n")
        with pytest.raises(ValueError, match="row 4: d nan outside"):
            from_csv(path)
        # The check is exact: a dip or an overshoot of 5e-13 is an error.
        path.write_text("lambda_right,d\n1,0.5\n2,0.4999999999995\n3,1.0000000000005\n4,1\n")
        with pytest.raises(ValueError, match="row 3: d 1.0000000000005 outside"):
            from_csv(path)
        path.write_text("lambda_right,d\n1,0.5\n2,0.4999999999995\n3,1\n4,1\n")
        with pytest.raises(ValueError, match="row 1: d 0.5 exceeds row 2's 0.49999999999950001"):
            from_csv(path)

    @pytest.mark.parametrize("rows, err", [
        ("2,0.2\n4,0.3", "rows 1 and 2 break the tail rule d_1 \\+ d_2 >= 1"),
        ("1,0.1\n2,0.5\n3,0.6\n4,1", "rows 1 and 1 break subadditivity d_2 <= d_1 \\+ d_1"),
    ])
    def test_csv_rejects_subadditivity_and_tail_violations(self, tmp_path, rows, err):
        path = tmp_path / "m.csv"
        path.write_text(f"lambda_right,d\n{rows}\n")
        with pytest.raises(ValueError, match=f"metric CSV {err}"):
            from_csv(path)
