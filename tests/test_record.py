"""Tests for the verdicts of benchmarks/record.py on synthetic runs, and its checkouts."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "record.py"
_SPEC = importlib.util.spec_from_file_location("record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

BASE = [1.00, 1.02, 0.98, 1.04, 0.96, 1.01, 0.99, 1.03, 0.97, 1.00]  # IQR 0.035


def runs_of(base, head, name="cpu_s"):
    def run(value):
        return {"metrics": {name: value}, "failed": 0, "attempted": 1}
    return {"base": [run(v) for v in base], "head": [run(v) for v in head]}


def verdict(base, head, better="lower", bound=0.24):
    out = record.summarize(runs_of(base, head), {"cpu_s": better}, {"cpu_s": bound})
    return out["head_wins"]["cpu_s"], out["gain_shown"]["cpu_s"], out["beyond_bound"]["cpu_s"]


def test_gain_shown_on_nine_of_ten_wins_beyond_the_iqr():
    head = [0.8 * v for v in BASE]
    head[3] = 1.10  # one lost pair
    assert verdict(BASE, head) == (9, True, False)


def test_eight_wins_show_no_gain():
    head = [0.8 * v for v in BASE]
    head[3] = head[5] = 1.10
    assert verdict(BASE, head) == (8, False, False)


def test_fewer_than_ten_pairs_show_no_gain():
    assert verdict(BASE[:9], [0.8 * v for v in BASE[:9]]) == (9, False, False)


def test_gap_within_the_base_iqr_shows_no_gain():
    head = [v - 0.02 for v in BASE]  # wins every pair, median 0.02 < IQR 0.035
    assert verdict(BASE, head) == (10, False, False)


def test_higher_is_better_reverses_the_direction():
    head = [1.25 * v for v in BASE]
    assert verdict(BASE, head, better="higher") == (10, True, False)
    assert verdict(BASE, head, better="lower") == (0, False, True)


@pytest.mark.parametrize("factor, beyond", [(1.2, False), (1.3, True)])
def test_beyond_bound_is_relative_to_the_base_median(factor, beyond):
    head = [factor * v for v in BASE]
    assert verdict(BASE, head, bound=0.24)[2] is beyond


# per-process minima of test_run in BENCH_32.json (s): 11 of 12 head minima
# beat every base minimum, one slow head process does not
LAYER_BASE = [0.0393, 0.0388, 0.0385, 0.0399, 0.0382, 0.0381,
              0.0496, 0.0431, 0.0396, 0.0388, 0.0398, 0.0384]
LAYER_HEAD = [0.0331, 0.0325, 0.0390, 0.0333, 0.0355, 0.0338,
              0.0329, 0.0332, 0.0340, 0.0336, 0.0338, 0.0331]


def test_one_slow_process_breaks_separation_but_not_the_share():
    assert sum(h < min(LAYER_BASE) for h in LAYER_HEAD) == 11  # the ranges overlap
    share = record.compare_layer(LAYER_BASE, LAYER_HEAD)
    assert share >= 0.9
    assert record.compare_layer(LAYER_HEAD, LAYER_BASE) == pytest.approx(1.0 - share)


def test_disjoint_minima_are_separated_either_way():
    fast = [0.5 * v for v in LAYER_BASE]
    assert record.compare_layer(LAYER_BASE, fast) == 1.0
    assert record.compare_layer(fast, LAYER_BASE) == 0.0


def test_export_leaves_nothing_behind():
    with record.export("HEAD") as checkout:
        assert checkout.name == record.git("rev-parse", "HEAD")
        assert (checkout / "perfbench" / "run.py").is_file()
    assert not checkout.parent.exists()
