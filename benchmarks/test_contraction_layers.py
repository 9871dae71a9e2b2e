"""Layer benchmarks for the contraction half: assembly, one search probe, the
witness and the whole density search.

    PYTHONPATH=src python -m pytest benchmarks/test_contraction_layers.py
    PYTHONPATH=src python -m pytest -q benchmarks --benchmark-disable  # smoke run

At L = 256 and 1024, `test_assemble` reports one unit-density assembly as
`assemble_ms` with the storage of its savings rows (the head blocks and the
last row) as `savings_mb` and the working memory beyond them (tracemalloc
peak minus `savings_mb`) as `transient_mb`,
`test_search_probe` one feasibility decision at the bound, on
the shared system relabelled with that density, as `ms_per_probe`,
`test_witness` the repaired witness and its verification at the bound, which
streams the rows past the stored head, as `ms` with its tracemalloc peak as
`peak_mb`, `test_repaired_metric` the exact repair alone, its head sweep done
beforehand, as `repair_ms`, both at the bound and at rho = 0.03, where the
lam/4 floor binds on the whole head and every row's least settled pair sum
reaches its base, and `test_max_density` the whole search (one assembly, the
sweeps that find the last row's root and confirm the walked bisection path,
and the witness) as `max_density_ms`, each in `extra_info`.
"""

import tracemalloc
from dataclasses import replace

import pytest

from harddisks import contraction

LS = (256, 1024)


def _report(benchmark, key, digits=3):
    if benchmark.stats:
        benchmark.extra_info[key] = round(1e3 * benchmark.stats.stats.min, digits)


def _traced(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("L", LS)
def test_assemble(benchmark, L):
    benchmark.pedantic(contraction.assemble, args=(contraction.SEARCH_LO, L),
                       rounds=5, warmup_rounds=1)
    _report(benchmark, "assemble_ms")
    system, peak = _traced(contraction.assemble, contraction.SEARCH_LO, L)
    savings = sum(block.nbytes for block in system.head) + system.last.nbytes
    benchmark.extra_info["savings_mb"] = round(savings / 2**20, 3)
    benchmark.extra_info["transient_mb"] = round((peak - savings) / 2**20, 3)


@pytest.mark.parametrize("L", LS)
def test_search_probe(benchmark, L):
    base = contraction.assemble(contraction.SEARCH_LO, L)
    system = replace(base, rho=contraction.max_density(L).rho_star)
    assert benchmark.pedantic(contraction.decide, args=(system,), rounds=20, warmup_rounds=1)
    _report(benchmark, "ms_per_probe", 4)


@pytest.mark.parametrize("L", LS)
def test_witness(benchmark, L):
    base = contraction.assemble(contraction.SEARCH_LO, L)
    system = replace(base, rho=contraction.max_density(L).rho_star)
    metric, _, _ = benchmark.pedantic(contraction.witness, args=(system,), rounds=5, warmup_rounds=1)
    assert metric.L == L
    _report(benchmark, "ms")
    _, peak = _traced(contraction.witness, system)
    benchmark.extra_info["peak_mb"] = round(peak / 2**20, 3)


@pytest.mark.parametrize("rho", [None, 0.03], ids=["rho_star", "rho_0.03"])
@pytest.mark.parametrize("L", LS)
def test_repaired_metric(benchmark, L, rho):
    base = contraction.assemble(contraction.SEARCH_LO, L)
    system = replace(base, rho=contraction.max_density(L).rho_star if rho is None else rho)
    system.swept  # the witness reuses the search's sweep
    metric = benchmark.pedantic(contraction.repaired_metric, args=(system,), rounds=10, warmup_rounds=1)
    assert metric.L == L
    _report(benchmark, "repair_ms")


@pytest.mark.parametrize("L", LS)
def test_max_density(benchmark, L):
    benchmark.pedantic(contraction.max_density, args=(L,), rounds=5, warmup_rounds=1)
    _report(benchmark, "max_density_ms")
