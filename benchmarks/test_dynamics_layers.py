"""Layer benchmarks for the chain itself: the CellGrid step and pool insertion.

    PYTHONPATH=src python -m pytest benchmarks/test_dynamics_layers.py
    PYTHONPATH=src python -m pytest -q benchmarks --benchmark-disable  # smoke run

`test_run` times `dynamics.run` for 65,536 steps at n = 64, ρ = 0.15 (the
`simulate` settings of perfbench) from one fixed configuration and seed, and
reports `ns_per_step` and the tracemalloc peak of one run, `peak_mb`; past
the draws, every step runs inside `CellGrid.walk`, 16 calls of RUN_SLICE
proposals.  It read 496 ns per step with three column strips per proposal
against 582 ns with nine cell lists (2-vCPU Xeon, BENCH_32.json), and its
peak 0.60 MiB with each slice drawing its own indices and positions against
0.82 MiB with a 65,536-step block of indices drawn up front.
`test_batch_insert` times the random sequential insertion of a pool of
coupling.BATCH chains at n = 32, ρ = 0.14 (the estimator's pool) and reports
`ns_per_chain_disk`.  All go into `extra_info`.
"""

import tracemalloc

import numpy as np

from harddisks import coupling, dynamics

SEED = 2014


def _report(benchmark, key, count):
    if benchmark.stats:
        benchmark.extra_info[key] = round(1e9 * benchmark.stats.stats.min / count, 3)


def test_run(benchmark):
    steps = 16 * dynamics.RUN_SLICE
    config = dynamics.random_config(64, 0.15, seed=SEED)
    _, stats = benchmark.pedantic(dynamics.run, args=(config, steps, SEED),
                                  rounds=5, warmup_rounds=1)
    assert stats.steps == steps
    _report(benchmark, "ns_per_step", steps)
    tracemalloc.start()
    try:
        dynamics.run(config, steps, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["peak_mb"] = round(peak / 2**20, 3)


def test_batch_insert(benchmark):
    B, n = coupling.BATCH, 32

    def fresh():
        return (B, n, 0.14, np.random.default_rng(SEED)), {}

    P = benchmark.pedantic(dynamics.batch_insert, setup=fresh, rounds=5, warmup_rounds=1)
    assert P.shape == (2, n, B)
    _report(benchmark, "ns_per_chain_disk", B * n)
