"""Layer benchmarks for the chain-pool kernels of the contraction estimator.

    PYTHONPATH=src python -m pytest benchmarks
    PYTHONPATH=src python -m pytest -q benchmarks --benchmark-disable  # smoke run

One batched sweep step is reported as ns per chain·disk in `extra_info`.
"""

import numpy as np

from harddisks import coupling, dynamics

B, N, RHO, STEPS, SEED = 4096, 32, 0.14, 128, 2014


def test_batch_sweep(benchmark):
    two_r2 = (2.0 * dynamics.radius_for_density(N, RHO)) ** 2
    rng = np.random.default_rng(SEED)
    start = dynamics.batch_insert(B, N, RHO, rng)
    coupling._batch_sweep(start, 4 * N, two_r2, rng)  # leave the insertion state
    state = rng.bit_generator.state

    def fresh():
        gen = np.random.default_rng()
        gen.bit_generator.state = state
        return (start.copy(), STEPS, two_r2, gen), {}

    benchmark.pedantic(coupling._batch_sweep, setup=fresh, rounds=5, warmup_rounds=1)
    if benchmark.stats:
        ns = 1e9 * benchmark.stats.stats.min / (STEPS * B * N)
        benchmark.extra_info["ns_per_chain_disk"] = round(ns, 3)
