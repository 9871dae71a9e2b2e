"""Layer benchmarks for the chain-pool kernels of the contraction estimator.

    PYTHONPATH=src python -m pytest benchmarks
    PYTHONPATH=src python -m pytest -q benchmarks --benchmark-disable  # smoke run

The pool has coupling.BATCH chains, the largest pool the estimator runs,
stored disk-major as one array of shape (2, n, chains).  One batched
sweep step is reported as ns per chain·disk; one stratified coupled-trial
step, the m^2 disk-0 grid points and KC weighted crescent-lattice points per
chain, as ns per configuration, and its draw and crescent map alone
(coupling._draw_proposals) the same way; the disk-0 grid count of the whole pool
(geometry.free_grid_counts) as ns per chain; one displacement of the whole
pool as ns per chain, over DISPLACE_POOLS freshly seeded pools, because the
chains that need more than one pass, and the caged ones, set its cost and
differ from pool to pool; and the cold
start of a pool (insertion plus the equilibration sweeps) as ns per
chain·step, each in `extra_info`.
"""

import numpy as np
import pytest

from harddisks import coupling, dynamics, geometry
from harddisks.metric import PiecewiseMetric

B, N, RHO, STEPS, SEED = coupling.BATCH, 32, 0.14, 128, 2014
DISPLACE_POOLS = 16  # seeds SEED, SEED + 1, ...
ELL = 1.0  # displacement of the trial and displacement kernels, units of r
METRIC = PiecewiseMetric(values=tuple(np.linspace(1.0 / 64, 1.0, 64)))


def _pool(seed):
    """An equilibrated-enough pool and the generator state after it."""
    two_r2 = (2.0 * dynamics.radius_for_density(N, RHO)) ** 2
    rng = np.random.default_rng(seed)
    start = dynamics.batch_insert(B, N, RHO, rng)
    coupling._batch_sweep(start, 4 * N, two_r2, rng)  # leave the insertion state
    return start, rng.bit_generator.state


@pytest.fixture(scope="module")
def pool():
    return _pool(SEED)


def _rng(state):
    gen = np.random.default_rng()
    gen.bit_generator.state = state
    return gen


def _report(benchmark, key, count):
    if benchmark.stats:
        benchmark.extra_info[key] = round(1e9 * benchmark.stats.stats.min / count, 3)


def test_batch_sweep(benchmark, pool):
    start, state = pool
    two_r2 = (2.0 * dynamics.radius_for_density(N, RHO)) ** 2

    def fresh():
        return (start.copy(), STEPS, two_r2, _rng(state)), {}

    benchmark.pedantic(coupling._batch_sweep, setup=fresh, rounds=5, warmup_rounds=1)
    _report(benchmark, "ns_per_chain_disk", STEPS * B * N)


def test_displace(benchmark):
    pools = [_pool(SEED + k) for k in range(DISPLACE_POOLS)]
    r = dynamics.radius_for_density(N, RHO)

    def fresh():
        return ([(start.copy(), _rng(state)) for start, state in pools],), {}

    def displace_each(copies):
        for P, rng in copies:
            coupling._displace(P, ELL * r, (2.0 * r) ** 2, rng)

    benchmark.pedantic(displace_each, setup=fresh, rounds=5, warmup_rounds=1)
    _report(benchmark, "ns_per_chain", DISPLACE_POOLS * B)


def test_batch_trials(benchmark, pool):
    start, state = pool
    r = dynamics.radius_for_density(N, RHO)
    y1 = coupling._displace(start.copy(), ELL * r, (2.0 * r) ** 2, _rng(state))

    def fresh():
        return (start, y1, METRIC, ELL, r, _rng(state), coupling._Tally(B)), {}

    benchmark.pedantic(coupling._batch_trials, setup=fresh, rounds=20, warmup_rounds=1)
    _report(benchmark, "ns_per_configuration", B)


def test_draw_proposals(benchmark, pool):
    start, state = pool
    r = dynamics.radius_for_density(N, RHO)
    y1 = coupling._displace(start.copy(), ELL * r, (2.0 * r) ** 2, _rng(state))

    def fresh():
        return (start, y1, ELL, r, _rng(state)), {}

    benchmark.pedantic(coupling._draw_proposals, setup=fresh, rounds=50, warmup_rounds=1)
    _report(benchmark, "ns_per_configuration", B)


def test_free_grid_counts(benchmark, pool):
    start, state = pool
    r = dynamics.radius_for_density(N, RHO)
    shift = _rng(state).random((2, B))
    args = (*start[:, 1:], shift, geometry.cells_per_side(r), (2.0 * r) ** 2)
    benchmark.pedantic(geometry.free_grid_counts, args=args, rounds=50, warmup_rounds=1)
    _report(benchmark, "ns_per_chain", B)


def test_cold_pool(benchmark):
    sweeps = coupling.EQUILIBRATION_SWEEPS
    cold = coupling._cold_pool.__wrapped__  # the estimator's pool build, unmemoized
    benchmark.pedantic(cold, args=(N, RHO, B, sweeps, SEED), rounds=3, warmup_rounds=1)
    _report(benchmark, "ns_per_chain_step", B * sweeps * N)
