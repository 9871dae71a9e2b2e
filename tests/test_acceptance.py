"""Acceptance suite: ten end-to-end checks at fixed tolerances.

Each test prints one `criterion NN: PASS` / `FAIL` line so the suite doubles
as a scoreboard.  Expensive artifacts (the L = 256 optimum, the grid-size
table) are computed once per session and shared.
"""

import functools
import math
import os
import sys
import time

import numpy as np
import pytest

from harddisks import contraction, coupling, dynamics, geometry
from harddisks.cli import main as cli_main
from harddisks.contraction import assemble, max_density, slack_report
from harddisks.geometry import crescent_area
from harddisks.metric import analytic_small_ell
from oracles import (
    TorusPoint,
    assemble_as_written,
    crescent_angle,
    lp_feasible,
    minimal_metric,
    move_allowed_bruteforce,
    reflect_across_bisector,
    replaced,
    torus_dist,
)

from test_geometry import monte_carlo_crescent_area

TABLE_LS = (8, 16, 32, 64, 128, 256)
TABLE_RHO = (0.150024, 0.152182, 0.153373, 0.153999, 0.154320, 0.154483)
THREADS = os.cpu_count() or 1


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d}: FAIL", file=sys.stderr)
                raise
            print(f"criterion {num:02d}: PASS", file=sys.stderr)
        return wrapper
    return deco


@pytest.fixture(scope="module")
def table_bounds():
    """Bounds for every grid size in the reference table."""
    t0 = time.perf_counter()
    results = {L: max_density(L) for L in TABLE_LS}
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def optimum_256(table_bounds):
    return table_bounds[0][256]


@criterion(1)
def test_criterion_01_table_reproduction(table_bounds):
    results, elapsed = table_bounds
    for L, expected in zip(TABLE_LS, TABLE_RHO):
        assert abs(results[L].rho_star - expected) < 2e-4, (L, results[L].rho_star)
    assert elapsed < 60.0, elapsed


@criterion(2)
def test_criterion_02_hamming_baseline():
    t0 = time.perf_counter()
    result = max_density(1, hamming=True)
    elapsed = time.perf_counter() - t0
    assert abs(result.rho_star - 0.125) < 1e-6
    assert elapsed < 1.0, elapsed


@criterion(3)
def test_criterion_03_analytic_agreement(optimum_256):
    t0 = time.perf_counter()
    metric = optimum_256.metric
    rho = optimum_256.rho_star
    grid = metric.grid
    values = np.array(metric.values)
    head = grid <= 1.0
    h = 4.0 / metric.L
    slopes = np.abs(np.diff(np.concatenate([[0.0], values]))) / h
    tol = max(5e-3, 2.0 * h * slopes[head].max())
    exact = np.array([analytic_small_ell(lam, rho) for lam in grid[head]])
    assert np.max(np.abs(values[head] - exact)) < tol
    assert time.perf_counter() - t0 < 10.0


@criterion(4)
def test_criterion_04_tightness_pattern(optimum_256):
    grid = optimum_256.metric.grid
    residuals = optimum_256.slack
    h = 4.0 / 256
    assert np.all(residuals[grid <= 2.0] < 1e-6)
    assert np.all(residuals[grid > 2.0 + h] > 0.0)


@criterion(5)
def test_criterion_05_variant_robustness(table_bounds, monkeypatch):
    # The savings integral run on past u = 2, where the crescent never reaches.
    results, _ = table_bounds
    monkeypatch.setattr(contraction, "assemble", assemble_as_written)
    for L in TABLE_LS:
        other = max_density(L)
        assert abs(results[L].rho_star - other.rho_star) < 1e-5, L


@criterion(6)
def test_criterion_06_geometry_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for lam in np.linspace(0.2, 4.0, 20):
        mc = monte_carlo_crescent_area(lam, side=1000, rng=rng)
        assert abs(mc - crescent_area(lam)) < 2e-3, lam
    phis = np.linspace(0.0, 2.0 * math.pi, 200_001)[:-1]
    for u, lam in [(0.5, 0.7), (1.0, 1.0), (1.5, 2.0), (1.9, 3.0), (0.8, 2.5)]:
        px = u * np.cos(phis) - lam
        py = u * np.sin(phis)
        frac = np.mean(px * px + py * py >= 4.0)
        assert abs(frac - (math.pi - crescent_angle(u, lam)) / math.pi) < 1e-3
    for _ in range(200):
        # reflection uses a local chart, so keep the triple inside one patch
        cx, cy = rng.random(2)
        (ax, ay), (bx, by), (zx, zy) = rng.uniform(-0.1, 0.1, (3, 2))
        a = TorusPoint(cx + ax, cy + ay)
        b = TorusPoint(cx + bx, cy + by)
        z = TorusPoint(cx + zx, cy + zy)
        if torus_dist(a, b) < 1e-9:
            continue
        image = reflect_across_bisector(z, a, b)
        back = reflect_across_bisector(image, a, b)
        assert torus_dist(back, z) < 1e-12
        assert abs(torus_dist(image, a) - torus_dist(z, b)) < 1e-12
        assert abs(torus_dist(image, b) - torus_dist(z, a)) < 1e-12
    assert time.perf_counter() - t0 < 30.0


@criterion(7)
def test_criterion_07_solver_equivalence():
    rng = np.random.default_rng(707)
    for _ in range(100):
        L = int(rng.integers(1, 33))
        rho = float(rng.uniform(0.05, 0.24))
        system = assemble(rho, L)
        sweep = bool(np.all(np.array(minimal_metric(system).values) <= 1.0))
        assert lp_feasible(system) == sweep, (rho, L)


@criterion(8)
def test_criterion_08_dynamics_properties():
    t0 = time.perf_counter()
    n, rho, total_steps = 64, 0.15, 1_000_000
    config = dynamics.random_config(n, rho, seed=808)
    seeds = np.random.SeedSequence(808).spawn(11)
    accepted = 0
    for k in range(10):
        config, stats = dynamics.run(config, total_steps // 10, seeds[k])
        accepted += stats.accepted
        assert config.is_valid()
    p = accepted / total_steps
    sigma = math.sqrt(p * (1 - p) / total_steps)
    assert p >= 1 - 4 * rho - 3 * sigma
    # audited segment: the cell-grid decision must match brute force step by step
    grid = dynamics.CellGrid(config)
    rng = np.random.default_rng(seeds[10])
    for _ in range(10_000):
        i = int(rng.integers(n))
        x, y = rng.random(2)
        fast = grid.walk(np.array([i]), np.array([[x, y]])) == 1
        assert fast == move_allowed_bruteforce(config, i, (x, y))
        if fast:
            config = replaced(config, i, (x, y))
    assert config.is_valid()
    assert time.perf_counter() - t0 < 60.0


@criterion(9)
def test_criterion_09_empirical_contraction(optimum_256):
    t0 = time.perf_counter()
    metric = optimum_256.metric
    for ell in (0.5, 1.0, 2.0, 3.0, 4.0):
        est = coupling.estimate_contraction(
            n=32, rho=0.14, ell_over_r=ell, metric=metric,
            trials=1_000_000, seed=909, threads=THREADS,
        )
        assert est.mean_delta_bound + est.ci99_bound < 0.0, ell
        assert est.mean_delta_exact <= est.mean_delta_bound + 1e-12, ell
    assert time.perf_counter() - t0 < 600.0


@criterion(10)
def test_criterion_10_determinism(tmp_path, optimum_256, capsys):
    from harddisks.metric import to_csv

    metric_path = tmp_path / "metric.csv"
    to_csv(optimum_256.metric, metric_path)
    commands = {
        "bound": ["bound", "--L", "8"],
        "simulate": ["simulate", "--n", "16", "--rho", "0.1",
                     "--steps", "20000", "--seed", "42"],
        "couple": ["couple", "--n", "8", "--rho", "0.1", "--ell", "1.0",
                   "--trials", "20000", "--metric", str(metric_path),
                   "--seed", "42"],
    }
    for name, argv in commands.items():
        outputs = []
        for threads in (1, THREADS):
            coupling._cold_pool.cache_clear()
            assert cli_main(["--threads", str(threads)] + argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], name
