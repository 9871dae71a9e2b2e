"""Tests for hard-disk configurations and the single-particle chain."""

import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from harddisks import dynamics
from harddisks.dynamics import (
    RUN_SLICE,
    CellGrid,
    ChainStats,
    Configuration,
    batch_insert,
    load_snapshot,
    radius_for_density,
    random_config,
    run,
    save_snapshot,
)
from harddisks.geometry import min_image_array
from oracles import CoupledPair, ScalarCellGrid, move_allowed_bruteforce, propose, replaced, step


def reference_batch_insert(B, n, rho, rng):
    """The (B, n, 2) insertion that batch_insert replaced, kept as its oracle.

    Same draws and the same arithmetic per chain; it returns the pool chain-major.
    """
    two_r2 = (2.0 * radius_for_density(n, rho)) ** 2
    centers = np.empty((B, n, 2))
    centers[:, 0] = rng.random((B, 2))
    for k in range(1, n):
        pending = np.arange(B)
        for _ in range(dynamics.MAX_INSERTION_ATTEMPTS):
            p = rng.random((len(pending), 2))
            d = min_image_array(centers[pending, :k] - p[:, None, :])
            dx, dy = d[..., 0], d[..., 1]
            ok = (dx * dx + dy * dy >= two_r2).all(axis=1)
            centers[pending[ok], k] = p[ok]
            pending = pending[~ok]
            if len(pending) == 0:
                break
        else:
            raise RuntimeError(
                f"random insertion failed: disk {k} found no free position in "
                f"{dynamics.MAX_INSERTION_ATTEMPTS} attempts (n={n}, rho={rho}); "
                "density too high for this initializer"
            )
    return centers


def reference_allowed(P, lim, i, x, y):
    """Is center i allowed to move to (x, y)?  Brute force over every other
    center of P, shape (2, n), each coordinate difference wrapped by round."""
    e = P - [[x], [y]]
    e -= np.round(e)
    dist2 = e[0] * e[0] + e[1] * e[1]
    dist2[i] = np.inf  # the moved disk's own old position never blocks
    return bool((dist2 >= lim).all())


def reference_run(config, steps, seed):
    """The step loop of run() as it read before its Python-float rewrite.

    Same draws (per slice: its indices, then its positions), but every step
    reads numpy scalars out of the slice arrays, is decided by brute force
    and moves through the 3x3 cell-list oracle.
    """
    rng = np.random.default_rng(seed)
    grid = ScalarCellGrid(config)
    P = config.centers.T.copy()
    accepted = 0
    for lo in range(0, steps, RUN_SLICE):
        todo = min(RUN_SLICE, steps - lo)
        idx = rng.integers(config.n, size=todo)
        pts = rng.random((todo, 2))
        for k in range(todo):
            i = int(idx[k])
            x, y = pts[k]
            if reference_allowed(P, grid.lim, i, x, y):
                grid.move(i, x, y)
                P[:, i] = x, y
                accepted += 1
    centers = np.column_stack([grid.xs, grid.ys])
    return centers, ChainStats(steps=steps, accepted=accepted)


def assert_pair_distance_law(samples, r):
    """Chi-square test of n = 2 pair distances against the stationary law.

    The stationary pair distance t has density proportional to t (the circle
    of radius t has perimeter 2 pi t) on (2r, 1/2).
    """
    samples = np.array(samples)
    edges = np.linspace(2 * r, 0.5, 11)
    counts, _ = np.histogram(samples[samples < 0.5], bins=edges)
    expect = (edges[1:] ** 2 - edges[:-1] ** 2)
    expect = expect / expect.sum() * counts.sum()
    assert stats.chisquare(counts, expect).pvalue > 0.01


def assert_strips_hold_their_cells(grid):
    """Each disk lies in exactly the three strips of its cell, with multiplicity.

    Strip (cx, cy), the first of neighbours[cx * m + cy], must list each disk
    once per cell of (cx, cy - 1), (cx, cy), (cx, cy + 1) that holds it; the
    block of a cell is its own strip, then those at cx - 1 and cx + 1, and
    the strips that hold it are those at cy - 1, cy and cy + 1.
    """
    m = grid.m
    assert grid.cell_of == [(int(x * m) % m) * m + int(y * m) % m
                            for x, y in zip(grid.xs, grid.ys)]
    strips = [block[0] for block in grid.neighbours]
    for cx in range(m):
        for cy in range(m):
            c = cx * m + cy
            column = [cx * m + (cy + dy) % m for dy in (-1, 0, 1)]
            block = [((cx + dx) % m) * m + cy for dx in (0, -1, 1)]
            want = Counter(j for k in column for j, cj in enumerate(grid.cell_of) if cj == k)
            assert Counter(strips[c]) == want, (cx, cy)
            assert [id(s) for s in grid.neighbours[c]] == [id(strips[k]) for k in block]
            assert [id(s) for s in grid.holders[c]] == [id(strips[k]) for k in column]


def strips_of(oracle):
    """The sorted strips that CellGrid keeps, built from the 3x3 oracle's cell lists."""
    m, cells = oracle.m, oracle.cells
    return [sorted(cells[cx * m + (cy - 1) % m] + cells[cx * m + cy] + cells[cx * m + (cy + 1) % m])
            for cx in range(m) for cy in range(m)]


def walk_one(grid, i, x, y):
    """Offer CellGrid.walk the single proposal (i, (x, y)); was it accepted?"""
    return grid.walk(np.array([i]), np.array([[x, y]])) == 1


class FakeRng:
    """Deterministic stand-in feeding scripted proposals to step()."""

    def __init__(self, index, point):
        self._index = index
        self._point = point

    def integers(self, n, size=None):
        return self._index

    def random(self, shape=None):
        return np.array(self._point)


class TestConfiguration:
    def test_density_identity(self):
        r = radius_for_density(16, 0.15)
        config = random_config(16, 0.15, seed=0)
        assert config.r == pytest.approx(r)
        assert config.rho == pytest.approx(0.15)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Configuration([[0.5, 0.5], [0.5 + 0.015, 0.5]], r=0.01)

    def test_accepts_radius_outside_coupling_regime(self):
        # 8r = 0.56: a valid hard-disk system; only the coupled oracle needs 8r < 1/2
        config = Configuration([[0.1, 0.1], [0.5, 0.5]], r=0.07)
        assert config.n == 2 and config.is_valid()
        with pytest.raises(ValueError, match="8r < 1/2"):
            CoupledPair(config, config)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_centers_and_radius(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Configuration([[bad, 0.5], [0.1, 0.1]], r=0.01)
        with pytest.raises(ValueError, match="finite"):
            Configuration([[0.5, 0.5], [0.1, 0.1]], r=bad)

    def test_single_disk_exempt_from_radius_cap(self):
        Configuration([[0.5, 0.5]], r=0.2)  # no pairwise geometry involved

    def test_centers_wrapped_and_read_only(self):
        config = Configuration([[1.25, -0.25]], r=0.01)
        assert config.centers[0, 0] == 0.25 and config.centers[0, 1] == 0.75
        with pytest.raises(ValueError):
            config.centers[0, 0] = 0.5

    def test_replace_keeps_original_intact(self):
        a = Configuration([[0.2, 0.2], [0.6, 0.6]], r=0.01)
        b = replaced(a, 0, (0.4, 0.4))
        assert a.centers[0, 0] == 0.2 and b.centers[0, 0] == 0.4


class TestRandomConfig:
    def test_single_disk(self):
        config = random_config(1, 0.1, seed=1)
        assert config.n == 1 and config.is_valid()

    def test_two_disks_respect_hard_core(self):
        config = random_config(2, 0.001, seed=2)
        d = config.centers[0] - config.centers[1]
        d -= np.round(d)
        assert np.hypot(*d) >= 2 * config.r

    def test_deterministic_and_valid(self):
        a = random_config(64, 0.15, seed=7)
        b = random_config(64, 0.15, seed=7)
        assert np.array_equal(a.centers, b.centers)
        assert a.is_valid()

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            random_config(4, 0.3, seed=0)

    def test_draw_order_pinned(self):
        # Every simulate output starts from this insertion; a change in the
        # order of the random draws must show up here.
        config = random_config(64, 0.15, seed=7)
        assert config.centers[0].tolist() == [0.625095466604667, 0.8972138009695755]
        assert config.centers[-1].tolist() == [0.9156354351007324, 0.04665223795388718]


class TestBatchInsert:
    # (513, 65): at disk 64 the clearance blocks hold 512 chains, so one is partial
    @pytest.mark.parametrize("B, n, rho", [
        (1, 1, 0.1), (7, 2, 0.002), (1, 64, 0.15), (300, 32, 0.14), (40, 64, 0.2), (513, 65, 0.15),
    ])
    def test_matches_reference_layout(self, B, n, rho):
        want_rng, got_rng = np.random.default_rng(B + n), np.random.default_rng(B + n)
        want = reference_batch_insert(B, n, rho, want_rng)
        got = batch_insert(B, n, rho, got_rng)
        assert got.shape == (2, n, B)
        assert np.array_equal(got, want.T)
        assert got_rng.random() == want_rng.random()

    def test_jammed_insertion_matches_reference(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_INSERTION_ATTEMPTS", 1)
        results = []
        for kernel in (reference_batch_insert, batch_insert):
            rng = np.random.default_rng(3)
            with pytest.raises(RuntimeError, match="random insertion failed") as info:
                kernel(5, 64, 0.2, rng)
            results.append((str(info.value), rng.random()))
        assert results[0] == results[1]
        assert "attempts (n=64, rho=0.2)" in results[0][0]


class TestPropose:
    def test_uniform_over_disks_and_positions(self):
        config = random_config(8, 0.05, seed=3)
        rng = np.random.default_rng(42)
        n_samples = 100_000
        idx = np.empty(n_samples, dtype=int)
        pts = np.empty((n_samples, 2))
        for k in range(n_samples):
            i, p = propose(config, rng)
            idx[k] = i
            pts[k] = (p.x, p.y)
        counts = np.bincount(idx, minlength=8)
        assert stats.chisquare(counts).pvalue > 0.01
        cells = np.bincount(
            (pts[:, 0] * 10).astype(int) * 10 + (pts[:, 1] * 10).astype(int),
            minlength=100,
        )
        assert stats.chisquare(cells).pvalue > 0.01


class TestStep:
    def test_single_disk_always_accepts(self):
        config = random_config(1, 0.1, seed=4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            config, accepted = step(config, rng)
            assert accepted

    def test_blocked_proposal_rejected_and_unchanged(self):
        config = Configuration([[0.2, 0.2], [0.6, 0.6]], r=0.01)
        fake = FakeRng(0, (0.6 + 0.015, 0.6))  # within 2r of disk 1
        after, accepted = step(config, fake)
        assert not accepted
        assert np.array_equal(after.centers, config.centers)

    def test_own_old_position_never_blocks(self):
        config = Configuration([[0.2, 0.2], [0.6, 0.6]], r=0.01)
        fake = FakeRng(0, (0.2 + 0.001, 0.2))  # overlaps only its old self
        after, accepted = step(config, fake)
        assert accepted
        assert after.centers[0, 0] == pytest.approx(0.201)

    def test_validity_preserved_over_audit_run(self):
        config = random_config(16, 0.12, seed=5)
        rng = np.random.default_rng(5)
        for _ in range(2000):
            config, _ = step(config, rng)
        assert config.is_valid()


class TestCellGrid:
    def test_matches_bruteforce_on_random_proposals(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            config = random_config(48, 0.16, seed=100 + trial)
            grid = CellGrid(config)
            for _ in range(2000):
                i = int(rng.integers(48))
                x, y = rng.random(2)
                ok = move_allowed_bruteforce(config, i, (x, y))
                assert walk_one(grid, i, x, y) == ok
                if ok:
                    config = replaced(config, i, (x, y))

    @pytest.mark.parametrize("n, rho, m",
                             [(1, 0.2, 1), (2, 0.2, 2), (3, 0.2, 3), (8, 0.2, 5), (8, 0.1, 7)])
    def test_small_grids_match_bruteforce(self, n, rho, m):
        # m < 8 only occurs at 8r > 1/2; at m <= 2 a strip lists a cell more
        # than once, and at m = 1 the block is one strip listed three times
        config = random_config(n, rho, seed=m)
        grid = CellGrid(config)
        assert grid.m == m
        rng = np.random.default_rng(m)
        for _ in range(20_000):
            i = int(rng.integers(n))
            x, y = rng.random(2)
            ok = move_allowed_bruteforce(config, i, (x, y))
            assert walk_one(grid, i, x, y) == ok
            if ok:
                config = replaced(config, i, (x, y))
        assert np.array_equal(np.column_stack([grid.xs, grid.ys]), config.centers)
        assert grid.cell_of == ScalarCellGrid(config).cell_of
        assert_strips_hold_their_cells(grid)

    def test_wrap_edge_cases_match_bruteforce(self):
        r = 0.02
        config = Configuration(
            [[-1e-20, 0.5], [0.0, 0.2], [0.75, 0.75], [0.5, -1e-20], [0.3, 0.0]], r=r
        )
        assert config.centers[0, 0] == 1.0 and config.centers[3, 1] == 1.0
        seam = [0.0, 1e-12, 0.01, 0.03, 0.99, 0.97, 1.0 - 1e-12]
        proposals = [(0.25, 0.75), (0.75, 0.25), (0.25, 0.25), (0.5, 0.0), (0.0, 0.5)]
        proposals += [(x, y) for x in seam for y in (0.2, 0.5)]
        proposals += [(x, y) for x in (0.3, 0.5) for y in seam]
        for xy in proposals:
            for i in range(config.n):
                # a fresh grid per proposal keeps the stored 0.0 and 1.0 in place
                grid = CellGrid(config)
                assert walk_one(grid, i, *xy) == move_allowed_bruteforce(config, i, xy), (i, xy)
        blocked = [xy for xy in proposals if not move_allowed_bruteforce(config, 2, xy)]
        assert (0.99, 0.2) in blocked and (1.0 - 1e-12, 0.5) in blocked

    def test_tracks_moves(self):
        config = random_config(16, 0.1, seed=8)
        grid = CellGrid(config)
        rng = np.random.default_rng(8)
        current = config
        for _ in range(500):
            i = int(rng.integers(16))
            x, y = rng.random(2)
            ok = move_allowed_bruteforce(current, i, (x, y))
            assert walk_one(grid, i, x, y) == ok
            if ok:
                current = replaced(current, i, (x, y))
        rebuilt = CellGrid(current)
        assert sorted(map(tuple, zip(grid.xs, grid.ys))) == sorted(
            map(tuple, zip(rebuilt.xs, rebuilt.ys))
        )

    def test_slice_matches_one_at_a_time(self):
        config = random_config(64, 0.15, seed=22)
        rng = np.random.default_rng(22)
        idx = rng.integers(64, size=dynamics.RUN_SLICE)
        pts = rng.random((dynamics.RUN_SLICE, 2))
        whole, single = CellGrid(config), CellGrid(config)
        accepted = whole.walk(idx, pts)
        assert accepted == sum(single.walk(idx[k:k + 1], pts[k:k + 1])
                               for k in range(len(idx)))
        assert 0 < accepted < len(idx)
        for name in ("xs", "ys", "cell_of", "neighbours"):
            assert getattr(whole, name) == getattr(single, name), name

    def test_cell_edges_match_scalar_oracle(self):
        config = random_config(48, 0.16, seed=23)
        grid, oracle = CellGrid(config), ScalarCellGrid(config)
        m = grid.m
        edges = [1.0 - 2.0**-53]
        for k in range(m):
            edges += [k / m, np.nextafter(k / m, 1.0)] + ([np.nextafter(k / m, 0.0)] if k else [])
        rng = np.random.default_rng(23)
        verdicts = []
        for x in edges:
            for y in edges:
                i = int(rng.integers(48))
                assert grid._cells(np.array([[x, y]])) == [oracle._cell(x, y)], (x, y)
                ok = oracle.allowed(i, x, y)
                assert walk_one(grid, i, x, y) == ok, (i, x, y)
                if ok:
                    oracle.move(i, x, y)
                verdicts.append(ok)
                assert grid.cell_of == oracle.cell_of
                assert grid.xs == oracle.xs and grid.ys == oracle.ys
                assert [sorted(block[0]) for block in grid.neighbours] == strips_of(oracle)
        assert_strips_hold_their_cells(grid)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("n, rho", [(1, 0.2), (2, 0.2), (3, 0.2), (64, 0.15)])
    def test_strips_hold_their_cells_after_walks(self, n, rho):
        config = random_config(n, rho, seed=24 + n)
        grid = CellGrid(config)
        assert_strips_hold_their_cells(grid)
        rng = np.random.default_rng(24 + n)
        for _ in range(20):
            assert grid.walk(rng.integers(n, size=500), rng.random((500, 2))) > 0
            assert_strips_hold_their_cells(grid)


class TestRun:
    def test_zero_steps_returns_input(self):
        config = random_config(4, 0.02, seed=9)
        final, stat = run(config, 0, seed=0)
        assert final is config and stat.steps == 0 and stat.accepted == 0

    def test_rejects_negative_steps(self):
        config = random_config(4, 0.02, seed=9)
        with pytest.raises(ValueError):
            run(config, -1, seed=0)

    def test_deterministic(self):
        config = random_config(32, 0.14, seed=10)
        a, stats_a = run(config, 20_000, seed=11)
        b, stats_b = run(config, 20_000, seed=11)
        assert np.array_equal(a.centers, b.centers)
        assert stats_a == stats_b

    def test_validity_and_stats_consistency(self):
        config = random_config(64, 0.15, seed=12)
        final, stat = run(config, 100_000, seed=13)
        assert final.is_valid()
        assert stat.accepted + stat.rejected == stat.steps == 100_000

    @pytest.mark.parametrize("steps", [1, 4_097, 65_537])
    @pytest.mark.parametrize("n,rho", [(1, 0.1), (2, 0.002), (16, 0.1), (48, 0.16), (64, 0.15)])
    def test_run_matches_reference(self, n, rho, steps):
        config = random_config(n, rho, seed=20 + n)
        final, stat = run(config, steps, seed=21 + n)
        centers, expect = reference_run(config, steps, seed=21 + n)
        assert np.array_equal(final.centers, centers)
        assert stat == expect

    def test_run_peak_memory(self):
        # 0.60 MiB with each slice drawing its own indices and positions;
        # drawing a 65,536-step block of int32 indices up front peaked at 0.82 MiB.
        config = random_config(64, 0.15, seed=2014)
        tracemalloc.start()
        try:
            run(config, 16 * RUN_SLICE, seed=2014)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 2**20, peak / 2**20

    def test_acceptance_rate_at_least_union_bound(self):
        config = random_config(64, 0.15, seed=14)
        final, stat = run(config, 200_000, seed=15)
        p = stat.acceptance_rate
        sigma = math.sqrt(p * (1 - p) / stat.steps)
        assert p >= 1 - 4 * 0.15 - 3 * sigma

    def test_pair_distance_stationary_distribution(self):
        rho = 0.002
        config = random_config(2, rho, seed=16)
        r = config.r
        rng = np.random.default_rng(17)
        samples = []
        for _ in range(8000):
            for _ in range(6):
                config, _ = step(config, rng)
            d = config.centers[0] - config.centers[1]
            d -= np.round(d)
            samples.append(np.hypot(*d))
        assert_pair_distance_law(samples, r)

    def test_pair_distance_stationary_distribution_through_walk(self):
        # The same law as above, on the package chain: CellGrid.walk.
        rho = 0.002
        config = random_config(2, rho, seed=16)
        r = config.r
        grid = CellGrid(config)
        rng = np.random.default_rng(17)
        samples = []
        for _ in range(8000):
            grid.walk(rng.integers(2, size=6), rng.random((6, 2)))
            d = np.array([grid.xs[0] - grid.xs[1], grid.ys[0] - grid.ys[1]])
            d -= np.round(d)
            samples.append(np.hypot(*d))
        assert_pair_distance_law(samples, r)


class TestChainStats:
    def test_rates(self):
        s = ChainStats(steps=10, accepted=7)
        assert s.rejected == 3 and s.acceptance_rate == 0.7
        assert ChainStats(steps=0, accepted=0).acceptance_rate == 0.0


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        config = random_config(16, 0.1, seed=18)
        path = tmp_path / "snap.csv"
        save_snapshot(config, path, seed=18)
        back = load_snapshot(path)
        assert back.n == 16
        assert np.allclose(back.centers, config.centers, atol=1e-11)
        assert back.r == pytest.approx(config.r, rel=1e-11)

    def test_disks_at_contact_reload_bit_for_bit(self, tmp_path):
        # Two disks just clear under the chain's own rule; centers and r
        # written at 12 digits reloaded as overlapping at 7 of these densities.
        path = tmp_path / "snap.csv"
        for rho in np.linspace(0.05, 0.2, 40).tolist():
            r = radius_for_density(2, rho)
            x0 = 0.25
            x1 = x0 + 2.0 * r
            while (x1 - x0) ** 2 < 4.0 * r * r:
                x1 = np.nextafter(x1, np.inf)
            config = Configuration([[x0, 0.5], [x1, 0.5]], r)
            save_snapshot(config, path)
            back = load_snapshot(path)
            assert np.array_equal(back.centers, config.centers) and back.r == config.r, rho

    def test_non_finite_file_contents_rejected(self, tmp_path):
        config = random_config(3, 0.02, seed=20)
        path = tmp_path / "snap.csv"
        save_snapshot(config, path, seed=20)
        good = path.read_text()
        path.write_text(good + "nan,0.5\n")
        with pytest.raises(ValueError, match="finite"):
            load_snapshot(path)
        path.write_text(good)
        sidecar = tmp_path / "snap.csv.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "r": math.nan}))
        with pytest.raises(ValueError, match="finite"):
            load_snapshot(path)

    def test_file_shapes(self, tmp_path):
        config = random_config(3, 0.02, seed=19)
        path = tmp_path / "snap.csv"
        save_snapshot(config, path, seed=19)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y" and len(lines) == 4
        sidecar = (tmp_path / "snap.csv.json").read_text()
        assert '"seed": 19' in sidecar
