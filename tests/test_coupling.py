"""Tests for the coupled evolution and the contraction estimator."""

import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from harddisks import coupling, dynamics, geometry
from harddisks.coupling import OUTCOME_KINDS, estimate_contraction
from harddisks.dynamics import Configuration, radius_for_density, random_config
from harddisks.geometry import crescent_area, min_image_array, outside_zone_area
from harddisks.metric import PiecewiseMetric
from oracles import (
    CoupledPair,
    TorusPoint,
    classify_step,
    coupled_step,
    crescent_angle,
    crescent_angle_array,
    free_grid_bruteforce,
    hamming_metric,
    make_pair,
    reflect_across_bisector,
    replaced,
    shifted_grid,
    torus_dist,
    uniform_crescent_proposals,
)

TEST_METRIC = PiecewiseMetric(values=tuple(np.minimum(1.0, np.linspace(0.05, 1.6, 32))))


def _pair(n=8, rho=0.02, ell_over_r=2.0, seed=0):
    return make_pair(n, rho, ell_over_r, seed)


def _grid_points(n, rho):
    """m^2, the disk-0 proposals of one configuration."""
    return coupling._grid_side(radius_for_density(n, rho)) ** 2


class TestMakePair:
    def test_differs_only_at_disk_zero(self):
        pair = _pair()
        assert np.array_equal(pair.X.centers[1:], pair.Y.centers[1:])
        assert not np.array_equal(pair.X.centers[0], pair.Y.centers[0])

    def test_displacement_length_exact(self):
        for ell in (0.5, 1.0, 3.0, 4.0):
            pair = _pair(ell_over_r=ell, seed=int(ell * 10))
            assert pair.ell == pytest.approx(ell * pair.X.r, abs=1e-12)

    def test_both_sides_valid(self):
        pair = _pair(seed=3)
        assert pair.X.is_valid() and pair.Y.is_valid()

    def test_rejects_bad_displacement(self):
        with pytest.raises(ValueError):
            make_pair(8, 0.02, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_pair(8, 0.02, 4.5, seed=0)

    def test_mismatched_configurations_rejected(self):
        a = random_config(4, 0.02, seed=1)
        b = random_config(5, 0.02, seed=1)
        with pytest.raises(ValueError):
            CoupledPair(X=a, Y=b)


def _two_disk_pair(ell_over_r, r=0.01):
    """n = 2 pair: the disagreeing disk 0 plus one shared spectator disk."""
    x1 = (0.5, 0.5)
    y1 = (0.5 + ell_over_r * r, 0.5)
    spectator = (0.2, 0.2)
    X = Configuration([x1, spectator], r)
    Y = Configuration([y1, spectator], r)
    return CoupledPair(X=X, Y=Y)


class TestClassifyStep:
    r = 0.01

    def test_coalescence_on_shared_valid_proposal(self):
        pair = _two_disk_pair(2.0)
        d_ell = TEST_METRIC.eval(2.0)
        out = classify_step(pair, TEST_METRIC, 0, TorusPoint(0.8, 0.8))
        assert out.kind == "coalesced"
        assert out.delta_bound == pytest.approx(-d_ell)
        assert out.delta_exact == pytest.approx(-d_ell)
        assert np.array_equal(out.X.centers, out.Y.centers)

    def test_shared_blocked_proposal_changes_nothing(self):
        pair = _two_disk_pair(2.0)
        out = classify_step(pair, TEST_METRIC, 0, TorusPoint(0.2 + 0.015, 0.2))
        assert out.kind == "unchanged" and out.delta_exact == 0.0

    def test_mirror_crescent_rejects_in_both_chains(self):
        pair = _two_disk_pair(3.0)
        # z within 2r of x1 but at least 2r from y1: left of x1
        z = TorusPoint(0.5 - 1.5 * self.r, 0.5)
        out = classify_step(pair, TEST_METRIC, 1, z)
        assert out.kind == "both-rejected"
        assert out.delta_bound == 0.0 and out.delta_exact == 0.0
        assert np.array_equal(out.X.centers, pair.X.centers)

    def test_far_move_keeps_labels_and_charges_full_weight(self):
        pair = _two_disk_pair(1.0)
        # z in the crescent around y1 with s >= ell
        z = TorusPoint(0.5 + 1.0 * self.r + 1.8 * self.r, 0.5)
        s = torus_dist(z, TorusPoint(0.5 + 1.0 * self.r, 0.5))
        assert s >= 1.0 * self.r
        out = classify_step(pair, TEST_METRIC, 1, z)
        assert out.kind == "far-move"
        assert out.delta_bound == 1.0
        assert out.delta_exact <= out.delta_bound + 1e-12

    def test_near_move_charges_relabeling_bound(self):
        pair = _two_disk_pair(3.5)
        # z in the crescent around y1, closer to y1 than ell
        z = TorusPoint(0.5 + 3.5 * self.r - 1.5 * self.r, 0.5)
        s = torus_dist(z, TorusPoint(0.5 + 3.5 * self.r, 0.5))
        assert s < 3.5 * self.r
        out = classify_step(pair, TEST_METRIC, 1, z)
        assert out.kind == "near-move"
        want = 1.0 + TEST_METRIC.eval(s / self.r) - TEST_METRIC.eval(3.5)
        assert out.delta_bound == pytest.approx(want)
        assert out.delta_exact <= out.delta_bound + 1e-12

    def test_outside_both_zones_moves_both_chains_identically(self):
        pair = _two_disk_pair(2.0)
        z = TorusPoint(0.9, 0.9)
        out = classify_step(pair, TEST_METRIC, 1, z)
        assert out.kind == "unchanged"
        assert np.array_equal(out.X.centers[1], out.Y.centers[1])
        assert out.X.centers[1][0] == pytest.approx(0.9)

    def test_fuzzed_case_partition_and_dominance(self):
        rng = np.random.default_rng(21)
        pair = _pair(n=8, rho=0.02, ell_over_r=2.5, seed=5)
        counts = {k: 0 for k in OUTCOME_KINDS}
        for _ in range(3000):
            out = coupled_step(pair, TEST_METRIC, rng)
            assert out.kind in OUTCOME_KINDS
            counts[out.kind] += 1
            assert out.delta_exact <= out.delta_bound + 1e-12
            assert out.X.is_valid() and out.Y.is_valid()
        assert sum(counts.values()) == 3000
        assert counts["coalesced"] > 0 and counts["unchanged"] > 0

    def test_reflected_proposal_marginally_uniform(self):
        # The Y chain's effective proposal (reflected inside the symmetric
        # difference of the danger zones) must stay uniform on the torus.
        rng = np.random.default_rng(22)
        r = self.r
        x1, y1 = TorusPoint(0.5, 0.5), TorusPoint(0.5 + 3.0 * r, 0.5)
        cells = np.zeros(25, dtype=int)
        for _ in range(20_000):
            z = TorusPoint(*rng.random(2))
            in_x = torus_dist(z, x1) < 2 * r
            in_y = torus_dist(z, y1) < 2 * r
            y_prop = reflect_across_bisector(z, x1, y1) if in_x != in_y else z
            cells[int(y_prop.x * 5) * 5 + int(y_prop.y * 5)] += 1
        assert stats.chisquare(cells).pvalue > 0.01


def reference_batch_sweep(centers, steps, two_r2, rng):
    """The (B, n, 2) sweep kernel that _batch_sweep replaced, kept as its oracle."""
    B, n, _ = centers.shape
    rows = np.arange(B)
    d = np.empty_like(centers)
    nearest = np.empty_like(centers)
    d2 = np.empty((B, n))
    done = 0
    while done < steps:
        chunk = min(128, steps - done)
        j_all = rng.integers(n, size=(chunk, B))
        z_all = rng.random((chunk, B, 2))
        for t in range(chunk):
            j = j_all[t]
            z = z_all[t]
            np.subtract(centers, z[:, None, :], out=d)
            np.rint(d, out=nearest)
            d -= nearest
            np.einsum("bik,bik->bi", d, d, out=d2)
            d2[rows, j] = np.inf
            ok = d2.min(axis=1) >= two_r2
            centers[rows[ok], j[ok]] = z[ok]
        done += chunk


def reference_displace(centers, ell_abs, two_r2, rng):
    """The (B, n, 2) displacement kernel that _displace replaced, kept as its oracle."""
    B, n, _ = centers.shape
    y1 = np.empty((B, 2))
    pending = np.arange(B)
    for round_ in range(200):
        phi = 2.0 * math.pi * rng.random(len(pending))
        cand = centers[pending, 0] + ell_abs * np.column_stack([np.cos(phi), np.sin(phi)])
        d = min_image_array(centers[pending, 1:] - cand[:, None, :])
        dx, dy = d[..., 0], d[..., 1]
        ok = (dx * dx + dy * dy >= two_r2).all(axis=1)
        y1[pending[ok]] = cand[ok] % 1.0
        pending = pending[~ok]
        if len(pending) == 0:
            return y1
        if round_ >= 20 and round_ % 10 == 0:
            sub = centers[pending].copy()
            reference_batch_sweep(sub, 2 * n, two_r2, rng)
            centers[pending] = sub
    raise RuntimeError("no valid displacement found within the retry budget")


class PlainTally(coupling._Tally):
    """A _Tally that also counts what only plain_batch_trials measures: the
    proposals that land in the danger crescent and the sum of the savings
    d(ell) - d(s) of its accepted near moves."""

    def __init__(self, chains: int):
        super().__init__(chains)
        self.crescent_hits = 0
        self.near_savings_sum = 0.0


def plain_batch_trials(P, y1, metric, ell_over_r, r, rng, tally: PlainTally) -> None:
    """One uniform coupled step per chain: the unstratified trial kernel that the
    stratified _batch_trials replaced, kept as its oracle.  It takes the pool
    P (2, n, B) and reads it as the (B, n, 2) view P.T."""
    centers = P.T
    B, n, _ = centers.shape
    two_r = 2.0 * r
    two_r2 = two_r * two_r
    ell_abs = ell_over_r * r
    d_ell = metric.eval(ell_over_r)
    rows = np.arange(B)

    j = rng.integers(n, size=B)
    z = rng.random((B, 2))
    dvec = min_image_array(centers - z[:, None, :])
    d2 = (dvec * dvec).sum(axis=2)
    a2 = d2[:, 0]
    b2 = ((min_image_array(y1 - z)) ** 2).sum(axis=1)

    delta_bound = np.zeros(B)
    delta_exact = np.zeros(B)
    kinds = np.zeros(B, dtype=int)  # indices into OUTCOME_KINDS; 1 = unchanged

    kinds[:] = 1
    is0 = j == 0
    d2_excl = d2.copy()
    d2_excl[rows, j] = np.inf
    ok_self = d2_excl.min(axis=1) >= two_r2  # ignores the disagreeing disk only via j
    coal = is0 & ok_self
    kinds[coal] = 0
    delta_bound[coal] = -d_ell
    delta_exact[coal] = -d_ell

    other = ~is0
    in_x = a2 < two_r2
    in_y = b2 < two_r2
    mirror = other & in_x & ~in_y
    kinds[mirror] = 2

    cres = other & in_y & ~in_x
    tally.crescent_hits += int(cres.sum())
    if np.any(cres):
        ci = np.where(cres)[0]
        x1 = centers[ci, 0]
        y1c = y1[ci]
        u = min_image_array(y1c - x1)
        u /= ell_abs
        mid = x1 + 0.5 * min_image_array(y1c - x1)
        wv = min_image_array(z[ci] - mid)
        zbar = (mid + wv - 2.0 * (wv * u).sum(axis=1, keepdims=True) * u) % 1.0

        # acceptance in X: all disks except the moved one (disk 0 cannot
        # block, z is outside its zone); in Y: same against the mirror image.
        okx = d2_excl[ci].min(axis=1) >= two_r2
        dby = min_image_array(centers[ci] - zbar[:, None, :])
        d2y = (dby * dby).sum(axis=2)
        d2y[np.arange(len(ci)), j[ci]] = np.inf
        d2y[:, 0] = np.inf  # row 0 holds x1; in Y it is y1, handled below
        oky = (d2y.min(axis=1) >= two_r2) & (
            ((min_image_array(zbar - y1c)) ** 2).sum(axis=1) >= two_r2
        )

        succ = okx | oky
        s = np.sqrt(b2[ci])
        near = s < ell_abs
        far_rows = ci[succ & ~near]
        near_rows = ci[succ & near]
        kinds[far_rows] = 3
        kinds[near_rows] = 4
        delta_bound[far_rows] = 1.0
        s_over_r = s / r
        d_s = metric.eval_array(s_over_r)
        delta_bound[near_rows] = 1.0 + d_s[succ & near] - d_ell
        tally.near_savings_sum += float((d_ell - d_s[succ & near]).sum())

        if np.any(succ):
            sel = np.where(succ)[0]
            gi = ci[sel]
            xj = centers[gi, j[gi]]
            okx_s = okx[sel]
            oky_s = oky[sel]
            xj_new = np.where(okx_s[:, None], z[gi], xj)
            yj_new = np.where(oky_s[:, None], zbar[sel], xj)
            t1 = np.sqrt(((min_image_array(xj_new - yj_new)) ** 2).sum(axis=1))
            u1 = np.sqrt(((min_image_array(xj_new - y1[gi])) ** 2).sum(axis=1))
            u2 = np.sqrt(((min_image_array(centers[gi, 0] - yj_new)) ** 2).sum(axis=1))
            straight = d_ell + metric.eval_array(t1 / r)
            crossed = metric.eval_array(u1 / r) + metric.eval_array(u2 / r)
            delta_exact[gi] = np.minimum(straight, crossed) - d_ell

    tally.add(delta_bound, delta_exact)
    counts = np.bincount(kinds, minlength=5)
    for k, name in enumerate(OUTCOME_KINDS):
        tally.counts[name] += int(counts[k])
    tally.max_gap = max(tally.max_gap, float((delta_exact - delta_bound).max()))


def use_plain_trials(monkeypatch) -> list:
    """Run estimate_contraction with the plain trial kernel on the same pool,
    one configuration per trial; returns the list that collects the
    PlainTally of each estimate."""
    tallies = []

    def tally(chains):
        tallies.append(PlainTally(chains))
        return tallies[-1]

    monkeypatch.setattr(coupling, "_batch_trials", plain_batch_trials)
    monkeypatch.setattr(coupling, "K0", 1)
    monkeypatch.setattr(coupling, "_Tally", tally)
    return tallies


@pytest.fixture()
def plain_trials(monkeypatch):
    return use_plain_trials(monkeypatch)


class TestBatchSweep:
    # every swept chain must still pass Configuration's hard-core audit
    @pytest.mark.parametrize("n, rho", [(1, 0.14), (2, 0.02), (8, 0.09), (33, 0.14)])
    def test_matches_reference_layout(self, n, rho):
        r = radius_for_density(n, rho)
        two_r2 = (2.0 * r) ** 2
        for B in (1, 7, coupling.BATCH):  # BATCH: the largest pool an estimate runs
            start = dynamics.batch_insert(B, n, rho, np.random.default_rng(B))
            for steps in (0, 1, 129):  # 129 crosses a 128-step chunk
                want, P = start.T.copy(), start.copy()
                reference_batch_sweep(want, steps, two_r2, np.random.default_rng(steps))
                coupling._batch_sweep(P, steps, two_r2, np.random.default_rng(steps))
                got = P.T
                assert np.array_equal(got, want), (B, steps)
                assert all(Configuration(c, r).is_valid() for c in got)

    def test_peak_memory(self):
        # 0.96 MiB with one (B, 2) position draw per step; one (chunk, B, 2)
        # draw per 128-step chunk peaked at 1.95 MiB.
        n, B = 32, 512
        two_r2 = (2.0 * radius_for_density(n, 0.14)) ** 2
        P = dynamics.batch_insert(B, n, 0.14, np.random.default_rng(1))
        tracemalloc.start()
        try:
            coupling._batch_sweep(P, 160, two_r2, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 2**20, peak / 2**20


class TestDisplace:
    # scale > 1 widens the exclusion the candidates are tested against, so
    # some disk 0 stays caged for many rounds and makes single-disk moves; at
    # scale 1.4 every chain then succeeds, at 1.8 the retry budget runs out,
    # in _displace as in the oracle
    @pytest.mark.parametrize("n, rho, ell, scale", [
        (1, 0.1, 1.0, 1.0), (2, 0.02, 4.0, 1.0), (32, 0.14, 1.0, 1.0),
        (64, 0.2, 0.5, 1.0), (16, 0.2, 1.0, 1.4), (16, 0.2, 1.0, 1.8),
    ])
    def test_matches_reference_layout(self, n, rho, ell, scale):
        r = radius_for_density(n, rho)
        two_r2 = (2.0 * scale * r) ** 2
        start = dynamics.batch_insert(300, n, rho, np.random.default_rng(n))
        results = []
        # the reference takes the pool as (B, n, 2); P.T shows _displace's that way
        for kernel, pool in ((reference_displace, start.T.copy()), (coupling._displace, start.copy())):
            try:
                results.append(kernel(pool, ell * r, two_r2, np.random.default_rng(7)))
            except RuntimeError as exc:
                results.append(str(exc))
        want, got = results
        assert type(got) is type(want)
        if isinstance(got, str):
            assert "retry budget" in got and f"n={n}, rho=" in got and "chains caged" in got
            return
        after = start.copy()
        y1 = coupling._displace(after, ell * r, two_r2, np.random.default_rng(7))
        assert np.array_equal(y1, got)
        # only a caged disk 0 moves, and every y1 lies exactly ell from it and
        # scale 2r clear of disks 1..n-1
        assert np.array_equal(after[:, 1:], start[:, 1:])
        assert np.all((0.0 <= y1) & (y1 < 1.0))
        d = min_image_array(y1 - after[:, 0].T)
        assert np.allclose(np.hypot(d[:, 0], d[:, 1]), ell * r, rtol=1e-12, atol=0)
        assert np.all(geometry.clear_of(*after[:, 1:], [(y1.T, None)], two_r2))

    @pytest.mark.parametrize("ell", [1.0, 4.0])
    def test_angles_match_reference(self, ell):
        # one configuration copied to 6,000 chains: disks 1 and 2, (ell + 1.5) r
        # from disk 0, block arcs of its circle, so chains retry, and the first
        # valid of several uniform angles must be distributed as the oracle's
        # one-at-a-time rejection, uniform on the free arcs
        r, B = 0.01, 6000
        out = (ell + 1.5) * r * np.array([[1.0, 0.0], [math.cos(2.0), math.sin(2.0)]])
        config = np.array([0.5, 0.5]) + np.vstack([[0.0, 0.0], out])
        start = np.repeat(config.T[:, :, None], B, axis=2)
        angles = []
        for kernel, pool in ((reference_displace, start.T.copy()), (coupling._displace, start.copy())):
            d = min_image_array(kernel(pool, ell * r, (2.0 * r) ** 2, np.random.default_rng(11)) - config[0])
            angles.append(np.arctan2(d[:, 1], d[:, 0]))
        table = np.array([np.histogram(a, bins=36, range=(-math.pi, math.pi))[0] for a in angles])
        assert stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue > 1e-3
        # the free share of each bin, from 36,000 evenly spaced directions
        phi = np.linspace(-math.pi, math.pi, 36_000, endpoint=False) + math.pi / 36_000
        ring = config[0][:, None] + ell * r * np.array((np.cos(phi), np.sin(phi)))
        free = geometry.clear_of(*config[1:].T[:, :, None], [(p, None) for p in ring.T], (2.0 * r) ** 2)[:, 0]
        share = free.reshape(36, 1000).mean(axis=1)
        assert 0.3 < share.mean() < 0.95  # a share of the directions is blocked
        assert np.all(table[:, share == 0] == 0)
        seen = share > 0
        expected = share[seen] / share[seen].sum() * B
        assert stats.chisquare(table[1, seen], expected).pvalue > 1e-3


    def test_candidates_never_exceed_pool(self, monkeypatch):
        # after the first round the pending chains test several angles each,
        # never more than B in one round
        n, rho, B = 16, 0.2, 300
        r = radius_for_density(n, rho)
        columns = []
        clear_of = geometry.clear_of

        def recording(X, Y, proposals, two_r2):
            columns.append(X.shape[1])
            return clear_of(X, Y, proposals, two_r2)

        monkeypatch.setattr(coupling, "clear_of", recording)
        P = dynamics.batch_insert(B, n, rho, np.random.default_rng(n))
        coupling._displace(P, r, (2.8 * r) ** 2, np.random.default_rng(7))
        assert columns[0] == B and len(columns) > 3
        assert max(columns) <= B
        assert sum(c == B for c in columns[1:]) > 0  # a later round used the whole cap


class TestRelabel:
    @staticmethod
    def _swapped(before, after):
        """k per chain: the disk of `before` that _relabel moved into slot 0."""
        hits = (before == after[:, :1]).all(axis=0)  # (n, chains)
        assert np.all(hits.sum(axis=0) == 1)
        return hits.argmax(axis=0)

    def test_keeps_each_chains_centers(self):
        n, B = 8, 400
        P = dynamics.batch_insert(B, n, 0.05, np.random.default_rng(3))
        before = P.copy()
        rng = np.random.default_rng(4)
        coupling._relabel(P, rng)
        k = self._swapped(before, P)
        assert np.array_equal(k, np.random.default_rng(4).integers(n, size=B))
        replay = np.random.default_rng(4)
        replay.integers(n, size=B)
        assert rng.random() == replay.random()  # nothing else was drawn
        c = np.arange(B)
        assert np.array_equal(P[:, k, c], before[:, 0, c])
        for b in range(B):
            assert sorted(map(tuple, P[:, :, b].T)) == sorted(map(tuple, before[:, :, b].T))
        assert np.array_equal(P[:, :, k == 0], before[:, :, k == 0])

    def test_swapped_disk_is_uniform(self):
        n, B = 8, 512
        P = dynamics.batch_insert(B, n, 0.05, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        ks = []
        for _ in range(20):
            before = P.copy()
            coupling._relabel(P, rng)
            ks.append(self._swapped(before, P))
        assert stats.chisquare(np.bincount(np.concatenate(ks), minlength=n)).pvalue > 1e-3


class TestBatchedMatchesScalar:
    def test_same_classification_and_deltas(self):
        n, rho = 8, 0.05
        r = radius_for_density(n, rho)
        two_r2 = (2.0 * r) ** 2
        rng = np.random.default_rng(31)
        B = 300
        P = dynamics.batch_insert(B, n, rho, rng)
        coupling._batch_sweep(P, 5 * n, two_r2, rng)
        ell_over_r = 2.5
        y1 = coupling._displace(P, ell_over_r * r, two_r2, rng)
        centers = P.T

        j = rng.integers(n, size=B)
        z = rng.random((B, 2))

        class Scripted:
            def integers(self, _n, size=None):
                return j

            def random(self, shape=None):
                return z

        tally = PlainTally(B)
        plain_batch_trials(P, y1, TEST_METRIC, ell_over_r, r, Scripted(), tally)

        sum_b = sum_e = 0.0
        counts = {k: 0 for k in OUTCOME_KINDS}
        for b in range(B):
            X = Configuration(centers[b], r)
            pair = CoupledPair(X=X, Y=replaced(X, 0, y1[b]))
            out = classify_step(pair, TEST_METRIC, int(j[b]), TorusPoint(*z[b]))
            sum_b += out.delta_bound
            sum_e += out.delta_exact
            counts[out.kind] += 1
        assert tally.chain_bound.sum() == pytest.approx(sum_b, abs=1e-9)
        assert tally.chain_exact.sum() == pytest.approx(sum_e, abs=1e-9)
        assert tally.counts == counts


class TestEstimateContraction:
    def test_deterministic_and_thread_independent(self):
        m = hamming_metric()
        runs = []
        for threads in (1, 2, 4):
            coupling._cold_pool.cache_clear()
            runs.append(estimate_contraction(8, 0.05, 2.0, m, 4000, seed=77, threads=threads))
        assert runs[0] == runs[1] == runs[2]

    def test_starts_no_threads(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("estimate_contraction started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        coupling._cold_pool.cache_clear()
        est = estimate_contraction(8, 0.05, 2.0, hamming_metric(), 4000 * coupling.K0,
                                   seed=77, threads=4)
        assert est.configurations == 4000

    @pytest.mark.parametrize("configs", [5, coupling.BATCH, 2 * coupling.BATCH + 37])
    def test_one_pool_serves_every_configuration(self, configs, monkeypatch):
        # B = min(BATCH, configs) chains; each yields floor or ceil of configs / B
        seen = []
        batch_trials = coupling._batch_trials

        def recording(P, y1, metric, ell_over_r, r, rng, tally):
            seen.append((P.shape[2], tally))
            batch_trials(P, y1, metric, ell_over_r, r, rng, tally)

        monkeypatch.setattr(coupling, "_batch_trials", recording)
        est = estimate_contraction(8, 0.05, 1.5, TEST_METRIC, configs * coupling.K0, seed=8)
        assert est.configurations == configs
        B = min(coupling.BATCH, configs)
        tally = seen[0][1]
        assert all(t is tally for _, t in seen)
        assert len(tally.chain_count) == B
        assert [width for width, _ in seen] == [B] * (configs // B) + [configs % B] * (configs % B > 0)
        assert set(tally.chain_count) <= {configs // B, -(-configs // B)}
        assert int(tally.chain_count.sum()) == configs

    def test_outputs_pinned(self, plain_trials):
        # the plain estimator's values: 4000 configurations from one pool of
        # BATCH chains, so the pool, the sweep and the plain kernel must match
        # bit for bit
        # (before relabelling and half-sweep thinning it read -0.09075 with
        # ci99_bound 0.01295 on the same pool)
        est = estimate_contraction(8, 0.05, 2.0, hamming_metric(), 4000, seed=77)
        assert est.mean_delta_bound == -0.0995
        assert est.mean_delta_exact == -0.0995
        assert est.ci99_bound == 0.014001158842022757
        assert est.outcome_counts == {
            "coalesced": 444, "unchanged": 3464, "both-rejected": 46,
            "far-move": 0, "near-move": 46,
        }

    def test_pool_cache_hit_is_bit_identical(self):
        m = hamming_metric()
        coupling._cold_pool.cache_clear()
        a = estimate_contraction(8, 0.05, 1.0, m, 3000, seed=5)
        b = estimate_contraction(8, 0.05, 1.0, m, 3000, seed=5)
        assert coupling._cold_pool.cache_info().hits == 1
        assert a == b

    def test_sequence_seeds_share_one_pool(self):
        # a sequence seed keys the pool by its entropy as a tuple of ints
        m = hamming_metric()
        coupling._cold_pool.cache_clear()
        cold = estimate_contraction(8, 0.05, 1.0, m, 3000, seed=[3, 4])
        for seed in ([3, 4], (3, 4), np.array([3, 4]), np.array([3, 4], dtype=np.uint32)):
            assert estimate_contraction(8, 0.05, 1.0, m, 3000, seed=seed) == cold
        info = coupling._cold_pool.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        # and the tuple key seeds the same stream as the seed itself
        assert estimate_contraction(8, 0.05, 1.0, m, 3000, seed=[5]) == \
            estimate_contraction(8, 0.05, 1.0, m, 3000, seed=np.int64(5)) == \
            estimate_contraction(8, 0.05, 1.0, m, 3000, seed=5)

    def test_pool_follows_equilibration_sweeps(self, monkeypatch):
        m = hamming_metric()
        default = estimate_contraction(8, 0.05, 1.0, m, 3000, seed=6)
        monkeypatch.setattr(coupling, "EQUILIBRATION_SWEEPS", 2)
        warm = estimate_contraction(8, 0.05, 1.0, m, 3000, seed=6)
        coupling._cold_pool.cache_clear()
        assert warm == estimate_contraction(8, 0.05, 1.0, m, 3000, seed=6) != default

    def test_one_pool_serves_every_displacement(self):
        # what the ell_sweep workload relies on: one cold build, then hits
        m = hamming_metric()
        coupling._cold_pool.cache_clear()
        for ell in (0.5, 1.0, 2.0, 3.0, 4.0):
            estimate_contraction(8, 0.05, ell, m, 3000, seed=7)
        info = coupling._cold_pool.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_hamming_metric_contracts_below_baseline(self):
        est = estimate_contraction(16, 0.10, 4.0, hamming_metric(), 60_000, seed=9)
        assert est.mean_delta_bound < 0
        assert est.mean_delta_exact <= est.mean_delta_bound + 1e-12

    def test_outcome_counts_partition_trials(self, plain_trials):
        est = estimate_contraction(16, 0.10, 2.0, hamming_metric(), 10_000, seed=4)
        assert sum(est.outcome_counts.values()) == 10_000
        assert est.trials == 10_000

    def test_coalescence_frequency_near_one_over_n(self, plain_trials):
        # Coalescence needs the shared proposal to pick the disagreeing disk
        # (probability 1/n) and to be accepted (probability >= 1 - 4 rho).
        n, rho = 16, 0.05
        est = estimate_contraction(n, rho, 1.0, hamming_metric(), 40_000, seed=13)
        frac = est.outcome_counts["coalesced"] / est.trials
        sigma = math.sqrt((1 / n) * (1 - 1 / n) / est.trials)
        assert (1 - 4 * rho) / n - 4 * sigma <= frac <= 1 / n + 4 * sigma

    def test_crescent_hit_frequency_matches_area(self, plain_trials):
        # A proposal lands in the danger crescent with probability
        # (n-1)/n * crescent_area(ell) * r^2, purely geometrically.
        n, rho, ell = 16, 0.10, 2.0
        r2 = rho / (math.pi * n)
        p = (n - 1) / n * crescent_area(ell) * r2
        trials = 200_000
        estimate_contraction(n, rho, ell, hamming_metric(), trials, seed=19)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(plain_trials[0].crescent_hits / trials - p) < 4 * sigma

    def test_near_savings_match_kernel_quadrature(self, plain_trials):
        # With n = 2 a crescent proposal always succeeds in the X chain, so
        # accepted near moves sample s with density 2(pi - theta)s / area and
        # the mean saving equals the kernel integral over s < ell.
        n, rho, ell = 2, 0.02, 3.0
        m = TEST_METRIC
        trials = 300_000
        est = estimate_contraction(n, rho, ell, m, trials, seed=23)
        # s < 2 < ell here, so every crescent hit is an accepted near move
        u = np.linspace(0.0, 2.0, 20_001)[1:]
        kern = 2.0 * (math.pi - crescent_angle_array(u, ell)) * u
        saving = m.eval(ell) - m.eval_array(u)
        expected = np.trapezoid(kern * saving, u) / crescent_area(ell)
        hits = plain_trials[0].crescent_hits
        assert hits == est.outcome_counts["near-move"]
        got = plain_trials[0].near_savings_sum / hits
        sigma = 0.5 / math.sqrt(hits)  # savings live in [0, 1]
        assert got == pytest.approx(expected, abs=4 * sigma)

    def test_json_fields(self):
        est = estimate_contraction(8, 0.05, 1.0, hamming_metric(), 2000, seed=2)
        payload = json.loads(est.to_json())
        assert set(payload) == {
            "n", "rho", "ell_over_r", "trials", "mean_delta_bound",
            "mean_delta_exact", "ci99_bound", "ci99_exact", "outcome_counts",
        }

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_contraction(8, 0.05, 1.0, hamming_metric(), 0, seed=1)
        with pytest.raises(ValueError):
            estimate_contraction(8, 0.05, 5.0, hamming_metric(), 10, seed=1)
        for threads in (0, -2):
            with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
                estimate_contraction(8, 0.05, 1.0, hamming_metric(), 10, seed=1, threads=threads)
        for rho in (0.3, -0.1, 0.0):
            with pytest.raises(ValueError, match="density"):
                estimate_contraction(8, rho, 1.0, hamming_metric(), 10, seed=1)

    def test_exact_change_above_bound_is_an_error(self, positive_gap):
        with pytest.raises(RuntimeError, match=r"by 0\.25 at rho=0\.05, ell=1\.5"):
            estimate_contraction(8, 0.05, 1.5, hamming_metric(), 100, seed=1)

    def test_rejects_radius_outside_coupling_regime(self):
        # 8r >= 1: the planar crescent area no longer is the torus area
        with pytest.raises(ValueError, match="8r = 1.43"):
            estimate_contraction(2, 0.2, 1.0, hamming_metric(), 2000, seed=1)
        with pytest.raises(ValueError, match="n >= 2"):
            estimate_contraction(1, 0.01, 1.0, hamming_metric(), 10, seed=1)

    def test_stratified_outputs_pinned(self):
        # 33,000 * K0 trials are 33,000 configurations from one pool of
        # BATCH = 512 chains: 64 full rounds and a partial one of 232 chains
        # (with one full thinning sweep and no relabelling it read
        # -0.052800912972501036 and -0.055912245515840245 with ci99_bound
        # 2.06e-05 on the same pool)
        est = estimate_contraction(8, 0.05, 1.5, TEST_METRIC, 33_000 * coupling.K0, seed=77)
        assert est.configurations == 33_000
        assert est.mean_delta_bound == -0.05281177338318868
        assert est.mean_delta_exact == -0.05592677917492023
        assert est.ci99_bound == 2.28532240395426e-05
        assert est.outcome_counts == {
            "coalesced": 3316666, "unchanged": 678774, "both-rejected": 0,
            "far-move": 75210, "near-move": 87350,
        }

    def test_disk0_grid_side_is_capped(self):
        # cells_per_side(r) is 1,253 here; the grid keeps DISK0_GRID_MAX per side
        r = radius_for_density(2, 1e-6)
        assert geometry.cells_per_side(r) == 1253
        assert coupling._grid_side(r) == coupling.DISK0_GRID_MAX
        configs = 2 * coupling.BATCH
        est = estimate_contraction(2, 1e-6, 1.0, hamming_metric(), configs * coupling.K0, seed=5)
        grid = coupling.DISK0_GRID_MAX ** 2
        assert sum(est.outcome_counts.values()) == (grid + coupling.KC) * configs
        assert est.outcome_counts["coalesced"] > 0.99 * grid * configs  # a free torus, nearly

    def test_stratified_counts_partition_draws(self):
        # each configuration classifies m^2 disk-0 grid points and KC crescent
        # proposals; the mirror crescent is never drawn
        configs = 10_000
        est = estimate_contraction(16, 0.10, 1.5, hamming_metric(), configs * coupling.K0, seed=4)
        assert est.configurations == configs
        assert sum(est.outcome_counts.values()) == (_grid_points(16, 0.10) + coupling.KC) * configs
        assert est.outcome_counts["both-rejected"] == 0
        assert est.outcome_counts["far-move"] > 0 and est.outcome_counts["near-move"] > 0

    @pytest.mark.parametrize("trials", [1, 31, 33, 1000])
    def test_trials_round_up_to_whole_configurations(self, trials):
        est = estimate_contraction(8, 0.05, 1.5, TEST_METRIC, trials, seed=6)
        configs = math.ceil(trials / coupling.K0)
        assert est.trials == trials
        assert est.configurations == configs
        counts = est.outcome_counts
        grid = _grid_points(8, 0.05)
        assert sum(counts.values()) == (grid + coupling.KC) * configs
        assert counts["coalesced"] <= grid * configs
        assert counts["far-move"] + counts["near-move"] <= coupling.KC * configs

    @pytest.mark.parametrize("ell", [1.5, 3.0])
    def test_stratified_matches_plain_within_joint_ci(self, ell, monkeypatch):
        # at ell = 1.5 crescent moves are far or near; at 3.0 all are near.
        # Both sides run 40,000 configurations.
        configs = 40_000
        strat = estimate_contraction(16, 0.10, ell, TEST_METRIC, configs * coupling.K0, seed=61)
        assert strat.configurations == configs
        use_plain_trials(monkeypatch)  # one plain proposal per configuration
        plain = estimate_contraction(16, 0.10, ell, TEST_METRIC, configs, seed=62)
        assert plain.configurations == configs
        joint_b = math.hypot(strat.ci99_bound, plain.ci99_bound)
        joint_e = math.hypot(strat.ci99_exact, plain.ci99_exact)
        assert abs(strat.mean_delta_bound - plain.mean_delta_bound) < joint_b
        assert abs(strat.mean_delta_exact - plain.mean_delta_exact) < joint_e
        # the stratified step is far more precise per configuration
        assert strat.ci99_bound < plain.ci99_bound / 5


    def test_ci_is_iid_with_one_configuration_per_chain(self, monkeypatch):
        # configurations < BATCH: each chain of the pool yields one
        seen = []
        add = coupling._Tally.add

        def recording(tally, value_bound, value_exact):
            seen.append((value_bound.copy(), value_exact.copy()))
            add(tally, value_bound, value_exact)

        monkeypatch.setattr(coupling._Tally, "add", recording)
        configs = coupling.BATCH - 5
        est = estimate_contraction(8, 0.05, 1.5, TEST_METRIC, configs * coupling.K0, seed=3)
        assert est.configurations == configs
        for k, got in ((0, est.ci99_bound), (1, est.ci99_exact)):
            v = np.concatenate([s[k] for s in seen])
            assert len(v) == configs
            mean = v.sum() / configs
            iid = 2.576 * math.sqrt((float((v * v).sum()) / configs - mean * mean) / configs)
            assert got == pytest.approx(iid, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_ci_counts_repeated_chain_values_once(self, k):
        # k identical configurations per chain carry the information of one,
        # so the per-chain SE is sqrt(k) times the i.i.d. SE of the k C values
        v = np.random.default_rng(k).normal(size=50)
        tally = coupling._Tally(len(v))
        for _ in range(k):
            tally.add(v, 2.0 * v)
        every = np.tile(v, k)
        iid = 2.576 * every.std() / math.sqrt(len(every))
        ci_b, ci_e = tally.ci99()
        assert ci_b == pytest.approx(math.sqrt(k) * iid, rel=1e-12)
        assert ci_e == pytest.approx(2.0 * math.sqrt(k) * iid, rel=1e-12)

    def test_pool_size_moves_estimate_within_ci(self, monkeypatch):
        # 40,000 configurations in one pool: about 9.8 or 39 per chain
        args = (8, 0.05, 1.5, TEST_METRIC, 40_000 * coupling.K0)
        monkeypatch.setattr(coupling, "BATCH", 4096)
        large = estimate_contraction(*args, seed=71)
        monkeypatch.setattr(coupling, "BATCH", 1024)
        small = estimate_contraction(*args, seed=72)
        joint_b = math.hypot(large.ci99_bound, small.ci99_bound)
        joint_e = math.hypot(large.ci99_exact, small.ci99_exact)
        assert abs(large.mean_delta_bound - small.mean_delta_bound) < joint_b
        assert abs(large.mean_delta_exact - small.mean_delta_exact) < joint_e


def _replay_pool(n, rho, B, ell, seed):
    """An equilibrated-enough pool, its displaced y1 and a generator state to replay."""
    r = radius_for_density(n, rho)
    two_r2 = (2.0 * r) ** 2
    rng = np.random.default_rng(seed)
    P = dynamics.batch_insert(B, n, rho, rng)
    coupling._batch_sweep(P, 5 * n, two_r2, rng)
    y1 = coupling._displace(P, ell * r, two_r2, rng)
    return P, y1, r, rng.bit_generator.state


def _rng_at(state):
    gen = np.random.default_rng()
    gen.bit_generator.state = state
    return gen


def _seam_pool(ell, r, B):
    """x1, y1 = x1 + ell r e_x and an n = 2 pool of B copies of (x1, a spectator);
    the crescent straddles the seam x = 0."""
    x1 = np.array([0.995, 0.5])
    y1 = (x1 + [ell * r, 0.0]) % 1.0
    return x1, y1, np.tile(np.array([x1, [0.5, 0.0]]), (B, 1, 1)).T


class TestStratifiedTrials:
    @pytest.mark.parametrize("ell", [0.5, 1.5, 3.0])
    def test_replays_through_classify_step(self, ell):
        # m = 11, so each chain replays 121 grid points and KC crescent proposals
        n, rho, B = 8, 0.05, 80
        P, y1, r, state = _replay_pool(n, rho, B, ell, seed=41)
        centers = P.T
        m = coupling._grid_side(r)
        assert m == 11

        shift, j, z, weight = coupling._draw_proposals(P, y1, ell, r, _rng_at(state))
        assert shift.shape == (2, B) and z.shape == (coupling.KC, B, 2)
        assert weight.shape == (coupling.KC, B)
        free, kind, bound, exact, d_ell = coupling._classify_proposals(
            P, y1, TEST_METRIC, ell, r, shift, j, z)
        assert d_ell == TEST_METRIC.eval(ell)
        tally = coupling._Tally(B)
        coupling._batch_trials(P, y1, TEST_METRIC, ell, r, _rng_at(state), tally)

        grid = shifted_grid(shift, m)
        # each crescent point stands for pi (4 - lo^2) weight of the crescent's area
        lo = max(0.0, 2.0 - ell)
        w_cres = (n - 1) / n * math.pi * (4.0 - lo * lo) * r * r
        sum_b = sum_e = 0.0
        counts = dict.fromkeys(OUTCOME_KINDS, 0)
        for b in range(B):
            X = Configuration(centers[b], r)
            pair = CoupledPair(X=X, Y=replaced(X, 0, y1[b]))
            c0_b = c0_e = cc_b = cc_e = 0.0
            coalesced = 0
            for point in grid[:, :, b]:
                first = classify_step(pair, TEST_METRIC, 0, TorusPoint(*point))
                coalesced += first.kind == "coalesced"
                c0_b += first.delta_bound
                c0_e += first.delta_exact
                counts[first.kind] += 1
            assert coalesced == free[b], b
            for k in range(coupling.KC):
                assert 1 <= j[k, b] < n
                point = TorusPoint(*z[k, b])
                s = torus_dist(point, TorusPoint(*y1[b])) / r
                assert weight[k, b] == pytest.approx(1.0 - crescent_angle(s, ell) / math.pi, abs=1e-7)
                out = classify_step(pair, TEST_METRIC, int(j[k, b]), point)
                assert out.kind == OUTCOME_KINDS[kind[k, b]], (k, b)
                assert out.delta_bound == pytest.approx(bound[k, b], abs=1e-12)
                assert out.delta_exact == pytest.approx(exact[k, b], abs=1e-12)
                cc_b += weight[k, b] * out.delta_bound
                cc_e += weight[k, b] * out.delta_exact
                counts[out.kind] += 1
            sum_b += c0_b / (n * m * m) + w_cres * cc_b / coupling.KC
            sum_e += c0_e / (n * m * m) + w_cres * cc_e / coupling.KC
        assert tally.chain_bound.sum() == pytest.approx(sum_b, abs=1e-12)
        assert tally.chain_exact.sum() == pytest.approx(sum_e, abs=1e-12)
        assert tally.counts == counts
        assert list(tally.chain_count) == [1] * B

    def test_disk0_mean_matches_free_area(self):
        # A disk-0 proposal coalesces iff it lies 2r clear of disks 1..n-1, so
        # the free share of every chain's m^2 grid points estimates the pool's
        # free-area fraction, which 10^5 uniform points measure through clear_of.
        n, rho, B, ell = 32, 0.14, 256, 1.0
        P, y1, r, state = _replay_pool(n, rho, B, ell, seed=43)
        shift, j, z, _ = coupling._draw_proposals(P, y1, ell, r, _rng_at(state))
        free = coupling._classify_proposals(P, y1, TEST_METRIC, ell, r, shift, j, z)[0]
        grid_points = B * coupling._grid_side(r) ** 2
        pts = np.random.default_rng(44).random((100_000 // B, B, 2))
        uniform = geometry.clear_of(*P[:, 1:], [(p.T, None) for p in pts], (2.0 * r) ** 2)
        p = float(uniform.mean())
        assert 0.3 < p < 0.7
        # 99.9% binomial CI of the difference of the two means; the grid points
        # of a chain cover the torus evenly, so their mean varies less than
        # that of independent points and the binomial sigma is conservative
        sigma = math.sqrt(p * (1 - p) * (1 / grid_points + 1 / uniform.size))
        assert abs(float(free.sum()) / grid_points - p) < 3.29 * sigma

    def test_disk0_points_are_a_shifted_grid(self):
        # the shift is the round's first draw, one uniform point per chain,
        # and the free counts are those of clear_of on the grid it shifts
        P, y1, r, state = _replay_pool(8, 0.05, 300, 1.5, seed=47)
        shift, j, z, _ = coupling._draw_proposals(P, y1, 1.5, r, _rng_at(state))
        assert np.array_equal(shift, _rng_at(state).random((2, 300)))
        assert len(np.unique(shift, axis=1).T) == 300
        free = coupling._classify_proposals(P, y1, TEST_METRIC, 1.5, r, shift, j, z)[0]
        m = coupling._grid_side(r)
        assert np.array_equal(free, free_grid_bruteforce(*P[:, 1:], shift, m, (2.0 * r) ** 2))

    def test_disk0_points_marginally_uniform(self):
        # every point of the shifted grid is uniform on the torus: each grid
        # point, across 6,400 chains, fills an 8 x 8 grid of cells evenly
        B = 6400
        r, x1 = 0.01, np.array([0.3, 0.5])
        P = np.tile(np.array([x1, [0.5, 0.0]]), (B, 1, 1)).T
        shift = coupling._draw_proposals(P, np.tile(x1 + [r, 0.0], (B, 1)), 1.0, r,
                                         np.random.default_rng(48))[0]
        m = coupling._grid_side(r)
        grid = shifted_grid(shift, m)
        for k in (0, 1, m + 3, m * m - 1):
            cells = np.floor(8 * grid[k]).astype(int)
            seen = np.bincount(8 * cells[0] + cells[1], minlength=64)
            assert stats.chisquare(seen).pvalue > 1e-3, k

    def test_grid_mean_varies_less_than_binomial(self):
        # on a fixed pool, the free share of a chain's m^2 grid points over 200
        # shifts varies less than the binomial p (1 - p) / m^2 of independent
        # points
        n, rho, B, ell = 32, 0.14, 64, 1.0
        P, y1, r, _ = _replay_pool(n, rho, B, ell, seed=45)
        grid = coupling._grid_side(r) ** 2
        rng = np.random.default_rng(46)
        means = []
        for _ in range(200):
            shift, j, z, _ = coupling._draw_proposals(P, y1, ell, r, rng)
            free = coupling._classify_proposals(P, y1, TEST_METRIC, ell, r, shift, j, z)[0]
            means.append(free / grid)
        means = np.array(means)
        p = means.mean(axis=0)
        binomial = float((p * (1 - p)).mean()) / grid
        assert float(means.var(axis=0, ddof=1).mean()) < 0.8 * binomial

    @pytest.mark.parametrize("ell", [0.5, 1.5, 3.0, 4.0])
    def test_crescent_draws_uniform(self, ell):
        # weighted by omega, |z - y1| = s r has density 2 (pi - theta(s)) s / A(ell)
        # on (0, 2), whose integrals are differences of outside_zone_area
        r, B = 0.01, 100_000 // coupling.KC
        x1, y1, P = _seam_pool(ell, r, B)
        _, j, z, weight = coupling._draw_proposals(
            P, np.tile(y1, (B, 1)), ell, r, np.random.default_rng(int(10 * ell)))
        assert np.all(j == 1)
        draws = z.shape[0] * z.shape[1]  # KC * B = 10^5 crescent points
        a = min_image_array(z - x1)
        b = min_image_array(z - y1)
        assert np.all(np.hypot(a[..., 0], a[..., 1]) >= 2.0 * r)
        assert np.all(np.hypot(b[..., 0], b[..., 1]) < 2.0 * r)
        s = np.hypot(b[..., 0], b[..., 1]) / r
        edges = np.linspace(0.0, 2.0, 41)
        cdf = outside_zone_area(edges, ell) / crescent_area(ell)
        assert cdf[-1] == pytest.approx(1.0)
        # per-chain weighted histograms: the chains are independent, the KC
        # points of one chain are not, so the ratio's SE comes from chain sums
        bins = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, 39)
        hist = np.zeros((B, 40))
        np.add.at(hist, (np.arange(B)[None, :], bins), weight)
        total = weight.sum(axis=0)
        share = hist.sum(axis=0) / total.sum()
        resid = hist - share * total[:, None]
        se = np.sqrt((resid * resid).sum(axis=0)) / total.sum()
        expected = np.diff(cdf)
        assert np.all(np.abs(share - expected) <= 4.0 * se + 1e-12)
        assert share[expected == 0].sum() == 0.0  # bins below 2 - ell hold no crescent
        # mirror symmetry across the x1-y1 axis
        above = int((b[..., 1] > 0).sum())
        assert abs(above - draws / 2) < 4 * math.sqrt(draws / 4)

    @pytest.mark.parametrize("ell", [0.5, 1.5, 3.0, 4.0])
    def test_crescent_weight_mean_is_area_share(self, ell):
        # E[omega] = A(ell) / (pi (4 - lo^2)), the crescent's share of the
        # annulus the radius is drawn from; chains are independent
        r, B = 0.01, 20_000
        x1, y1, P = _seam_pool(ell, r, B)
        weight = coupling._draw_proposals(
            P, np.tile(y1, (B, 1)), ell, r, np.random.default_rng(int(10 * ell) + 1))[3]
        lo = max(0.0, 2.0 - ell)
        want = crescent_area(ell) / (math.pi * (4.0 - lo * lo))
        per_chain = weight.mean(axis=0)
        assert np.all((0.0 <= weight) & (weight <= 1.0))
        # at ell = 4 no arc lies inside Z(x1): every weight is 1 and the SE 0
        assert abs(per_chain.mean() - want) <= 4.0 * per_chain.std() / math.sqrt(B) + 1e-12

    def test_crescent_points_are_a_shifted_lattice(self):
        # after the disk-0 shift and j, each chain draws one uniform point c;
        # its KC crescent points map the lattice {(k/KC, (KC_G k mod KC)/KC)}
        # shifted by c mod 1, which the test recovers from s and the angle
        n, B, ell = 8, 300, 1.5
        P, y1, r, state = _replay_pool(n, 0.05, B, ell, seed=49)
        rng = _rng_at(state)
        shift, j, z, weight = coupling._draw_proposals(P, y1, ell, r, rng)
        replay = _rng_at(state)
        assert np.array_equal(shift, replay.random((2, B)))
        assert np.array_equal(j, replay.integers(1, n, size=(coupling.KC, B)))
        c = replay.random((2, B))
        assert rng.random() == replay.random()  # nothing else was drawn
        k = np.arange(coupling.KC)[:, None]
        lattice = np.array((k / coupling.KC + c[0], (coupling.KC_G * k % coupling.KC) / coupling.KC + c[1]))
        lattice -= np.floor(lattice)
        e = min_image_array(P[:, 0].T - y1)  # y1 -> x1
        b = min_image_array(z - y1)
        s = np.hypot(b[..., 0], b[..., 1]) / r
        phi = np.arctan2(e[:, 0] * b[..., 1] - e[:, 1] * b[..., 0], (e * b).sum(axis=-1)) % (2.0 * math.pi)
        theta = crescent_angle_array(s, ell)
        lo = 2.0 - ell
        got = np.array(((s * s - lo * lo) / (4.0 - lo * lo), (phi - theta) / (2.0 * (math.pi - theta))))
        gap = np.abs(got - lattice)
        assert np.all(np.minimum(gap, 1.0 - gap) < 1e-9)
        assert np.allclose(weight, 1.0 - theta / math.pi, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("ell", [2.0, 4.0])
    def test_crescent_point_at_the_center(self, ell):
        # with ell >= 2 the radius reaches 0 at u0 = 0, where 2 s ell is 0; the
        # map puts the point on y1 with theta = 0, the whole circle outside Z(x1)
        r, B = 0.01, 3
        x1, y1, P = _seam_pool(ell, r, B)
        shift = np.full((2, B), 0.25)
        c = np.array([[0.0, 0.0, 0.5], [0.0, 0.3, 0.0]])

        class Scripted:
            draws = [shift, c]

            def integers(self, lo, hi, size=None):
                return np.ones(size, dtype=np.int64)

            def random(self, shape=None):
                return self.draws.pop(0)

        _, _, z, weight = coupling._draw_proposals(P, np.tile(y1, (B, 1)), ell, r, Scripted())
        assert np.all(np.isfinite(z)) and np.all(np.isfinite(weight))
        assert np.array_equal(z[0, :2], np.tile(y1, (2, 1)))
        assert np.all(weight[0, :2] == 1.0)
        assert np.all((0.0 <= weight) & (weight <= 1.0))

    @pytest.mark.parametrize("ell", [2.0, 4.0])
    def test_crescent_mean_varies_less_than_uniform(self, ell):
        # on a fixed pool, the weighted crescent mean of a chain's KC lattice
        # points varies over 200 draws less than the mean of KC i.i.d. uniform
        # crescent points (tests/oracles.py) does; at ell >= 2 the crescent
        # carries most of a configuration's proposal noise
        n, rho, B = 32, 0.14, 64
        P, y1, r, _ = _replay_pool(n, rho, B, ell, seed=45)
        lo = max(0.0, 2.0 - ell)
        spread = []
        for sampler in (coupling._draw_proposals, uniform_crescent_proposals):
            rng = np.random.default_rng(46)
            means = []
            for _ in range(200):
                shift, j, z, weight = sampler(P, y1, ell, r, rng)
                bound = coupling._classify_proposals(P, y1, TEST_METRIC, ell, r, shift, j, z)[2]
                means.append(math.pi * (4.0 - lo * lo) * (weight * bound).mean(axis=0))
            spread.append(float(np.var(means, axis=0, ddof=1).mean()))
        lattice, uniform = spread
        assert lattice < 0.8 * uniform

