"""Tests for torus arithmetic and the crescent geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harddisks.dynamics import batch_insert, radius_for_density
from harddisks.metric import grid_edges
from harddisks.geometry import (
    cells_per_side,
    clear_of,
    crescent_area,
    free_grid_counts,
    min_image_array,
    outside_zone_area,
)
from oracles import (
    GeometryError,
    LocalChart,
    TorusPoint,
    crescent_angle,
    crescent_angle_array,
    free_grid_bruteforce,
    min_image,
    outside_zone_area_every_branch,
    outside_zone_area_mp,
    reflect_across_bisector,
    shifted_grid,
    torus_dist,
)

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def monte_carlo_crescent_area(lam, side, rng):
    """Stratified Monte Carlo area of the crescent: one uniform sample per
    cell of a side x side grid over the bounding box around the displaced
    center.  The two centers sit at distance lam; the crescent is the set
    within 2 of the displaced center and at least 2 from the other.
    """
    h = 4.0 / side
    base = np.arange(side) * h - 2.0
    gx, gy = np.meshgrid(base, base, indexing="ij")
    px = (gx + h * rng.random((side, side))).ravel() + lam
    py = (gy + h * rng.random((side, side))).ravel()
    in_new = (px - lam) ** 2 + py**2 < 4.0
    in_old = px * px + py * py < 4.0
    return 16.0 * np.mean(in_new & ~in_old)


class TestTorusPoint:
    def test_coordinates_reduced_mod_one(self):
        p = TorusPoint(1.25, -0.25)
        assert p.x == 0.25 and p.y == 0.75

    @given(coords, coords)
    def test_always_in_unit_square(self, x, y):
        p = TorusPoint(x, y)
        assert 0.0 <= p.x < 1.0 and 0.0 <= p.y < 1.0


class TestTorusDist:
    def test_wraps_to_minimal_image(self):
        assert torus_dist(TorusPoint(0, 0), TorusPoint(0.9, 0)) == pytest.approx(0.1)

    def test_identity(self):
        p = TorusPoint(0.3, 0.7)
        assert torus_dist(p, p) == 0.0

    def test_three_four_five_triangle(self):
        assert torus_dist(TorusPoint(0.1, 0.1), TorusPoint(0.4, 0.5)) == pytest.approx(0.5)

    @given(coords, coords, coords, coords)
    def test_symmetric_and_bounded(self, ax, ay, bx, by):
        p, q = TorusPoint(ax, ay), TorusPoint(bx, by)
        assert torus_dist(p, q) == torus_dist(q, p)
        assert torus_dist(p, q) <= math.sqrt(2.0) / 2.0 + 1e-12

    @given(*(coords,) * 6)
    @settings(max_examples=200)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        p, q, s = TorusPoint(ax, ay), TorusPoint(bx, by), TorusPoint(cx, cy)
        assert torus_dist(p, s) <= torus_dist(p, q) + torus_dist(q, s) + 1e-12

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_min_image_is_nearest_representative(self, dx):
        m = min_image(dx)
        assert abs(m) <= 0.5 + 1e-12
        assert (m - dx) == pytest.approx(round(m - dx), abs=1e-9)


class TestCrescentArea:
    def test_endpoints(self):
        assert crescent_area(0.0) == 0.0
        assert crescent_area(4.0) == pytest.approx(4.0 * math.pi)

    def test_midpoint_closed_form(self):
        assert crescent_area(2.0) == pytest.approx(4.0 * math.pi / 3.0 + 2.0 * math.sqrt(3.0))

    def test_strictly_increasing(self):
        lam = np.linspace(0.0, 4.0, 401)
        a = crescent_area(lam)
        assert np.all(np.diff(a) > 0)

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 4.1):
            with pytest.raises(ValueError):
                crescent_area(bad)

    def test_monte_carlo_area_oracle(self):
        rng = np.random.default_rng(12345)
        for lam in np.linspace(0.19, 3.99, 20):
            est = monte_carlo_crescent_area(lam, side=500, rng=rng)
            assert est == pytest.approx(crescent_area(lam), abs=4e-3)


class TestCrescentAngle:
    def test_law_of_cosines_point(self):
        assert crescent_angle(2.0, 2.0) == pytest.approx(math.pi / 3.0)

    def test_whole_circle_inside(self):
        assert crescent_angle(0.5, 3.0) == 0.0

    def test_whole_circle_outside(self):
        assert crescent_angle(0.3, 1.0) == math.pi

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            crescent_angle(-0.1, 1.0)
        with pytest.raises(ValueError):
            crescent_angle(1.0, 0.0)
        with pytest.raises(ValueError):
            crescent_angle(1.0, 4.5)

    def test_continuous_across_regime_boundaries(self):
        eps = 1e-10
        for lam in (0.5, 1.0, 1.5, 2.5, 3.0, 3.7):
            b = abs(lam - 2.0)
            lo = crescent_angle(max(b - eps, 1e-13), lam)
            hi = crescent_angle(b + eps, lam)
            assert abs(lo - hi) < 1e-4  # sqrt-type kink: acos is Holder-1/2 here
        # exact values at the boundaries themselves
        assert crescent_angle(0.5, 1.5) == pytest.approx(math.pi, abs=1e-6)
        assert crescent_angle(1.5, 3.5) == pytest.approx(0.0, abs=1e-6)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        u = rng.random(500) * 4.0
        lam = rng.random(500) * 3.99 + 0.01
        vec = crescent_angle_array(u, lam)
        for k in range(500):
            assert vec[k] == pytest.approx(crescent_angle(u[k], lam[k]), abs=1e-12)

    def test_arc_fraction_matches_angular_sampling(self):
        # Fraction of directions at distance u from the displaced center that
        # land in the crescent equals (pi - theta)/pi.
        phis = np.linspace(0.0, 2.0 * math.pi, 200_001)[:-1]
        for u, lam in [(0.5, 0.7), (1.0, 1.0), (1.5, 2.0), (1.9, 3.0), (0.8, 2.5), (1.99, 3.9)]:
            # old center at (lam, 0) relative to the displaced one
            px = u * np.cos(phis) - lam
            py = u * np.sin(phis)
            frac = np.mean(px * px + py * py >= 4.0)
            assert frac == pytest.approx(
                (math.pi - crescent_angle(u, lam)) / math.pi, abs=1e-3
            )


class TestOutsideZoneArea:
    def test_two_radii_give_the_crescent(self):
        lam = np.linspace(0.01, 4.0, 400)
        assert np.allclose(outside_zone_area(2.0, lam), crescent_area(lam), rtol=0.0, atol=1e-12)

    def test_nested_and_disjoint_circles(self):
        # inside the zone, disjoint from it, and containing it
        assert outside_zone_area(0.5, 1.5) == 0.0
        assert outside_zone_area(0.5, 3.0) == pytest.approx(math.pi * 0.25, rel=1e-15)
        assert outside_zone_area(3.5, 1.0) == pytest.approx(math.pi * (3.5**2 - 4.0), rel=1e-15)

    def test_derivative_is_the_savings_kernel(self):
        for lam in (0.3, 1.0, 1.7, 2.5, 3.6):
            for u in (0.4, 0.9, 1.3, 1.9, 2.7):
                step = 1e-6
                rise = outside_zone_area(u + step, lam) - outside_zone_area(u - step, lam)
                slope = rise / (2 * step)
                kernel = 2.0 * (math.pi - crescent_angle(u, lam)) * u
                assert slope == pytest.approx(kernel, abs=1e-6), (u, lam)


def assembly_grid(L, rows):
    """The (s, lam) entries that the assembly of L evaluates on the rows
    lam = 4q/L, q in rows, at u = 4p/L clamped at 2 (the columns past
    p = (L + 1) // 2 repeat u = 2), and the mask of the entries that are
    tangent in exact arithmetic: lam = 2 - u (internal) or lam = u + 2
    (external)."""
    edges = grid_edges(L)
    p = np.arange(min(L, (L + 1) // 2 + 1))[None, :]
    q = np.asarray(rows)[:, None]
    tangent = ((2 * (p + q) == L) & (2 * p < L)) | (2 * q == 2 * p + L)
    s, lam = np.broadcast_arrays(np.minimum(edges[p], 2.0), edges[q])
    return s, lam, tangent


ASSEMBLY_LS = [*range(1, 101), 256, 1024, 1170]


class TestOutsideZoneAreaBranches:
    """The closed form against a 40-digit reference at tangency and on every
    branch, against the arccos oracle away from tangency, and exactly at the
    degenerate points."""

    TOL = 3e-14

    def assert_near_reference(self, s, lam):
        got = outside_zone_area(s, lam)
        ref = np.array([outside_zone_area_mp(a, b) for a, b in zip(s, lam)])
        assert np.max(np.abs(got - ref), initial=0.0) <= self.TOL, np.max(np.abs(got - ref))

    @pytest.mark.parametrize("rigorous", [False, True])
    def test_tangent_entries_of_the_assembly(self, rigorous):
        count = 0
        for L in ASSEMBLY_LS:
            s, lam, tangent = assembly_grid(L, range(L) if rigorous else range(1, L + 1))
            self.assert_near_reference(s[tangent], lam[tangent])
            count += np.count_nonzero(tangent)
        assert count == (4947 if rigorous else 5000)

    def test_grid_covers_every_branch_and_boundary(self):
        s = np.concatenate([np.linspace(0.0, 5.0, 201), [2.0 - 1e-15, 2.0 + 1e-15, 3.9]])
        lam = np.concatenate([np.linspace(0.0, 4.0, 161), [1e-300, 4.0 - 1e-15]])
        S, LAM = (a.ravel() for a in np.meshgrid(s, lam, indexing="ij"))
        cross = (np.abs(S - 2.0) < LAM) & (LAM < S + 2.0)
        nested = ~cross & (LAM < S + 2.0)
        assert cross.any() and nested.any() and (LAM >= S + 2.0).any()
        assert {0.0, 2.0} <= set(S) and {0.0, 1e-300, 4.0} <= set(LAM)
        # the exact boundaries: internal tangency lam = |s - 2| and external lam = s + 2
        edge_s = s[(s <= 4.0) & (s != 2.0)]
        self.assert_near_reference(np.concatenate([edge_s, s[s <= 2.0]]),
                                   np.concatenate([np.abs(edge_s - 2.0), s[s <= 2.0] + 2.0]))
        # the body's linspace values meet tangencies only up to rounding,
        # where the arccos oracle loses digits; the reference does not
        self.assert_near_reference(S[::11], LAM[::11])

    @pytest.mark.parametrize("rigorous", [False, True])
    def test_rows_and_edges_of_the_assembly(self, rigorous):
        # the arccos oracle away from tangency
        for L in ASSEMBLY_LS:
            s, lam, tangent = assembly_grid(L, range(L) if rigorous else range(1, L + 1))
            got, ref = outside_zone_area(s, lam), outside_zone_area_every_branch(s, lam)
            assert np.max(np.abs(got - ref)[~tangent], initial=0.0) <= 1e-12, L

    @pytest.mark.parametrize("s, lam, area", [
        (2.0, 0.0, 0.0), (2.0, 1e-300, 0.0), (0.0, 0.0, 0.0), (0.0, 2.0, 0.0), (1.0, 1.0, 0.0),
        (3.0, 0.0, 5.0 * math.pi), (2.0, 4.0, 4.0 * math.pi),
    ])
    def test_exact_at_degenerate_points(self, s, lam, area):
        assert outside_zone_area(s, lam) == area

    def test_scalar_and_broadcast_inputs(self):
        def assert_same_form(s, lam):
            got, ref = outside_zone_area(s, lam), outside_zone_area_every_branch(s, lam)
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert np.allclose(got, ref, rtol=0.0, atol=1e-12)

        for s, lam in [(0.5, 1.5), (0.5, 3.0), (3.5, 1.0), (1.0, 1.0), (2.0, 0.0), (0.0, 2.0),
                       (1.0, 3.0), (1.0, 4.0)]:
            assert_same_form(s, lam)
            assert_same_form(np.float64(s), np.array(lam))
        s = np.linspace(0.0, 4.0, 9)
        assert_same_form(s, 1.5)
        assert_same_form(2.0, s)
        assert_same_form(s[:, None], s[None, :])
        assert_same_form(s[None, :], np.array([[0.5], [2.0], [3.5]]))


class TestLocalChart:
    @given(coords, coords, st.floats(-0.24, 0.24), st.floats(-0.24, 0.24))
    def test_round_trip_identity(self, ox, oy, vx, vy):
        chart = LocalChart(TorusPoint(ox, oy))
        p = chart.to_torus((vx, vy))
        back = chart.to_plane(p)
        assert back[0] == pytest.approx(vx, abs=1e-12)
        assert back[1] == pytest.approx(vy, abs=1e-12)


class TestReflectAcrossBisector:
    def _random_triple(self, rng):
        ax, ay = rng.random(2)
        a = TorusPoint(ax, ay)
        ell = 0.01 + 0.2 * rng.random()
        phi = 2.0 * math.pi * rng.random()
        b = TorusPoint(ax + ell * math.cos(phi), ay + ell * math.sin(phi))
        mx = ax + 0.5 * ell * math.cos(phi)
        my = ay + 0.5 * ell * math.sin(phi)
        rad = 0.2 * rng.random()
        psi = 2.0 * math.pi * rng.random()
        z = TorusPoint(mx + rad * math.cos(psi), my + rad * math.sin(psi))
        return z, a, b

    def test_endpoints_swap(self):
        a, b = TorusPoint(0.2, 0.2), TorusPoint(0.3, 0.25)
        image = reflect_across_bisector(b, a, b)
        assert torus_dist(image, a) < 1e-12

    def test_equidistant_points_fixed(self):
        a, b = TorusPoint(0.4, 0.5), TorusPoint(0.6, 0.5)
        z = TorusPoint(0.5, 0.62)
        image = reflect_across_bisector(z, a, b)
        assert torus_dist(image, z) < 1e-12

    def test_distance_swap_and_involution(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            z, a, b = self._random_triple(rng)
            zbar = reflect_across_bisector(z, a, b)
            assert torus_dist(zbar, a) == pytest.approx(torus_dist(z, b), abs=1e-12)
            assert torus_dist(zbar, b) == pytest.approx(torus_dist(z, a), abs=1e-12)
            again = reflect_across_bisector(zbar, a, b)
            assert torus_dist(again, z) < 1e-12

    def test_maps_crescent_to_mirror_crescent(self):
        # Points closer to b than 2r but at least 2r from a map to points
        # closer to a than 2r and at least 2r from b.
        rng = np.random.default_rng(4)
        r = 0.02
        a, b = TorusPoint(0.5, 0.5), TorusPoint(0.5 + 3.0 * r, 0.5)
        found = 0
        while found < 10_000:
            off = (rng.random(2) - 0.5) * 8.0 * r
            z = TorusPoint(b.x + off[0], b.y + off[1])
            if torus_dist(z, b) < 2 * r <= torus_dist(z, a):
                zbar = reflect_across_bisector(z, a, b)
                assert torus_dist(zbar, a) < 2 * r <= torus_dist(zbar, b)
                found += 1

    def test_rejects_degenerate_and_spread_inputs(self):
        p = TorusPoint(0.1, 0.1)
        with pytest.raises(GeometryError):
            reflect_across_bisector(TorusPoint(0.2, 0.2), p, p)
        with pytest.raises(GeometryError):
            reflect_across_bisector(TorusPoint(0.9, 0.9), TorusPoint(0.1, 0.1), TorusPoint(0.15, 0.1))


def bruteforce_clear(P, c, xy, skip, two_r2):
    """Chain c of the pool P (2, n, B): is xy clear of every disk but skip?"""
    d = min_image_array(P[:, :, c].T - np.asarray(xy))
    dist2 = (d * d).sum(axis=1)
    if skip is not None:
        dist2[skip] = np.inf
    return bool(np.all(dist2 >= two_r2))


class TestClearOf:
    # B = 513 is a pool larger than coupling.BATCH = 512 chains
    @pytest.mark.parametrize("B, n", [(1, 2), (9, 8), (513, 65)])
    def test_matches_bruteforce_with_skip_rows(self, B, n):
        rho = 0.15
        rng = np.random.default_rng(n)
        P = batch_insert(B, n, rho, rng)
        two_r2 = (2.0 * radius_for_density(n, rho)) ** 2
        cols = np.arange(B)
        skip = rng.integers(n, size=B)
        # points just off the skipped disk: blocked by it unless it is skipped
        near = P[:, skip, cols] + 0.1 * np.sqrt(two_r2)
        uniform = rng.random((2, B))
        proposals = [(uniform, None), (uniform, skip), (near, skip), (near, None)]
        got = clear_of(P[0], P[1], proposals, two_r2)
        assert got.shape == (4, B)
        for k, (points, rows) in enumerate(proposals):
            for c in range(B):
                want = bruteforce_clear(P, c, points[:, c], None if rows is None else rows[c], two_r2)
                assert got[k, c] == want, (k, c)
        assert not got[3].any()
        assert got[2].any() and not got[0].all()

    def test_zero_rows_are_clear(self):
        X = np.empty((0, 5))
        got = clear_of(X, X, [(np.zeros((2, 5)), None)], 1.0)
        assert got.shape == (1, 5) and got.all()


class TestFreeGridCounts:
    # m = cells_per_side(r) runs from 4 (8r = 0.98) to 20
    @pytest.mark.parametrize("n, rho, m", [
        (4, 0.19, 4), (16, 0.2, 7), (8, 0.05, 11), (32, 0.14, 13), (110, 0.2, 20),
    ])
    def test_matches_clear_of_on_random_pools(self, n, rho, m):
        r = radius_for_density(n, rho)
        assert cells_per_side(r) == m
        two_r2 = (2.0 * r) ** 2
        rng = np.random.default_rng(m)
        P = batch_insert(200, n, rho, rng)
        for _ in range(4):
            shift = rng.random((2, 200))
            got = free_grid_counts(*P[:, 1:], shift, m, two_r2)
            assert np.array_equal(got, free_grid_bruteforce(*P[:, 1:], shift, m, two_r2))
        assert 0 < got.min() and got.max() < m * m

    def test_zero_shift_and_coordinates_at_one(self):
        n, rho = 32, 0.14
        r = radius_for_density(n, rho)
        m, two_r2 = cells_per_side(r), (2.0 * r) ** 2
        rng = np.random.default_rng(5)
        P = batch_insert(100, n, rho, rng)
        P[0, 1, :50] = 1.0  # x - floor(x) can return 1.0
        P[1, 2, 25:75] = 1.0
        shift = rng.random((2, 100))
        shift[:, :40] = 0.0
        # a disk a hair below the shift: its grid coordinate often rounds up to m
        P[:, 3, 40:60] = np.nextafter(shift[:, 40:60], 0.0)
        u = P[:, 3, 40:60] - shift[:, 40:60]
        assert np.any(((u - np.floor(u)) * m).astype(int) == m)
        got = free_grid_counts(*P, shift, m, two_r2)
        assert np.array_equal(got, free_grid_bruteforce(*P, shift, m, two_r2))

    def test_disk_on_a_grid_point_blocks_only_it(self):
        # 2r < 1/m, so the neighbouring grid points at 1/m stay free
        r = radius_for_density(32, 0.14)
        m, two_r2 = cells_per_side(r), (2.0 * r) ** 2
        shift = np.random.default_rng(6).random((2, 50))
        points = shifted_grid(shift, m)
        k = np.arange(50) * 7 % (m * m)
        on_grid = points[k, :, np.arange(50)].T[:, None, :]  # (2, 1 disk, chains)
        got = free_grid_counts(*on_grid, shift, m, two_r2)
        assert np.array_equal(got, free_grid_bruteforce(*on_grid, shift, m, two_r2))
        assert np.all(got == m * m - 1)

    def test_disk_exactly_one_cell_from_a_corner_does_not_block_it(self):
        # two_r2 = 1/m^2, the largest the kernel takes; every value is dyadic,
        # so the distance 1/m from the disk to the corners beside it is exact
        m, shift = 4, np.array([[0.25], [0.5]])
        disk = np.array([[[0.5]], [[0.75]]])  # grid point (1, 1)
        got = free_grid_counts(*disk, shift, m, 1.0 / m**2)
        assert got.tolist() == [m * m - 1]
        assert free_grid_bruteforce(*disk, shift, m, 1.0 / m**2).tolist() == [m * m - 1]
        # a hair closer to the corner (2, 1), that corner is blocked too
        disk[0] = np.nextafter(0.5, 1.0)
        assert free_grid_counts(*disk, shift, m, 1.0 / m**2).tolist() == [m * m - 2]
