"""Tests for torus arithmetic and the crescent geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harddisks.geometry import (
    CLOSE_PACKING_DENSITY,
    GeometryError,
    LocalChart,
    TorusPoint,
    ball_volume,
    crescent_angle,
    crescent_angle_array,
    crescent_area,
    min_image,
    outside_zone_area,
    reflect_across_bisector,
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


def test_close_packing_constant():
    assert CLOSE_PACKING_DENSITY == math.pi * math.sqrt(3.0) / 6.0
    assert abs(CLOSE_PACKING_DENSITY - 0.9069) < 1e-4


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


class TestBallVolume:
    def test_disk_area(self):
        assert ball_volume(2, 3.0) == pytest.approx(math.pi * 9.0)

    def test_unit_sphere(self):
        assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0)

    def test_interval_length(self):
        assert ball_volume(1, 2.5) == pytest.approx(5.0)

    def test_rejects_dimension_zero_and_negative_radius(self):
        with pytest.raises(ValueError):
            ball_volume(0, 1.0)
        with pytest.raises(ValueError):
            ball_volume(2, -1.0)


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
