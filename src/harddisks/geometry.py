"""Torus arithmetic and the circle/crescent geometry behind the coupling.

All crescent formulas work in normalized units: lengths are measured in
multiples of the disk radius r, areas in multiples of r^2.  The danger zone
around a center is then a disk of radius 2, and two zones are disjoint once
the centers are 4 apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """A geometric precondition was violated (points too spread for a chart)."""


def _wrap(x: float) -> float:
    x = x - math.floor(x)
    # x - floor(x) can round up to 1.0 for tiny negative inputs
    return 0.0 if x >= 1.0 else x


@dataclass(frozen=True)
class TorusPoint:
    """A point on the unit 2-torus; coordinates reduced into [0, 1)."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _wrap(self.x))
        object.__setattr__(self, "y", _wrap(self.y))


def min_image(dx: float) -> float:
    """Signed minimal-image representative of a coordinate difference.

    IEEE remainder is exact and antisymmetric, so torus_dist is exactly
    symmetric in its arguments.
    """
    return math.remainder(dx, 1.0)


def min_image_array(d):
    """Vectorized minimal-image reduction of coordinate differences."""
    d = np.asarray(d, dtype=float)
    return d - np.round(d)


def torus_dist(p: TorusPoint, q: TorusPoint) -> float:
    """Euclidean distance of the minimal-image difference; at most sqrt(2)/2."""
    dx = min_image(p.x - q.x)
    dy = min_image(p.y - q.y)
    return math.hypot(dx, dy)


def crescent_area(lam):
    """Area of the danger crescent Z(y1) \\ Z(x1), in units of r^2.

    lam is the center separation in units of r, in [0, 4].  Beyond 4 the two
    danger zones are disjoint and the caller should use the full-disk area
    4*pi instead.  Accepts scalars or arrays.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0) or np.any(lam_arr > 4):
        raise ValueError("crescent separation must lie in [0, 4] (units of r)")
    out = 8.0 * np.arcsin(lam_arr / 4.0) + lam_arr * np.sqrt(4.0 - lam_arr * lam_arr / 4.0)
    return float(out) if np.isscalar(lam) else out


def outside_zone_area(s, lam):
    """Area of the disk of radius s about y1 outside the danger zone (radius 2)
    of a center lam away: pi s^2 minus the circle-circle lens.  It integrates
    the savings kernel 2 (pi - theta(u, lam)) u over [0, s]; at s = 2 it is the
    crescent area.  s and lam are arrays that broadcast together.
    """
    cross = (np.abs(s - 2.0) < lam) & (lam < s + 2.0)
    # Placeholders s = lam = 1 keep the discarded crossing entries in domain.
    sc, lc = np.where(cross, s, 1.0), np.where(cross, lam, 1.0)
    alpha = np.arccos(np.clip((lc * lc + sc * sc - 4.0) / (2.0 * lc * sc), -1.0, 1.0))
    beta = np.arccos(np.clip((lc * lc + 4.0 - sc * sc) / (4.0 * lc), -1.0, 1.0))
    m = np.minimum(s, 2.0)  # nested circles: the smaller disk; disjoint: nothing
    lens = np.where(cross, sc * sc * alpha + 4.0 * beta - lc * sc * np.sin(alpha),
                    np.where(lam < s + 2.0, np.pi * m * m, 0.0))
    return np.pi * s * s - lens


def crescent_angle(u: float, lam: float) -> float:
    """Half-angle (at y1) of the arc of radius u that lies outside the crescent.

    The circle of radius u around y1 meets the crescent along an arc of
    angular width 2*(pi - theta).  For degenerate triangles the boundary
    rules apply: theta = 0 when u < lam - 2 (the whole circle is inside the
    crescent) and theta = pi when u < 2 - lam (none of it is).
    """
    if u < 0:
        raise ValueError("u must be nonnegative")
    if not 0 < lam <= 4:
        raise ValueError("lam must lie in (0, 4]")
    if u == 0.0:
        return math.pi if lam <= 2.0 else 0.0
    if u < 2.0 - lam:
        return math.pi
    if u < lam - 2.0:
        return 0.0
    # Law of cosines for the triangle (u, lam, 2); clamp against float drift
    # at the regime boundaries, where theta is exact by the rules above.
    arg = (u * u + lam * lam - 4.0) / (2.0 * lam * u)
    return math.acos(min(1.0, max(-1.0, arg)))


def crescent_angle_array(u, lam):
    """Vectorized crescent_angle; u and lam broadcast together."""
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (u * u + lam * lam - 4.0) / (2.0 * lam * u)
        th = np.arccos(np.clip(arg, -1.0, 1.0))
    th = np.where(u < lam - 2.0, 0.0, th)
    th = np.where(u < 2.0 - lam, np.pi, th)
    th = np.where(u == 0.0, np.where(lam <= 2.0, np.pi, 0.0), th)
    return th


@dataclass(frozen=True)
class LocalChart:
    """Euclidean chart around an origin, valid for neighborhoods of diameter < 1/2.

    Maps torus points to plane coordinates via minimal-image vectors; the
    round trip is the identity within distance 1/4 of the origin.
    """

    origin: TorusPoint

    def to_plane(self, p: TorusPoint) -> tuple[float, float]:
        return (min_image(p.x - self.origin.x), min_image(p.y - self.origin.y))

    def to_torus(self, v: tuple[float, float]) -> TorusPoint:
        return TorusPoint(self.origin.x + v[0], self.origin.y + v[1])


def reflect_across_bisector(z: TorusPoint, a: TorusPoint, b: TorusPoint) -> TorusPoint:
    """Mirror z across the perpendicular bisector of segment ab.

    The reflection is performed in a local chart centered at the midpoint of
    a and b, which is consistent only when all three points are well inside a
    half-torus patch.  Swaps distances: |z' - a| = |z - b| and vice versa.
    """
    ell = torus_dist(a, b)
    if ell == 0.0:
        raise GeometryError("bisector undefined: endpoints coincide")
    # Midpoint in a's chart, then re-center the chart there.
    mid = TorusPoint(a.x + min_image(b.x - a.x) / 2.0, a.y + min_image(b.y - a.y) / 2.0)
    chart = LocalChart(mid)
    if torus_dist(z, mid) >= 0.25 or ell >= 0.25:
        raise GeometryError("points too spread for a consistent local chart")
    zx, zy = chart.to_plane(z)
    ax, ay = chart.to_plane(a)
    bx, by = chart.to_plane(b)
    ux, uy = (bx - ax) / ell, (by - ay) / ell
    t = zx * ux + zy * uy  # component along ab, measured from the midpoint
    return chart.to_torus((zx - 2.0 * t * ux, zy - 2.0 * t * uy))
