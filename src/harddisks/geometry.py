"""Minimal-image torus distances, the clearance kernel and the closed-form crescent areas.

The package computes distances only in batches: min_image_array for points,
clear_of for proposals against disk-major chain pools, and free_grid_counts
for a shifted grid of points against each chain of a pool.  The scalar torus
points, the crescent angle and the mirror reflection are test oracles
(tests/oracles.py).
All crescent formulas work in normalized units:
lengths are measured in multiples of the disk radius r, areas in multiples
of r^2.  The danger zone
around a center is then a disk of radius 2, and two zones are disjoint once
the centers are 4 apart.
"""

from __future__ import annotations

import numpy as np


def min_image_array(d):
    """Vectorized minimal-image reduction of coordinate differences."""
    d = np.asarray(d, dtype=float)
    return d - np.round(d)


SWEEP_BLOCK_PAIRS = 1 << 15  # chain·disk pairs per block of free_grid_counts; blocks bound its RSS peak


def clear_of(X, Y, proposals, two_r2: float) -> np.ndarray:
    """Per proposal (points, skip) and chain c: is the point (px[c], py[c]) at
    squared torus distance >= two_r2 from every disk of chain c but disk skip[c]?

    X, Y are disk-major planes (disks, chains), possibly with no disks; points
    is a pair (px, py) and skip an index array or None.  Returns booleans of
    shape (len(proposals), chains).
    """
    rows, B = X.shape
    out = np.empty((len(proposals), B), dtype=bool)
    # separate allocations: buffers a multiple of 4 KiB apart slow the ufuncs pairing them
    d2 = np.empty((rows, B))
    dy, nearest = np.empty_like(d2), np.empty_like(d2)
    cols = np.arange(B)
    for k, ((px, py), skip) in enumerate(proposals):
        np.subtract(X, px, out=d2)
        np.rint(d2, out=nearest)
        d2 -= nearest
        np.subtract(Y, py, out=dy)
        np.rint(dy, out=nearest)
        dy -= nearest
        d2 *= d2
        dy *= dy
        d2 += dy
        if skip is not None:
            d2[skip, cols] = np.inf
        out[k] = np.minimum.reduce(d2, axis=0, initial=np.inf) >= two_r2
    return out


def cells_per_side(r: float) -> int:
    """Cells per side of the grid whose cell side 1/m is at least 2r."""
    return max(1, int(1.0 / (2.0 * r)))


def free_grid_counts(X, Y, shift, m: int, two_r2: float) -> np.ndarray:
    """Per chain c, how many points of the grid {(i/m, j/m) + shift[:, c] mod 1},
    0 <= i, j < m, lie at squared distance >= two_r2 from every disk of chain c.

    X, Y are disk-major planes (disks, chains) with coordinates in [0, 1] and
    shift is (2, chains) in [0, 1).  Needs two_r2 <= 1/m^2, so that a disk can
    block only the four corners of the grid cell it lies in: each disk costs
    four distance tests, done in grid units, instead of m^2.  The counts equal
    those of clear_of on the same points except for a point within rounding of
    distance 2r from a disk.  Returns integer counts of shape (chains,),
    computed in blocks of chains that keep the eight per-disk arrays of a
    block in cache.
    """
    rows, B = X.shape
    width = max(1, SWEEP_BLOCK_PAIRS // (4 * max(1, rows)))
    counts = np.empty(B, dtype=np.intp)
    for lo in range(0, B, width):
        cols = slice(lo, lo + width)
        counts[cols] = _free_grid_block(X[:, cols], Y[:, cols], shift[:, cols], m, two_r2)
    return counts


def _free_grid_block(X, Y, shift, m: int, two_r2: float) -> np.ndarray:
    """free_grid_counts on one block of chains."""
    B = X.shape[1]
    lim = two_r2 * m * m  # (2r)^2 in grid units
    wrap = np.arange(m + 2) % m  # corner index m + 1 appears when a coordinate rounds to m
    axes = []
    for P, s in ((X, shift[0]), (Y, shift[1])):
        u = P - s
        u -= np.floor(u)  # in [0, 1]: a tiny negative difference rounds up to 1
        u *= m
        cell = u.astype(np.intp)  # floor, as u >= 0
        u -= cell  # offset within the cell, in [0, 1)
        near = (wrap[cell], u * u)
        cell += 1
        np.subtract(1.0, u, out=u)
        u *= u
        axes.append((near, (wrap[cell], u)))
    dump = B * m * m  # unblocked corners write here
    blocked = np.zeros(dump + 1, dtype=bool)
    base = np.arange(B) * (m * m)
    for ix, dx2 in axes[0]:
        row = ix * m + base
        for iy, dy2 in axes[1]:
            blocked[np.where(dx2 + dy2 < lim, row + iy, dump)] = True
    return m * m - np.count_nonzero(blocked[:dump].reshape(B, m * m), axis=1)


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
    of a center lam away, for s, lam >= 0: pi s^2 minus the circle-circle lens.
    It integrates the savings kernel 2 (pi - theta(u, lam)) u over [0, s],
    where theta is the half-angle at y1 of the part of the circle of radius u
    that lies inside the zone; at s = 2 it is the crescent area.  s and lam are
    scalars or arrays that broadcast together.

    One closed form holds on every branch:
    s^2 atan2(q, 4 - lam^2 - s^2) - 4 atan2(q, lam^2 + 4 - s^2) + q/2, where
    q = sqrt((s + 2 - lam)(lam + s - 2)(lam - s + 2)(lam + s + 2)) is four
    times the area of the triangle (s, lam, 2), taken as 0 where the circles
    do not cross.  With q = 0 the atan2 terms are 0 or pi by the signs of
    their second arguments, which gives pi s^2 for disjoint circles, 0 inside
    the zone and pi (s^2 - 4) around it; tangent circles lose no digits.
    """
    s = np.asarray(s, dtype=float)
    lam = np.asarray(lam, dtype=float)
    s2, l2 = s * s, lam * lam
    q = np.sqrt(np.maximum(0.0, (s + 2.0 - lam) * (lam + s - 2.0) * (lam - s + 2.0) * (lam + s + 2.0)))
    return s2 * np.arctan2(q, 4.0 - l2 - s2) - 4.0 * np.arctan2(q, l2 + 4.0 - s2) + 0.5 * q
