"""Minimal-image torus differences and the closed-form crescent areas behind the coupling.

The package computes distances only in batches, through min_image_array; the
scalar torus points, the crescent angle and the mirror reflection are test
oracles (tests/oracles.py).  All crescent formulas work in normalized units:
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
    the savings kernel 2 (pi - theta(u, lam)) u over [0, s], where theta is the
    half-angle at y1 of the part of the circle of radius u that lies inside
    the zone; at s = 2 it is the crescent area.  s and lam are arrays that broadcast together.
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
