"""Hard-disk configurations on the unit torus and the single-particle chain.

One step proposes moving a uniformly random disk to a uniformly random torus
position and accepts iff the new position is at distance >= 2r from every
other center.  `run` draws its proposals in numpy slices, and `CellGrid.walk`
checks each slice in Python floats against three column strips of a cell
grid, centre first; the tests audit it against brute force (tests/oracles.py).
`batch_insert` fills a pool of chains at once, disk-major, through
geometry.clear_of.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import cells_per_side, clear_of, min_image_array

MAX_INSERTION_ATTEMPTS = 10_000  # per disk and chain
RUN_SLICE = 4_096  # proposals drawn per CellGrid.walk call in run()


@dataclass(frozen=True)
class ChainStats:
    steps: int
    accepted: int

    @property
    def rejected(self) -> int:
        return self.steps - self.accepted

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.steps if self.steps else 0.0


class Configuration:
    """An immutable snapshot of n non-overlapping disk centers.

    Enforces finite centers, a finite positive radius and the hard-core
    constraint (pairwise torus distance >= 2r).
    """

    __slots__ = ("n", "r", "centers")

    def __init__(self, centers, r: float):
        centers = np.array(centers, dtype=float).reshape(-1, 2)
        self.r = float(r)
        # before the wrap, which turns inf into NaN with a RuntimeWarning
        if not (np.isfinite(centers).all() and math.isfinite(self.r)):
            raise ValueError("disk centers and radius must be finite")
        centers %= 1.0
        self.n = len(centers)
        self.centers = centers
        self.centers.setflags(write=False)
        if self.r <= 0:
            raise ValueError("radius must be positive")
        if not self.is_valid():
            raise ValueError("overlapping disks: pairwise distance < 2r")

    @property
    def rho(self) -> float:
        return self.n * math.pi * self.r * self.r

    def is_valid(self) -> bool:
        """Full O(n^2) pairwise audit of the hard-core constraint."""
        c = self.centers
        for i in range(1, self.n):
            d = min_image_array(c[:i] - c[i])
            if np.any((d * d).sum(axis=1) < (2.0 * self.r) ** 2 - 1e-15):
                return False
        return True


def radius_for_density(n: int, rho: float) -> float:
    """Disk radius giving combined area rho on the unit torus."""
    return math.sqrt(rho / (math.pi * n))


def batch_insert(B: int, n: int, rho: float, rng) -> np.ndarray:
    """Random sequential insertion of n disks at density rho, for B chains at once.

    Disk k of each chain is redrawn until it lies at distance >= 2r from disks
    0..k-1 of that chain, at most MAX_INSERTION_ATTEMPTS times.  Returns the
    pool disk-major, as P of shape (2, n, B): x rows P[0] and y rows P[1].
    """
    if n < 1:
        raise ValueError(f"insertion needs at least one disk, got n={n}")
    if not 0 < rho < 0.25:
        raise ValueError(f"density must lie in (0, 1/4), got {rho}")
    two_r2 = (2.0 * radius_for_density(n, rho)) ** 2
    P = np.empty((2, n, B))
    for k in range(n):  # disk 0 has no disks to clear: its first draw holds
        pending = np.arange(B)
        for _ in range(MAX_INSERTION_ATTEMPTS):
            p = rng.random((len(pending), 2))
            ok = clear_of(*P[:, :k, pending], [(p.T, None)], two_r2)[0]
            P[:, k, pending[ok]] = p[ok].T
            pending = pending[~ok]
            if len(pending) == 0:
                break
        else:
            raise RuntimeError(
                f"random insertion failed: disk {k} found no free position in "
                f"{MAX_INSERTION_ATTEMPTS} attempts (n={n}, rho={rho}); "
                "density too high for this initializer"
            )
    return P


def random_config(n: int, rho: float, seed) -> Configuration:
    """Random sequential insertion of one configuration; see batch_insert."""
    P = batch_insert(1, n, rho, np.random.default_rng(seed))
    return Configuration(P[:, :, 0].T, radius_for_density(n, rho))


class CellGrid:
    """Uniform spatial hash over the torus with cell side >= 2r.

    Any blocker of a proposal lies in the 3x3 cell block around it.  Strip
    (cx, cy) lists the disks of cells (cx, cy - 1), (cx, cy) and (cx, cy + 1),
    a cell twice or thrice at m <= 2; `neighbours[c]` is the block as three
    strips, c's own first, and `walk` edits the three in `holders[c]`.
    """

    def __init__(self, config: Configuration):
        m = self.m = cells_per_side(config.r)
        self.lim = 4.0 * config.r * config.r
        strips: list[list[int]] = [[] for _ in range(m * m)]
        self.neighbours = [tuple(strips[((cx + dx) % m) * m + cy] for dx in (0, -1, 1))
                           for cx in range(m) for cy in range(m)]
        self.holders = [tuple(strips[cx * m + (cy + dy) % m] for dy in (-1, 0, 1))
                        for cx in range(m) for cy in range(m)]
        self.xs = config.centers[:, 0].tolist()
        self.ys = config.centers[:, 1].tolist()
        self.cell_of = self._cells(config.centers)
        for i, c in enumerate(self.cell_of):
            for strip in self.holders[c]:
                strip.append(i)

    def _cells(self, pts) -> list[int]:
        """Cell of each point, equal to int(x * m) % m per coordinate."""
        m = self.m
        c = (pts * m).astype(np.int64) % m
        return (c[:, 0] * m + c[:, 1]).tolist()

    def walk(self, idx, pts) -> int:
        """Move disk idx[k] to pts[k], k in order, where allowed; return the count.

        Every stored and proposed coordinate must lie in [0, 1] (a stored one
        can be exactly 1.0, the float64 value of -1e-20 % 1.0), so each
        coordinate difference lies in [-1, 1] and one conditional shift by 1
        is its minimal image, equal bit for bit to `e - round(e)`.
        """
        xs, ys, lim = self.xs, self.ys, self.lim
        cell_of, neighbours, holders = self.cell_of, self.neighbours, self.holders
        accepted = 0
        for i, x, y, c in zip(idx.tolist(), pts[:, 0].tolist(), pts[:, 1].tolist(),
                              self._cells(pts)):
            for strip in neighbours[c]:
                for j in strip:
                    if j == i:
                        continue
                    ex = xs[j] - x
                    if ex > 0.5:
                        ex -= 1.0
                    elif ex < -0.5:
                        ex += 1.0
                    ey = ys[j] - y
                    if ey > 0.5:
                        ey -= 1.0
                    elif ey < -0.5:
                        ey += 1.0
                    if ex * ex + ey * ey < lim:
                        break
                else:
                    continue
                break
            else:
                old = cell_of[i]
                if c != old:
                    s0, s1, s2 = holders[old]
                    s0.remove(i)
                    s1.remove(i)
                    s2.remove(i)
                    s0, s1, s2 = holders[c]
                    s0.append(i)
                    s1.append(i)
                    s2.append(i)
                    cell_of[i] = c
                xs[i] = x
                ys[i] = y
                accepted += 1
        return accepted


def run(config: Configuration, steps: int, seed):
    """Run the chain for a number of steps; deterministic given the seed.

    Each slice of RUN_SLICE proposals draws its disk indices, then its
    positions, uniform on [0, 1), and `CellGrid.walk` applies it in plain
    Python arithmetic.  Returns (final configuration, stats).
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = np.random.default_rng(seed)
    if steps == 0:
        return config, ChainStats(steps=0, accepted=0)
    grid = CellGrid(config)
    accepted = 0
    for lo in range(0, steps, RUN_SLICE):
        k = min(RUN_SLICE, steps - lo)
        accepted += grid.walk(rng.integers(config.n, size=k), rng.random((k, 2)))
    final = Configuration(np.column_stack([grid.xs, grid.ys]), config.r)  # one O(n^2) audit
    return final, ChainStats(steps=steps, accepted=accepted)


def save_snapshot(config: Configuration, path, seed=None) -> None:
    """CSV of centers plus a JSON sidecar with n, r, rho, seed, every float as
    its shortest round-trip repr, so `load_snapshot` rebuilds it bit for bit."""
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in config.centers.tolist():
            fh.write(f"{x!r},{y!r}\n")
    sidecar = {"n": config.n, "r": config.r, "rho": config.rho, "seed": seed}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh)


def load_snapshot(path) -> Configuration:
    with open(str(path) + ".json") as fh:
        sidecar = json.load(fh)
    centers = np.loadtxt(path, delimiter=",", skiprows=1).reshape(-1, 2)
    return Configuration(centers, sidecar["r"])
