"""Reference implementations that the tests check the package against.

Not collected by pytest; the test modules import it.  The package computes
each result one way, batched or in closed form; each oracle here is a second,
scalar or independent route to the same result:

- Torus geometry (`TorusPoint`, `min_image`, `torus_dist`, `LocalChart`,
  `reflect_across_bisector`): test_geometry and criterion 6 check their
  identities.  The batched mirror image in `coupling._classify_proposals`
  meets `reflect_across_bisector` through `classify_step` below.
- `shifted_grid`, `free_grid_bruteforce`: the disk-0 grid points of a
  chain pool and their free count through `geometry.clear_of`, m^2 tests
  per disk.  test_geometry checks `geometry.free_grid_counts` against it,
  and test_coupling replays the grid through `classify_step`.
- `crescent_angle`, `crescent_angle_array`: the angle in the savings kernel
  2 (pi - theta(u, lam)) u.  test_geometry checks that
  `geometry.outside_zone_area` is its antiderivative, and test_contraction
  checks `contraction.assemble` against quadratures of it.
- `outside_zone_area_every_branch`, `outside_zone_area_mp`: the savings
  antiderivative in its branchwise arccos/sin form, evaluated on every entry
  with the branch picked after, and at one point in 40-digit mpmath with the
  branch picked exactly.  test_geometry checks that `geometry.outside_zone_area`,
  one atan2 closed form on every branch, is within 3e-14 of the mpmath
  reference at every tangent entry of the assembly grids and on a grid of
  every branch, and within 1e-12 of the arccos form elsewhere on the
  assembly grids (at tangency the arccos form itself is off by up to
  7.1e-7); the `assemble_dense` oracle calls the package kernel and so
  cannot see a change in it.
- `uniform_crescent_proposals`: the crescent stratum drawn i.i.d. uniform
  by rejection, a drop-in for `coupling._draw_proposals`.  test_coupling
  checks that the weighted lattice points of the package vary less than it.
- `move_allowed_bruteforce`, `propose`, `step`, `replaced`: the O(n) scalar
  single-disk chain.  test_dynamics and criterion 8 audit
  `dynamics.CellGrid.walk`, one proposal at a time, against
  `move_allowed_bruteforce`.
- `ScalarCellGrid`: the 3x3 cell-list grid that `dynamics.CellGrid`
  replaced with column strips, with one-proposal `allowed` and `move`, each
  computing the proposal's cell in Python.  test_dynamics checks
  `dynamics.run` against a brute-force step loop over its `move`, and the
  verdicts, cells and coordinates of `CellGrid.walk` at cell edges against
  it.
- `round_down`: a rational rounded down to a float; test_metric checks
  `metric.sum_down` against it, and test_contraction builds its reference
  witness with it.
- `check_axioms_looped`: the metric axioms checked one pair (i, j) at a
  time in `fractions.Fraction`, so it shares no rounding with
  `metric.sum_down`; test_metric checks the row-vectorized, exact
  `metric.check_axioms` against it, violation lists and their order included.
- `hamming_metric`, `disagreements`, `pair_distance`: the unit metric d = 1
  and the metric distance between two configurations (test_metric).
- `CoupledPair`, `make_pair`, `coupled_step`, `classify_step`: the scalar
  coupled step, which needs 8r < 1/2.  test_coupling replays the batched,
  stratified trial kernel of `coupling.estimate_contraction` through
  `classify_step`, proposal by proposal.
- `assemble_dense`, `stored`, `dense_rows`: `contraction.assemble` built as
  all L x L savings weights at once, a system in the package's layout whose
  savings rows are the rows of a given array, and a system's weights
  gathered back into one zero-padded L x L array.  Both assemblies take the
  row sums W from the same closed form, F(lam_i, u_i)/pi.
  test_contraction checks that the package's stored head blocks, last row,
  streamed rows, g and W equal the dense assembly bit for bit, with the
  savings rows at either end of each cell, that W lies within 2 ulp of the
  dense row sums, and that both give the same search; the LP oracle and the
  kernel and sweep references index the padded weights.
- `minimal_metric`: the pointwise-least solution over all L rows, the
  package's blocked sweep run on the gathered weights.  test_contraction
  checks that the head the witness sweeps equals its head bit for bit.
- `assemble_as_written`: `contraction.assemble` without the clamp at u = 2,
  so the savings integral runs on over the geometrically empty region
  u > 2.  test_contraction checks the kernel quadratures and the blocked
  solve on it, and criterion 5 and test_cli check that it gives the same
  bounds as the package.
- `feasible_box`, `lp_feasible`: a phase-1 simplex.  test_contraction and
  criterion 7 check the forward-sweep feasibility threshold against it.
- `saturated_metric`, `saturated_decide`: the minimal head (lam <= 2) with
  the tail pinned at 1, and feasibility decided on every row of it (head
  <= 1 and no residual below -1e-12).  test_contraction checks that
  `contraction.decide`, which checks the head and the lam = 4 row only,
  agrees with it at every probe of the density search, and that the last
  row is the only one it finds failing just past the bound.
- `feasible`: one density decided from a fresh assembly through
  `contraction.decide` and `contraction.witness`, as the `metric` command
  does; test_contraction checks table anchors with it.
- `bisect_density`: the bound by plain bisection, `contraction.decide` at
  every midpoint.  test_contraction checks that `contraction.max_density`,
  which decides only near the last row's root, returns the same bound,
  iterations, metric and slack bit for bit, also when that root is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath
import numpy as np

from harddisks import contraction, coupling
from harddisks.dynamics import Configuration, radius_for_density, random_config
from harddisks.geometry import (
    cells_per_side,
    clear_of,
    crescent_area,
    min_image_array,
    outside_zone_area,
)
from harddisks.metric import AxiomReport, PiecewiseMetric, grid_edges

# --- torus geometry, in absolute units ---------------------------------------


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


def torus_dist(p: TorusPoint, q: TorusPoint) -> float:
    """Euclidean distance of the minimal-image difference; at most sqrt(2)/2."""
    dx = min_image(p.x - q.x)
    dy = min_image(p.y - q.y)
    return math.hypot(dx, dy)


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


def shifted_grid(shift, m: int) -> np.ndarray:
    """The grid {(i/m, j/m) + shift[:, c] mod 1} of each chain c, as points of
    shape (m^2, 2, chains) ordered by i m + j."""
    i, j = np.divmod(np.arange(m * m), m)
    points = np.stack((i, j), axis=1)[:, :, None] / m + shift
    points -= points >= 1.0  # each coordinate lies in [0, 2)
    return points


def free_grid_bruteforce(X, Y, shift, m: int, two_r2: float) -> np.ndarray:
    """Per chain, the shifted grid points clear of every disk, by clear_of."""
    return clear_of(X, Y, [(p, None) for p in shifted_grid(shift, m)], two_r2).sum(axis=0)


# --- the crescent angle, in units of r ---------------------------------------


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


def outside_zone_area_every_branch(s, lam):
    """geometry.outside_zone_area with every branch evaluated on every entry.

    Both arccos, the sin and the lens run on the whole broadcast shape, the
    non-crossing entries on the in-domain placeholders s = lam = 1, and
    nested np.where calls pick each entry's branch afterwards.
    """
    cross = (np.abs(s - 2.0) < lam) & (lam < s + 2.0)
    sc, lc = np.where(cross, s, 1.0), np.where(cross, lam, 1.0)
    alpha = np.arccos(np.clip((lc * lc + sc * sc - 4.0) / (2.0 * lc * sc), -1.0, 1.0))
    beta = np.arccos(np.clip((lc * lc + 4.0 - sc * sc) / (4.0 * lc), -1.0, 1.0))
    m = np.minimum(s, 2.0)  # nested circles: the smaller disk; disjoint: nothing
    lens = np.where(cross, sc * sc * alpha + 4.0 * beta - lc * sc * np.sin(alpha),
                    np.where(lam < s + 2.0, np.pi * m * m, 0.0))
    return np.pi * s * s - lens


def outside_zone_area_mp(s: float, lam: float) -> float:
    """geometry.outside_zone_area at one point (s, lam >= 0) in 40-digit
    mpmath, rounded to a float.

    The branch is picked by comparisons at 40 digits, exact for the grids the
    tests use, and a crossing lens takes the arccos/sin formula, whose
    cosines are clamped to [-1, 1] only where the 40-digit arithmetic rounds
    past them.  About 15 us per call off the crossing branch and 120 us on it.
    """
    with mpmath.workdps(40):
        s, lam = mpmath.mpf(s), mpmath.mpf(lam)
        if lam >= s + 2:
            lens = mpmath.mpf(0)
        elif lam <= abs(s - 2):
            lens = mpmath.pi * min(s, mpmath.mpf(2)) ** 2
        else:
            alpha = mpmath.acos(max(-1, min(1, (lam * lam + s * s - 4) / (2 * lam * s))))
            beta = mpmath.acos(max(-1, min(1, (lam * lam + 4 - s * s) / (4 * lam))))
            lens = s * s * alpha + 4 * beta - lam * s * mpmath.sin(alpha)
        return float(mpmath.pi * s * s - lens)


def uniform_crescent_proposals(P, y1, ell_over_r: float, r: float, rng):
    """coupling._draw_proposals with KC independent uniform crescent points per
    chain, drawn by rejection; a drop-in with the same shapes and the same
    first two draws (the disk-0 grid shift, then j).

    z is drawn from the 2r disk around y1, restricted to the annulus at
    distance >= 2r - ell from y1 (no closer point lies outside Z(x1)), and
    redrawn while it lies in Z(x1); at least 1/pi of that annulus is crescent
    at any ell.  Every point carries the same weight, the crescent's share
    crescent_area(ell) / (pi (4 - lo^2)) of that annulus, so the weighted
    crescent mean of _batch_trials is crescent_area(ell) times the plain mean.
    """
    n, B = P.shape[1:]
    KC = coupling.KC
    two_r2 = (2.0 * r) ** 2
    lo = max(0.0, 2.0 - ell_over_r)
    shift = rng.random((2, B))
    j = rng.integers(1, n, size=(KC, B))
    x1_to_y1 = np.tile(min_image_array(y1 - P[:, 0].T), (KC, 1))  # per (k, chain)
    z = np.empty((KC * B, 2))
    pending = np.arange(KC * B)
    for _ in range(1000):
        u = rng.random((len(pending), 2))
        s = np.sqrt((lo * r) ** 2 + (two_r2 - (lo * r) ** 2) * u[:, 0])
        phi = 2.0 * math.pi * u[:, 1]
        bx, by = s * np.cos(phi), s * np.sin(phi)  # z - y1
        ax, ay = bx + x1_to_y1[pending, 0], by + x1_to_y1[pending, 1]  # z - x1
        ok = (ax * ax + ay * ay >= two_r2) & (bx * bx + by * by < two_r2)
        z[pending[ok], 0] = bx[ok]
        z[pending[ok], 1] = by[ok]
        pending = pending[~ok]
        if len(pending) == 0:
            z = z.reshape(KC, B, 2) + y1
            weight = np.full((KC, B), crescent_area(ell_over_r) / (math.pi * (4.0 - lo * lo)))
            return shift, j, z - np.floor(z), weight
    raise RuntimeError("no crescent proposal found within the rejection budget")


# --- the scalar single-disk chain --------------------------------------------


def _point(config: Configuration, i: int) -> TorusPoint:
    return TorusPoint(*config.centers[i])


def replaced(config: Configuration, i: int, xy) -> Configuration:
    """A copy of config with center i moved to xy (reduced mod 1), not validated."""
    centers = config.centers.copy()
    centers[i] = np.asarray(xy) % 1.0
    out = Configuration.__new__(Configuration)
    out.n = config.n
    out.r = config.r
    out.centers = centers
    centers.setflags(write=False)
    return out


def propose(config: Configuration, rng) -> tuple[int, TorusPoint]:
    """Uniform disk index and uniform torus position."""
    i = int(rng.integers(config.n))
    x, y = rng.random(2)
    return i, TorusPoint(x, y)


def move_allowed_bruteforce(config: Configuration, i: int, xy) -> bool:
    """O(n) check: is center i allowed to move to xy?"""
    d = min_image_array(config.centers - np.asarray(xy))
    dist2 = (d * d).sum(axis=1)
    dist2[i] = np.inf  # the moved disk's own old position never blocks
    return bool(np.all(dist2 >= (2.0 * config.r) ** 2))


def step(config: Configuration, rng) -> tuple[Configuration, bool]:
    """One move attempt; returns (next configuration, accepted)."""
    i, p = propose(config, rng)
    if move_allowed_bruteforce(config, i, (p.x, p.y)):
        return replaced(config, i, (p.x, p.y)), True
    return config, False


class ScalarCellGrid:
    """The cell grid as `dynamics.CellGrid` kept it before its column strips,
    checking and applying one proposal at a time.

    A list per cell, and the nine cell lists of the 3x3 block around each
    cell gathered into `neighbours`; `allowed` and `move` each compute the
    proposal's cell in Python.  `CellGrid.walk` reads three column strips
    instead, inlines both over a slice of proposals and takes the cells of
    the slice from numpy.
    """

    def __init__(self, config: Configuration):
        m = self.m = cells_per_side(config.r)
        self.lim = 4.0 * config.r * config.r
        self.cells: list[list[int]] = [[] for _ in range(m * m)]
        self.neighbours = [
            tuple(self.cells[((cx + dx) % m) * m + (cy + dy) % m]
                  for dx in (-1, 0, 1) for dy in (-1, 0, 1))
            for cx in range(m) for cy in range(m)
        ]
        self.xs = config.centers[:, 0].tolist()
        self.ys = config.centers[:, 1].tolist()
        self.cell_of = [self._cell(x, y) for x, y in zip(self.xs, self.ys)]
        for i, c in enumerate(self.cell_of):
            self.cells[c].append(i)

    def _cell(self, x: float, y: float) -> int:
        return (int(x * self.m) % self.m) * self.m + (int(y * self.m) % self.m)

    def allowed(self, i: int, x: float, y: float) -> bool:
        """Is center i allowed to move to (x, y)?

        Every stored and proposed coordinate must lie in [0, 1] (a stored one
        can be exactly 1.0, the float64 value of -1e-20 % 1.0), so each
        coordinate difference lies in [-1, 1] and one conditional shift by 1
        is its minimal image, equal bit for bit to `e - round(e)`.
        """
        m = self.m
        xs, ys, lim = self.xs, self.ys, self.lim
        for cell in self.neighbours[(int(x * m) % m) * m + int(y * m) % m]:
            for j in cell:
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
                    return False
        return True

    def move(self, i: int, x: float, y: float) -> None:
        c = self._cell(x, y)
        old = self.cell_of[i]
        if c != old:
            self.cells[old].remove(i)
            self.cells[c].append(i)
            self.cell_of[i] = c
        self.xs[i] = x
        self.ys[i] = y


# --- metric axioms --------------------------------------------------------------


def round_down(q: Fraction) -> float:
    """The largest float at or below the rational q, from Python's correctly
    rounded Fraction-to-float conversion, not from TwoSum."""
    x = float(q)
    return math.nextafter(x, -math.inf) if Fraction(x) > q else x


def check_axioms_looped(metric: PiecewiseMetric) -> AxiomReport:
    """`metric.check_axioms` one comparison at a time, over every pair i <= j,
    in exact rationals: each float is read as the Fraction it equals."""
    d = metric.values.tolist()
    q = [Fraction(x) for x in d]
    L = metric.L
    report = AxiomReport()
    for i in range(L):
        if not 0 <= q[i] <= 1:
            report.range_violations.append((i + 1, d[i]))
        if i + 1 < L and q[i] > q[i + 1]:
            report.monotonicity_violations.append((i + 1, d[i], d[i + 1]))
    for i in range(1, L + 1):
        for j in range(i, L + 1):
            if i + j <= L:
                if q[i + j - 1] > q[i - 1] + q[j - 1]:
                    report.subadditivity_violations.append((i, j, d[i + j - 1]))
            elif q[i - 1] + q[j - 1] < 1:
                report.subadditivity_violations.append((i, j, 1.0))
    return report


# --- distances between configurations -----------------------------------------


def hamming_metric(L: int = 1) -> PiecewiseMetric:
    """The constant metric d = 1: every disagreement counts fully."""
    return PiecewiseMetric(values=(1.0,) * L)


@dataclass(frozen=True)
class DisagreementPair:
    """Two same-radius configurations differing in at most two disk positions."""

    config_a: Configuration
    config_b: Configuration
    indices: tuple

    def __post_init__(self):
        if len(self.indices) > 2:
            raise ValueError("only pairs differing in at most 2 disks are supported")


def disagreements(config_a, config_b) -> DisagreementPair:
    """Build a DisagreementPair from two configurations with the same n and r."""
    if config_a.n != config_b.n or config_a.r != config_b.r:
        raise ValueError("configurations must share n and r")
    idx = []
    for i in range(config_a.n):
        if torus_dist(_point(config_a, i), _point(config_b, i)) > 0.0:
            idx.append(i)
    return DisagreementPair(config_a, config_b, tuple(idx))


def pair_distance(pair: DisagreementPair, metric: PiecewiseMetric) -> float:
    """Metric distance between the two configurations of a pair.

    One disagreement: d(l/r).  Two disagreements: the better of the straight
    and the crossed index pairing, so that switched disks count as identical.
    """
    a, b = pair.config_a, pair.config_b
    r = a.r
    idx = pair.indices

    def d(i, j):
        return metric.eval(torus_dist(_point(a, i), _point(b, j)) / r)

    if len(idx) == 0:
        return 0.0
    if len(idx) == 1:
        (i,) = idx
        return d(i, i)
    i, j = idx
    return min(d(i, i) + d(j, j), d(i, j) + d(j, i))


# --- the scalar coupled step --------------------------------------------------


@dataclass(frozen=True)
class CoupledPair:
    """Two configurations sharing n and r, disagreeing only at disk 0.

    The scalar coupled step reflects proposals in a local chart, valid for
    diameters below 1/2, so a pair of two or more disks needs the
    small-radius regime 8r < 1/2; a single Configuration does not.
    """

    X: Configuration
    Y: Configuration

    def __post_init__(self):
        if self.X.n != self.Y.n or self.X.r != self.Y.r:
            raise ValueError("coupled configurations must share n and r")
        if self.X.n > 1 and not 8.0 * self.X.r < 0.5:
            raise ValueError("radius too large: the coupling geometry needs 8r < 1/2")

    @property
    def ell(self) -> float:
        return torus_dist(_point(self.X, 0), _point(self.Y, 0))


@dataclass(frozen=True)
class StepOutcome:
    """Classification of one coupled step and its metric deltas."""

    kind: str
    delta_bound: float
    delta_exact: float
    s: float | None  # |z - y1| for crescent proposals, in absolute units
    X: Configuration
    Y: Configuration


def make_pair(n: int, rho: float, ell_over_r: float, seed) -> CoupledPair:
    """Equilibrated X plus a copy with disk 0 displaced by exactly ell_over_r * r.

    One chain of the estimator's pool: inserted, swept 20 n steps, displaced.
    """
    if not 0 < ell_over_r <= 4:
        raise ValueError("displacement must lie in (0, 4] (units of r)")
    rng = np.random.default_rng(seed)
    r = radius_for_density(n, rho)
    two_r2 = (2.0 * r) ** 2
    P = random_config(n, rho, rng).centers.T[:, :, None].copy()  # a pool of one chain
    coupling._batch_sweep(P, 20 * n, two_r2, rng)
    y1 = coupling._displace(P, ell_over_r * r, two_r2, rng)[0]
    X = Configuration(P[:, :, 0].T, r)
    return CoupledPair(X=X, Y=replaced(X, 0, y1))


def coupled_step(pair: CoupledPair, metric: PiecewiseMetric, rng) -> StepOutcome:
    """One step of the coupled chains: a uniform proposal, then classify_step."""
    j, z = propose(pair.X, rng)
    return classify_step(pair, metric, j, z)


def classify_step(pair: CoupledPair, metric: PiecewiseMetric, j: int, z: TorusPoint) -> StepOutcome:
    """Apply the coupling rules to one proposal (deterministic part of a step).

    Both chains propose disk j; outside the symmetric difference of the two
    danger zones they propose the same point z, and inside it Y proposes the
    mirror image of z across the bisector of x1 and y1.
    """
    X, Y = pair.X, pair.Y
    r = X.r
    two_r = 2.0 * r
    x1, y1 = _point(X, 0), _point(Y, 0)
    ell = torus_dist(x1, y1)
    d_ell = metric.eval(ell / r)
    zxy = (z.x, z.y)

    if j == 0:
        # Same proposal in both chains; the blockers coincide, so the move
        # succeeds in both (coalescence) or in neither.
        if move_allowed_bruteforce(X, 0, zxy):
            Xn = replaced(X, 0, zxy)
            return StepOutcome("coalesced", -d_ell, -d_ell, None, Xn, Xn)
        return StepOutcome("unchanged", 0.0, 0.0, None, X, Y)

    a = torus_dist(z, x1)
    b = torus_dist(z, y1)
    if a < two_r and b >= two_r:
        # Mirror crescent Z(x1)\Z(y1): z is blocked by disk 0 in X and its
        # reflection is blocked by disk 0 in Y.
        return StepOutcome("both-rejected", 0.0, 0.0, None, X, Y)
    if b >= two_r or a < two_r:
        # Either both danger zones (blocked in both) or neither (identical
        # proposal, identical outcome); the disagreement is untouched.
        ok = a >= two_r and move_allowed_bruteforce(X, j, zxy)
        if ok:
            return StepOutcome("unchanged", 0.0, 0.0, None, replaced(X, j, zxy), replaced(Y, j, zxy))
        return StepOutcome("unchanged", 0.0, 0.0, None, X, Y)

    # Danger crescent Z(y1)\Z(x1): X proposes z, Y its mirror image.
    zbar = reflect_across_bisector(z, x1, y1)
    ok_x = move_allowed_bruteforce(X, j, zxy)
    ok_y = move_allowed_bruteforce(Y, j, (zbar.x, zbar.y))
    if not ok_x and not ok_y:
        return StepOutcome("unchanged", 0.0, 0.0, None, X, Y)
    s = b
    Xn = replaced(X, j, zxy) if ok_x else X
    Yn = replaced(Y, j, (zbar.x, zbar.y)) if ok_y else Y
    if s >= ell:
        kind, bound = "far-move", 1.0
    else:
        kind, bound = "near-move", 1.0 + metric.eval(s / r) - d_ell
    exact = pair_distance(disagreements(Xn, Yn), metric) - d_ell
    return StepOutcome(kind, bound, exact, s, Xn, Yn)


# --- feasibility of the contraction constraints -------------------------------

PIVOT_TOL = 1e-9  # reduced costs, pivots and ratio ties below this count as zero


def feasible_box(A, b, ub) -> bool:
    """True iff some x with 0 <= x <= ub satisfies A x >= b.

    Phase-1 simplex: minimizes the sum of artificial variables on a dense
    tableau with Bland's anti-cycling rule; meant for small systems.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    ub = np.asarray(ub, dtype=float)
    m, n = A.shape

    # Rows: A x - s + a = b (artificials only where b > 0), and x + t = ub.
    # Starting basis: artificials / surplus on the first block, slacks on the
    # second.  Minimize the artificial sum.
    neg = b < 0
    A = A.copy()
    b = b.copy()
    A[neg] *= -1.0  # flip rows with negative rhs: -A x + s' = -b, s' >= 0
    b[neg] *= -1.0
    sign = np.where(neg, 1.0, -1.0)  # surplus sign per row after flipping

    n_rows = m + n
    n_cols = n + m + n + m  # x, surplus, box slacks, artificials
    T = np.zeros((n_rows + 1, n_cols + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.diag(sign)
    T[:m, -1] = b
    T[m : m + n, :n] = np.eye(n)
    T[m : m + n, n + m : n + m + n] = np.eye(n)
    T[m : m + n, -1] = ub
    art = n + m + n
    T[:m, art : art + m] = np.eye(m)

    basis = list(range(art, art + m)) + list(range(n + m, n + m + n))
    # Objective: minimize sum of artificials; express in terms of nonbasics.
    T[-1, :] = -T[:m, :].sum(axis=0)
    T[-1, art : art + m] = 0.0

    for _ in range(50 * n_cols):
        # Bland: entering = smallest index with negative reduced cost.
        enter = -1
        for j in range(n_cols):
            if T[-1, j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        col = T[:n_rows, enter]
        rhs = T[:n_rows, -1]
        best_ratio, leave = None, -1
        for i in range(n_rows):
            if col[i] > PIVOT_TOL:
                ratio = rhs[i] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; malformed system")
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(n_rows + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    else:
        raise RuntimeError("phase-1 simplex failed to converge")

    return -T[-1, -1] < PIVOT_TOL


def lp_feasible(system: contraction.ConstraintSystem) -> bool:
    """Raw LP feasibility of {d in [0,1]^L : contraction constraints hold}.

    Must agree with the forward-sweep threshold test (all minimal values
    <= 1) on every instance.  The simplex gets the constraints as written
    (times rho), not the unit-density form.
    """
    rho = system.rho
    A = -rho * dense_rows(system)
    np.fill_diagonal(A, rho * (system.mu + system.W))
    return feasible_box(A, rho * system.g, np.ones(system.L))


def assemble_dense(rho: float, L: int, rigorous: bool = False) -> contraction.ConstraintSystem:
    """`contraction.assemble` with w built as the full L x L array, in fixed
    blocks of 2^16 // L rows with fresh temporaries per block.

    The columns of cells that start at u >= 2 are exactly 0, and the package
    stores only the others; g, W and the live columns must match this
    bit for bit, in both row variants.  Its rows are all L wide, and its row
    sums W_i = F(lam_i, u_i)/pi are the package's closed form.
    """
    if not 0 < rho < 0.25:
        raise ValueError(f"density must lie in (0, 1/4), got {rho}")
    if L < 1:
        raise ValueError("grid size must be at least 1")
    edges = grid_edges(L)
    lam, u = edges[1:], np.minimum(edges[:-1], 2.0)
    rows_lam = edges[:-1] if rigorous else lam
    w = np.zeros((L, L))
    step = max(1, (1 << 16) // L)  # row blocks keep temporaries far below L x L
    for start in range(0, L, step):
        stop = min(start + step, L)
        F = outside_zone_area(u[None, :stop], rows_lam[start:stop, None])
        # Row i keeps cells j <= i - 1, that is j - (i - start) <= start - 1.
        w[start:stop, : stop - 1] = np.tril(np.diff(F, axis=1), start - 1)
    w /= np.pi
    return stored(rho, crescent_area(lam) / np.pi, w, outside_zone_area(u, rows_lam) / np.pi)


def solve_blocks(w: np.ndarray, rows: int) -> tuple[np.ndarray, ...]:
    """Rows [0, rows) of w cut as `ConstraintSystem.head` holds them: block b is
    rows [32b, min(32b + 32, rows)) and columns [0, min(n, 32b + 32))."""
    B = contraction.SOLVE_BLOCK
    return tuple(w[s : min(s + B, rows), : min(w.shape[1], s + B)] for s in range(0, rows, B))


def stored(rho: float, g: np.ndarray, w: np.ndarray, W: np.ndarray) -> contraction.ConstraintSystem:
    """A system in the package's layout whose savings rows are the rows of
    w (L x n, the columns past n read as 0) with row sums W, shape (L,).

    The head blocks and the last row are views of w, and the row source
    yields the requested rows of w as one block.
    """
    B = contraction.SOLVE_BLOCK
    h = min(len(w), -(-(len(w) // 2) // B) * B)  # the head in whole solve blocks

    def rows(start, stop):
        yield start, w[start:stop]

    return contraction.ConstraintSystem(L=len(w), rho=rho, g=g, W=W, head=solve_blocks(w, h),
                                        last=w[-1], rows=rows)


def dense_rows(system: contraction.ConstraintSystem) -> np.ndarray:
    """The system's savings weights zero-padded to L x L (its missing columns
    are 0): the stored head and the streamed rows [h, L)."""
    L, h = system.L, sum(map(len, system.head))
    w = np.zeros((L, L))
    for start, block in zip(range(0, h, contraction.SOLVE_BLOCK), system.head):
        w[start : start + len(block), : block.shape[1]] = block
    for start, rows in system.rows(h, L):
        w[start : start + len(rows), : rows.shape[1]] = rows
    return w


def minimal_metric(system: contraction.ConstraintSystem) -> PiecewiseMetric:
    """Pointwise-least nonnegative solution of the contraction constraints.

    The savings term of constraint i only involves d_j with j < i, so
    saturating the constraints in order gives it; any feasible metric
    dominates the result pointwise.  This is `contraction._sweep` over all L
    rows, as wide as the system stores them, with the rows past the stored
    head gathered from the row source.
    """
    w = dense_rows(system)
    full = replace(system, head=solve_blocks(w[:, : system.last.size], system.L))
    return PiecewiseMetric(values=contraction._sweep(full))


def assemble_as_written(rho: float, L: int, rigorous: bool = False) -> contraction.ConstraintSystem:
    """A drop-in `contraction.assemble` whose savings integral is not clamped at u = 2.

    w[i, j] integrates the kernel over the whole cell j < i, so the rows with
    cells past u = 2 carry savings from a region the crescent never reaches.
    The feasibility decision reads those columns only in the last row, at
    d = 1, where they cancel against W, so the bound is the same.  W is the
    same closed form F(lam_i, u_i)/pi, with u_i = 4i/L unclamped.
    """
    edges = grid_edges(L)
    rows_lam = edges[:-1] if rigorous else edges[1:]
    F = outside_zone_area(edges[None, :], rows_lam[:, None])
    w = np.tril(np.diff(F, axis=1), -1) / np.pi
    W = outside_zone_area(edges[:-1], rows_lam) / np.pi
    return stored(rho, crescent_area(edges[1:]) / np.pi, w, W)


def saturated_metric(system: contraction.ConstraintSystem) -> PiecewiseMetric:
    """Minimal sweep values on the grid up to lam = 2, then the tail pinned at 1.

    The tail values never appear in any savings term (the crescent lies
    within distance 2 of the displaced center), so raising them to 1 keeps
    every head constraint saturated.
    """
    cut = system.L // 2  # lam_i = 4i/L <= 2 exactly for the first L // 2 cells
    d = np.ones(system.L)
    d[:cut] = contraction._sweep(system)[:cut]
    return PiecewiseMetric(values=d)


def saturated_decide(system: contraction.ConstraintSystem) -> bool:
    """Feasibility on the saturated witness: it lies in [0, 1] and every row verifies."""
    sat = saturated_metric(system)
    if sat.values.max() > 1.0:
        return False
    residuals, _ = contraction.slack_report(system, sat)
    return not np.any(residuals < -1e-12)


def feasible(rho: float, L: int):
    """Decide contractivity at one density; returns (bool, metric or None).

    A feasible answer carries the verified repaired witness.
    """
    system = contraction.assemble(rho, L)
    if not contraction.decide(system):
        return False, None
    return True, contraction.witness(system)[0]


def bisect_density(L: int, rigorous: bool = False) -> contraction.BoundResult:
    """The bound by bisection of [SEARCH_LO, SEARCH_HI], with `decide` at the
    lower end and at every midpoint, and the witness at the last feasible one.

    It assembles through `contraction.assemble` as found at call time, so a
    test that swaps the assembly swaps it here too.  Its `root` is nan.
    """
    base = contraction.assemble(contraction.SEARCH_LO, L, rigorous)
    if not contraction.decide(base):
        raise RuntimeError("search bracket lower end unexpectedly infeasible")
    lo, hi, iterations = contraction.SEARCH_LO, contraction.SEARCH_HI, 0
    while hi - lo >= contraction.SEARCH_TOL / 8.0:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if contraction.decide(replace(base, rho=mid)):
            lo = mid
        else:
            hi = mid
    metric, slack, tight_lambda_max = contraction.witness(replace(base, rho=lo))
    return contraction.BoundResult(L=L, rho_star=lo, iterations=iterations, metric=metric, slack=slack,
                                   tight_lambda_max=tight_lambda_max, rigorous=rigorous)
