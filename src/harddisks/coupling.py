"""Coupled evolution of configuration pairs differing in one disk.

Both chains draw the same disk index and, outside the symmetric difference of
the two danger zones, the same proposed position; proposals inside it are
mirrored across the bisector of the disagreeing centers.  Each step is
classified and charged with two deltas: the pessimistic analysis bound
(new disagreements at d_max = 1) and the exact greedy-relabel metric change.

`estimate_contraction` applies this classification to batches of independent
chains, stratified: only a proposal of the disagreeing disk (probability 1/n)
or one into the danger crescent Z(y1) \\ Z(x1) (probability
(n-1)/n * crescent_area(ell) r^2) can change the metric, so each
configuration weights the mean outcome of each stratum by those
probabilities.  A disk-0 proposal coalesces the pair exactly when it lies 2r
clear of disks 1..n-1, so its stratum mean is the free-area fraction, counted
on a randomly shifted m x m grid with cell side 1/m >= 2r
(geometry.free_grid_counts); the crescent stratum maps a randomly shifted
KC-point lattice onto the crescent and weights each point.
Proposal noise within one configuration, not the spread between
configurations, dominates the variance, so many cheap proposals share each
expensive configuration (two-stage sampling: Cochran, Sampling Techniques,
3rd ed., 1977, ch. 10).
The tests replay it through a scalar coupled step (tests/oracles.py).  One
estimate runs one vectorized pool of at most BATCH chains and no threads; each
chain yields successive configurations, relabelled so that each has a fresh
disk 0, and the confidence interval is computed from per-chain sums.
A pool of chains is one disk-major array P (2, n, chains) from batch_insert,
and every pool step tests proposals through one of two kernels:
geometry.clear_of, or free_grid_counts for the disk-0 grid.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import batch_insert, radius_for_density
from .geometry import (
    cells_per_side,
    clear_of,
    free_grid_counts,
    min_image_array,
)
from .metric import PiecewiseMetric

OUTCOME_KINDS = ("coalesced", "unchanged", "both-rejected", "far-move", "near-move")


@dataclass(frozen=True)
class ContractionEstimate:
    """What `couple` reports (to_json), and the configurations = ceil(trials / K0) behind it."""

    n: int
    rho: float
    ell_over_r: float
    trials: int
    mean_delta_bound: float
    mean_delta_exact: float
    ci99_bound: float
    ci99_exact: float
    outcome_counts: dict
    configurations: int

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "rho": self.rho,
            "ell_over_r": self.ell_over_r,
            "trials": self.trials,
            "mean_delta_bound": float(f"{self.mean_delta_bound:.12g}"),
            "mean_delta_exact": float(f"{self.mean_delta_exact:.12g}"),
            "ci99_bound": float(f"{self.ci99_bound:.12g}"),
            "ci99_exact": float(f"{self.ci99_exact:.12g}"),
            "outcome_counts": self.outcome_counts,
        }
        return json.dumps(payload, indent=2)


def _batch_sweep(P: np.ndarray, steps: int, two_r2: float, rng) -> None:
    """Advance every chain of the pool P by `steps` single-disk moves, in place.

    Each step moves disk j[c] of chain c to the point z[c] if that lies 2r
    clear of the chain's other disks (geometry.clear_of).  The draws are
    those of the (B, n, 2) kernel kept in the tests: per chunk of 128 steps,
    disk indices of shape (chunk, B), then positions, here one (B, 2) draw
    per step, which concatenate to that kernel's one (chunk, B, 2) draw; the
    arithmetic per chain is the same, so every chain ends in the same state
    bit for bit.
    """
    n, B = P.shape[1:]
    X, Y = P
    done = 0
    while done < steps:
        chunk = min(128, steps - done)
        for j in rng.integers(n, size=(chunk, B)):
            zx, zy = rng.random((B, 2)).T
            ok = clear_of(X, Y, [((zx, zy), j)], two_r2)[0].nonzero()[0]
            X[j[ok], ok] = zx[ok]
            Y[j[ok], ok] = zy[ok]
        done += chunk


def _relabel(P: np.ndarray, rng) -> None:
    """Swap disk 0 of each chain with its disk k, uniform on 0..n-1, in place: the hard-disk
    measure is exchangeable and _batch_sweep treats every label alike, so the pool stays stationary."""
    k = rng.integers(P.shape[1], size=P.shape[2])
    c = np.arange(P.shape[2])
    P[:, 0, c], P[:, k, c] = P[:, k, c], P[:, 0, c]


def _displace(P: np.ndarray, ell_abs: float, two_r2: float, rng) -> np.ndarray:
    """A valid position at distance exactly ell_abs from disk 0, per chain.

    Round one tests one uniform angle per chain, each later round B // pending
    per pending chain (at most B in all, gathered into Q); a chain takes its
    first valid angle, uniform on its free directions.  Once they have failed
    CAGED_AFTER angles, pending chains end each failed round with one uniform
    single-disk proposal of their caged disk 0, a move of the chain.
    """
    n, B = P.shape[1:]
    y1 = np.empty((B, 2))
    pending = cols = np.arange(B)  # cols: the chain of each candidate
    Q, tried = P[:, 1:], 0  # every chain is pending at first: no gather
    for _ in range(DISPLACE_ROUNDS):
        p = len(pending)
        phi = 2.0 * math.pi * rng.random(len(cols))
        cand = P[:, 0, cols] + ell_abs * np.array((np.cos(phi), np.sin(phi)))
        ok = clear_of(*Q, [(cand, None)], two_r2)[0].reshape(-1, p)
        first = ok.argmax(axis=0) * p + np.arange(p)  # candidate i of chain q is i p + q
        found = ok.ravel()[first]
        y1[pending[found]] = cand[:, first[found]].T
        pending, tried = pending[~found], tried + len(ok)
        if len(pending) == 0:
            y1 -= np.floor(y1)  # mod 1; numpy's % 1.0 is many times slower
            return y1
        if tried >= CAGED_AFTER:
            z = rng.random((2, len(pending)))
            moved = clear_of(*P[:, 1:, pending], [(z, None)], two_r2)[0]
            P[:, 0, pending[moved]] = z[:, moved]
        cols = np.tile(pending, B // len(pending))
        Q = P[:, 1:, cols]
    r = 0.5 * math.sqrt(two_r2)
    raise RuntimeError(f"no valid displacement found within the retry budget: {len(pending)} of "
                       f"{B} chains caged (n={n}, rho={math.pi * n * r * r:.6g}, ell={ell_abs / r:.6g})")


class _Tally:
    """Running sums over configurations, kept per chain of one pool.

    chain_bound[c] and chain_exact[c] sum the configuration values of chain c
    and chain_count[c] counts its configurations.
    """

    def __init__(self, chains: int):
        self.chain_bound = np.zeros(chains)
        self.chain_exact = np.zeros(chains)
        self.chain_count = np.zeros(chains, dtype=np.int64)
        self.counts = dict.fromkeys(OUTCOME_KINDS, 0)
        self.max_gap = -math.inf  # largest delta_exact - delta_bound seen

    def add(self, value_bound: np.ndarray, value_exact: np.ndarray) -> None:
        """Charge one configuration to each of the first len(value_bound) chains."""
        k = len(value_bound)
        self.chain_bound[:k] += value_bound
        self.chain_exact[:k] += value_exact
        self.chain_count[:k] += 1

    def ci99(self) -> tuple[float, float]:
        """99% half-widths of the mean bound and exact changes.

        The standard error comes from the per-chain sums S_c over m_c
        configurations, SE^2 = sum_c (S_c - m_c mean)^2 / N^2, so correlation
        between the configurations of one chain widens it; with one
        configuration per chain it is the i.i.d. sd^2 / N.
        """
        N = int(self.chain_count.sum())

        def half_width(sums):
            resid = sums - self.chain_count * (sums.sum() / N)
            return 2.576 * math.sqrt(float(resid @ resid)) / N

        return half_width(self.chain_bound), half_width(self.chain_exact)


def _draw_proposals(P, y1, ell_over_r: float, r: float, rng):
    """The disk-0 grid shift and KC weighted danger-crescent proposals per chain.

    Returns (shift, j, z, weight) of shapes (2, chains), (KC, chains),
    (KC, chains, 2) and (KC, chains).  shift is uniform on the unit square:
    the chain's disk-0 proposals are the m x m grid {(i/m, j/m) + shift mod 1}
    (Cranley & Patterson, SIAM J. Numer. Anal. 13, 1976).  Every grid point
    is uniform on the torus, so the mean of its indicators stays unbiased,
    but the points cover the torus evenly.  j is uniform on 1..n-1.  The
    crescent points map the Fibonacci lattice {(k/KC, (KC_G k mod KC)/KC)},
    shifted mod 1 by one more uniform point c per chain, onto the crescent
    Z(y1) \\ Z(x1): in units of r, u = (u0, u1) goes to the radius
    s = sqrt(lo^2 + (4 - lo^2) u0) about y1, lo = max(0, 2 - ell), and the
    angle theta + 2 (pi - theta) u1 from the direction y1 -> x1, where
    theta(s, ell) is the half-angle of the arc inside Z(x1).  z then has
    density 1 / ((4 - lo^2)(pi - theta)) on the crescent, so with the weight
    (pi - theta) / pi the mean of pi (4 - lo^2) weight f(z) over the points
    is unbiased for the crescent integral of f.  Offsets from x1 are taken in
    the plane: while 8r < 1 no other image of x1 comes within 2r of y1.
    """
    n, B = P.shape[1:]
    shift = rng.random((2, B))
    j = rng.integers(1, n, size=(KC, B))
    c = rng.random((2, B))
    k = np.arange(KC)[:, None]
    u = np.array((k / KC + c[0], (KC_G * k % KC) / KC + c[1]))
    u -= np.floor(u)  # mod 1
    lo2 = max(0.0, 2.0 - ell_over_r) ** 2
    s = np.sqrt(lo2 + (4.0 - lo2) * u[0])
    # 2 s ell is 0 only where u0 = 0 and ell >= 2; that point is y1 itself and gets theta = 0
    den = 2.0 * ell_over_r * s
    cos_theta = np.divide(s * s + ell_over_r**2 - 4.0, den, out=np.ones_like(s), where=den > 0)
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    phi = theta + 2.0 * (math.pi - theta) * u[1]
    ex, ey = min_image_array(P[:, 0] - y1.T) / ell_over_r  # r times the unit vector y1 -> x1
    cos_phi, sin_phi = s * np.cos(phi), s * np.sin(phi)
    z = np.stack((cos_phi * ex - sin_phi * ey, cos_phi * ey + sin_phi * ex), axis=-1) + y1
    return shift, j, z - np.floor(z), 1.0 - theta / math.pi  # z mod 1


def _classify_proposals(P, y1, metric, ell_over_r, r, shift, j, z):
    """The coupling rules of the module docstring applied to each chain's proposals.

    Takes the draws of _draw_proposals and returns (free, kind, bound, exact,
    d_ell): of shape (chains,), how many of the m^2 disk-0 grid points coalesce
    the pair (m = _grid_side(r)); of shape (KC, chains), for disk j moving to the
    crescent point z, its outcome (an index into OUTCOME_KINDS: unchanged,
    far-move or near-move) and its two metric changes; and d(ell), all from one lookup.
    """
    two_r2 = (2.0 * r) ** 2
    ell_abs = ell_over_r * r

    def dist(p, q):
        d = min_image_array(p - q)
        return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])

    # j != 0: X proposes z, Y its mirror image across the bisector of x1, y1.
    x1 = P[:, 0].T
    u = min_image_array(y1 - x1)
    mid = x1 + 0.5 * u
    u /= ell_abs
    w = min_image_array(z - mid)
    zbar = mid + w - 2.0 * (w * u).sum(axis=-1, keepdims=True) * u
    zbar -= np.floor(zbar)  # mod 1

    # j = 0: both chains propose each grid point against the same blockers.
    free = free_grid_counts(*P[:, 1:], shift, _grid_side(r), two_r2)

    # Disk 0 blocks neither crescent proposal: z lies outside Z(x1), so its
    # mirror image lies outside Z(y1); the mirror image is still checked
    # against y1.
    proposals = [(p.T, jk - 1) for p, jk in zip(z, j)] + [(p.T, jk - 1) for p, jk in zip(zbar, j)]
    clear = clear_of(*P[:, 1:], proposals, two_r2)
    okx, oky = clear[:KC], clear[KC:]
    oky &= clear_of(*y1.T[:, None], [(p.T, None) for p in zbar], two_r2)
    succ = okx | oky

    # Exact change: the cheaper of keeping and swapping the labels of the two
    # disagreeing pairs (x1, y1) and (x_j', y_j').
    xj = np.moveaxis(P[:, j, np.arange(j.shape[1])], 0, -1)  # disk j of each chain
    xj_new = np.where(okx[..., None], z, xj)
    yj_new = np.where(oky[..., None], zbar, xj)
    s = dist(z, y1)
    lengths = np.stack((s, dist(xj_new, yj_new), dist(xj_new, y1), dist(x1, yj_new))) / r
    d = metric.eval_array(np.concatenate(([ell_over_r], lengths.ravel())))
    d_ell, (d_s, d_straight, d_xy, d_yx) = d[0], d[1:].reshape(lengths.shape)

    near = s < ell_abs
    kind = np.where(succ, np.where(near, 4, 3), 1)
    bound = np.where(near, 1.0 + d_s - d_ell, 1.0)
    bound[~succ] = 0.0
    exact = np.where(succ, np.minimum(d_ell + d_straight, d_xy + d_yx) - d_ell, 0.0)
    return free, kind, bound, exact, d_ell


def _batch_trials(P, y1, metric, ell_over_r, r, rng, tally: _Tally) -> None:
    """The stratified one-step change of each chain's configuration; charge it
    to the tally with the outcome counts of its proposals and the largest
    excess of an exact change over its bound.

    Only two strata of proposals change the metric: disk 0 (probability 1/n)
    and the danger crescent (probability (n-1)/n * crescent_area(ell) r^2).
    Each chain classifies the m^2 points of a shifted grid from the first and
    KC weighted lattice points from the second (see _draw_proposals), and its
    configuration is charged (1/n) mean(c0) + ((n-1)/n) pi (4 - lo^2) r^2
    mean(weight c_cres), lo = max(0, 2 - ell), for the bound and the exact
    change alike; every other proposal contributes exactly 0.  A coalescing
    disk-0 proposal changes the metric by -d(ell) and any other by 0, so
    mean(c0) = -d(ell) free / m^2.
    """
    n = P.shape[1]
    shift, j, z, weight = _draw_proposals(P, y1, ell_over_r, r, rng)
    free, kind, bound, exact, d_ell = _classify_proposals(P, y1, metric, ell_over_r, r, shift, j, z)
    grid = _grid_side(r) ** 2
    area = math.pi * (4.0 - max(0.0, 2.0 - ell_over_r) ** 2)  # the annulus z is mapped into
    w_cres = (n - 1) / n * area * r * r
    base = (-d_ell / n) * (free / grid)
    value_bound = base + w_cres * (weight * bound).mean(axis=0)
    value_exact = base + w_cres * (weight * exact).mean(axis=0)

    tally.add(value_bound, value_exact)
    counts = np.bincount(kind.ravel(), minlength=5)  # crescent proposals
    coalesced = int(free.sum())  # disk-0 proposals coalesce or change nothing
    counts[0] += coalesced
    counts[1] += grid * len(free) - coalesced
    for k, name in enumerate(OUTCOME_KINDS):
        tally.counts[name] += int(counts[k])
    tally.max_gap = max(tally.max_gap, float((exact - bound).max()))


# Pool settings; a sweep is n single-disk steps.
# Chains per pool.  A scan of 256, 512 and 1024 on the couple_cold and ell_sweep
# workloads (README, `couple`) put 512 within 4 % of the lowest ci99^2 x CPU
# time on both; 256 lost 11 % on ell_sweep and 1024 lost 30 % on couple_cold.
BATCH = 512
# Sweeps before the first configuration.  Over 20 seeds at 1, 3, 5 and 30
# sweeps (tests/pool_diagnostics.py equilibration, README) every mean lay
# within the joint ci99 of the 30-sweep mean at ell = 1 and 4; the largest
# gap was 27e-6 against a joint half-width of 59e-6.
EQUILIBRATION_SWEEPS = 5
# Sweeps between configurations, each followed by _relabel: of 1, 1/2 and 1/4, 1/2 and 1/4 had
# the lowest ell_sweep ci99^2 x CPU time, 1/2 the lower autocorrelation (README, `couple`).
THIN_SWEEPS = 0.5
DISPLACE_ROUNDS, CAGED_AFTER = 200, 20  # _displace's retry budget; failed angles of a caged disk 0
# Trials per configuration: estimate_contraction runs ceil(trials / K0)
# configurations, and each classifies the m^2 disk-0 grid points and the KC
# crescent points of the Fibonacci lattice (KC, KC_G).  K0 = 32 keeps the
# configuration count of the independent-proposal scan that first set K0
# and KC (README, `couple`); KC = 5 had the lowest ell_sweep ci99^2 x CPU
# time of the lattices with KC in {5, 8, 13} (README, `couple`).
K0 = 32
KC, KC_G = 5, 2
# Largest side of the disk-0 grid.  The grid costs m^2 per configuration in
# memory and counting, and m = cells_per_side(r) grows as 1/r (1,253 at n = 2,
# rho = 1e-6); at m = 13 (n 32, rho 0.14) its noise is already a quarter of
# the crescent noise (README, `couple`).
DISK0_GRID_MAX = 32


def _grid_side(r: float) -> int:
    """m of the disk-0 grid: cell side 1/m >= 2r, at most DISK0_GRID_MAX."""
    return min(cells_per_side(r), DISK0_GRID_MAX)


# Equilibrating a pool of chains is the dominant cost and is independent of
# the displacement under study, so the last 16 pools are memoized.
@functools.lru_cache(maxsize=16)
def _cold_pool(n, rho, B, sweeps, entropy):
    """A read-only pool of B chains equilibrated for sweeps * n steps from
    SeedSequence(entropy), and the generator that ran after it."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    P = batch_insert(B, n, rho, rng)
    _batch_sweep(P, sweeps * n, (2.0 * radius_for_density(n, rho)) ** 2, rng)
    P.flags.writeable = False
    return P, rng


def estimate_contraction(
    n: int,
    rho: float,
    ell_over_r: float,
    metric: PiecewiseMetric,
    trials: int,
    seed,
    threads: int = 1,
) -> ContractionEstimate:
    """Monte Carlo estimate of the one-step expected metric change.

    The estimate runs N = ceil(trials / K0) configurations, each an
    equilibrated configuration from one pool of B = min(BATCH, N)
    independent chains with a freshly displaced twin.  Each configuration is
    charged the stratified one-step change: the exact-weight combination
    (1/n) mean(c0) + ((n-1)/n) crescent_area(ell) r^2 mean(c_cres) over the
    m^2 disk-0 proposals of a randomly shifted grid, m = _grid_side(r),
    whose points are each uniform on the torus, and KC danger-crescent
    points of a randomly shifted lattice, each weighted by the inverse of
    its density (see _draw_proposals and _batch_trials), so its mean is the
    expected change of a uniform coupled step.  The pool is equilibrated
    for EQUILIBRATION_SWEEPS * n steps and then runs rounds of thinning by
    ceil(THIN_SWEEPS * n) steps, relabelling (_relabel), displacement and
    trials until N configurations are charged; the last round uses only the
    chains it needs, so every chain yields floor(N / B) or ceil(N / B)
    successive configurations.  The 99% CI is 2.576 SE with SE^2 =
    sum_c (S_c - m_c mean)^2 / N^2 over the per-chain sums S_c of m_c
    configurations (see _Tally.ci99); it widens when a chain's configurations
    are correlated.  outcome_counts partitions the (m^2 + KC) N proposals;
    "both-rejected" stays 0, as the mirror crescent is never drawn.
    Deterministic given the seed.  The last 16 equilibrated pools are
    memoized (_cold_pool) on n, rho, B, EQUILIBRATION_SWEEPS and the seed's
    SeedSequence entropy, so calls that differ only in ell or the metric, as
    in the ell_sweep workload, build one pool; each call runs on copies of
    the pool and of its generator, so a hit is bit-identical to a cold build,
    and _cold_pool.cache_clear() forces one.  `threads` (>= 1) is accepted for the
    callers that pass a worker bound, but the pool is vectorized and starts
    no threads, so the result never depends on it.  Needs n >= 2,
    0 < rho < 1/4 and 8r < 1, where the crescent's planar area is its area
    on the torus (ValueError otherwise).  An exact metric change above the
    analysis bound, or a disk 0 caged past DISPLACE_ROUNDS, raises RuntimeError.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if not 0 < ell_over_r <= 4:
        raise ValueError("displacement must lie in (0, 4] (units of r)")
    if n < 2:
        raise ValueError("a coupled pair needs n >= 2 disks")
    if not 0 < rho < 0.25:
        raise ValueError(f"density must lie in (0, 1/4), got {rho}")
    r = radius_for_density(n, rho)
    if 8.0 * r >= 1.0:
        raise ValueError(
            f"8r = {8.0 * r:.3g} at n={n}, rho={rho}; the coupled estimate needs 8r < 1"
        )
    two_r2 = (2.0 * r) ** 2
    configs = -(-trials // K0)
    B = min(BATCH, configs)
    entropy = np.random.SeedSequence(seed).entropy  # hashable key: an int, or a tuple of ints
    if not isinstance(entropy, int):
        entropy = tuple(int(x) for x in np.ravel(entropy))
    P, rng = _cold_pool(n, rho, B, EQUILIBRATION_SWEEPS, entropy)
    P, rng = P.copy(), copy.deepcopy(rng)
    tally = _Tally(B)
    done = 0
    while done < configs:
        # the last round thins only the chains it uses
        pool = P[:, :, : min(B, configs - done)]
        _batch_sweep(pool, math.ceil(THIN_SWEEPS * n), two_r2, rng)
        _relabel(pool, rng)
        y1 = _displace(pool, ell_over_r * r, two_r2, rng)
        _batch_trials(pool, y1, metric, ell_over_r, r, rng, tally)
        done += pool.shape[2]
    if tally.max_gap > 1e-12:
        raise RuntimeError(
            f"exact metric change exceeded the analysis bound by {tally.max_gap:.3g} "
            f"at rho={rho}, ell={ell_over_r} (units of r)"
        )

    ci_b, ci_e = tally.ci99()
    return ContractionEstimate(
        n=n,
        rho=rho,
        ell_over_r=ell_over_r,
        trials=trials,
        mean_delta_bound=float(tally.chain_bound.sum()) / configs,
        mean_delta_exact=float(tally.chain_exact.sum()) / configs,
        ci99_bound=ci_b,
        ci99_exact=ci_e,
        outcome_counts=tally.counts,
        configurations=configs,
    )
