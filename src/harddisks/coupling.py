"""Coupled evolution of configuration pairs differing in one disk.

Both chains draw the same disk index and, outside the symmetric difference of
the two danger zones, the same proposed position; proposals inside it are
mirrored across the bisector of the disagreeing centers.  Each step is
classified and charged with two deltas: the pessimistic analysis bound
(new disagreements at d_max = 1) and the exact greedy-relabel metric change.

`coupled_step` is the scalar reference; `estimate_contraction` runs the same
classification vectorized over batches of independent chains.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    Configuration,
    batch_insert,
    move_allowed_bruteforce,
    propose,
    radius_for_density,
    random_config,
)
from .geometry import TorusPoint, min_image_array, reflect_across_bisector, torus_dist
from .metric import PiecewiseMetric, disagreements, pair_distance

OUTCOME_KINDS = ("coalesced", "unchanged", "both-rejected", "far-move", "near-move")


@dataclass(frozen=True)
class CoupledPair:
    """Two configurations sharing n and r, disagreeing only at disk 0."""

    X: Configuration
    Y: Configuration

    def __post_init__(self):
        if self.X.n != self.Y.n or self.X.r != self.Y.r:
            raise ValueError("coupled configurations must share n and r")

    @property
    def ell(self) -> float:
        return torus_dist(self.X.point(0), self.Y.point(0))


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
    centers = random_config(n, rho, rng).centers.copy()[None]
    _batch_sweep(centers, 20 * n, two_r2, rng)
    y1 = _displace(centers, ell_over_r * r, two_r2, rng)[0]
    X = Configuration(centers[0], r)
    return CoupledPair(X=X, Y=X.replace(0, y1))


def coupled_step(pair: CoupledPair, metric: PiecewiseMetric, rng) -> StepOutcome:
    """One step of the coupled chains; see module docstring for the cases."""
    j, z = propose(pair.X, rng)
    return classify_step(pair, metric, j, z)


def classify_step(pair: CoupledPair, metric: PiecewiseMetric, j: int, z: TorusPoint) -> StepOutcome:
    """Apply the coupling rules to one proposal (deterministic part of a step)."""
    X, Y = pair.X, pair.Y
    r = X.r
    two_r = 2.0 * r
    x1, y1 = X.point(0), Y.point(0)
    ell = torus_dist(x1, y1)
    d_ell = metric.eval(ell / r)
    zxy = (z.x, z.y)

    if j == 0:
        # Same proposal in both chains; the blockers coincide, so the move
        # succeeds in both (coalescence) or in neither.
        if move_allowed_bruteforce(X, 0, zxy):
            Xn = X.replace(0, zxy)
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
            return StepOutcome("unchanged", 0.0, 0.0, None, X.replace(j, zxy), Y.replace(j, zxy))
        return StepOutcome("unchanged", 0.0, 0.0, None, X, Y)

    # Danger crescent Z(y1)\Z(x1): X proposes z, Y its mirror image.
    zbar = reflect_across_bisector(z, x1, y1)
    ok_x = move_allowed_bruteforce(X, j, zxy)
    ok_y = move_allowed_bruteforce(Y, j, (zbar.x, zbar.y))
    if not ok_x and not ok_y:
        return StepOutcome("unchanged", 0.0, 0.0, None, X, Y)
    s = b
    Xn = X.replace(j, zxy) if ok_x else X
    Yn = Y.replace(j, (zbar.x, zbar.y)) if ok_y else Y
    if s >= ell:
        kind, bound = "far-move", 1.0
    else:
        kind, bound = "near-move", 1.0 + metric.eval(s / r) - d_ell
    exact = pair_distance(disagreements(Xn, Yn), metric) - d_ell
    return StepOutcome(kind, bound, exact, s, Xn, Yn)


@dataclass(frozen=True)
class ContractionEstimate:
    n: int
    rho: float
    ell_over_r: float
    trials: int
    mean_delta_bound: float
    mean_delta_exact: float
    ci99_bound: float
    ci99_exact: float
    outcome_counts: dict
    # diagnostics for tying the simulator back to the crescent geometry
    crescent_hits: int
    near_savings_sum: float

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


SWEEP_BLOCK_PAIRS = 1 << 15  # chain·disk pairs per block of _batch_sweep


def _batch_sweep(centers: np.ndarray, steps: int, two_r2: float, rng) -> None:
    """Advance every chain by `steps` single-disk moves, in place.

    Works on disk-major coordinate planes X, Y of shape (n, chains), so the
    rejection test is a minimum over contiguous rows.  The chains are split
    into blocks of max(1, SWEEP_BLOCK_PAIRS // n) chains that stay in cache
    for a whole chunk of 128 steps.  The draws are those of the (B, n, 2)
    kernel kept in the tests: per chunk, disk indices of shape (chunk, B),
    then positions of shape (chunk, B, 2); the arithmetic per chain is the
    same, so every chain ends in the same state bit for bit.
    """
    B, n, _ = centers.shape
    width = max(1, SWEEP_BLOCK_PAIRS // n)
    blocks = [
        (lo, np.ascontiguousarray(centers[lo : lo + width, :, 0].T),
         np.ascontiguousarray(centers[lo : lo + width, :, 1].T))
        for lo in range(0, B, width)
    ]
    cols = np.arange(min(width, B))
    dx = np.empty((n, len(cols)))
    dy = np.empty_like(dx)
    nearest = np.empty_like(dx)
    done = 0
    while done < steps:
        chunk = min(128, steps - done)
        j_all = rng.integers(n, size=(chunk, B))
        z_all = rng.random((chunk, B, 2))
        for lo, X, Y in blocks:
            w = X.shape[1]
            c, ex, ey, near = cols[:w], dx[:, :w], dy[:, :w], nearest[:, :w]
            for t in range(chunk):
                j = j_all[t, lo : lo + w]
                zx = z_all[t, lo : lo + w, 0]
                zy = z_all[t, lo : lo + w, 1]
                np.subtract(X, zx, out=ex)
                np.rint(ex, out=near)
                ex -= near
                np.subtract(Y, zy, out=ey)
                np.rint(ey, out=near)
                ey -= near
                ex *= ex
                ey *= ey
                ex += ey
                ex[j, c] = np.inf
                ok = (np.minimum.reduce(ex, axis=0) >= two_r2).nonzero()[0]
                X[j[ok], ok] = zx[ok]
                Y[j[ok], ok] = zy[ok]
        done += chunk
    for lo, X, Y in blocks:
        centers[lo : lo + X.shape[1], :, 0] = X.T
        centers[lo : lo + X.shape[1], :, 1] = Y.T


def _displace(centers: np.ndarray, ell_abs: float, two_r2: float, rng) -> np.ndarray:
    """A valid position at distance exactly ell_abs from disk 0, per chain.

    A chain can rarely have disk 0 caged so that no direction works at all;
    such chains are evolved further and retried, which leaves the sampled
    configuration distribution stationary.
    """
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
            _batch_sweep(sub, 2 * n, two_r2, rng)
            centers[pending] = sub
    raise RuntimeError("no valid displacement found within the retry budget")


@dataclass
class _Tally:
    """Running sums over trials; group tallies are added in group order."""

    sum_bound: float = 0.0
    sum_exact: float = 0.0
    sumsq_bound: float = 0.0
    sumsq_exact: float = 0.0
    counts: dict = field(default_factory=lambda: dict.fromkeys(OUTCOME_KINDS, 0))
    crescent_hits: int = 0
    near_savings_sum: float = 0.0
    max_gap: float = -math.inf  # largest delta_exact - delta_bound seen

    def __iadd__(self, other: "_Tally") -> "_Tally":
        self.sum_bound += other.sum_bound
        self.sum_exact += other.sum_exact
        self.sumsq_bound += other.sumsq_bound
        self.sumsq_exact += other.sumsq_exact
        for k in OUTCOME_KINDS:
            self.counts[k] += other.counts[k]
        self.crescent_hits += other.crescent_hits
        self.near_savings_sum += other.near_savings_sum
        self.max_gap = max(self.max_gap, other.max_gap)
        return self


def _batch_trials(centers, y1, metric, ell_over_r, r, rng, tally: _Tally) -> None:
    """One coupled step per chain; accumulate deltas and outcome counts."""
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

    tally.sum_bound += float(delta_bound.sum())
    tally.sum_exact += float(delta_exact.sum())
    tally.sumsq_bound += float((delta_bound * delta_bound).sum())
    tally.sumsq_exact += float((delta_exact * delta_exact).sum())
    counts = np.bincount(kinds, minlength=5)
    for k, name in enumerate(OUTCOME_KINDS):
        tally.counts[name] += int(counts[k])
    tally.max_gap = max(tally.max_gap, float((delta_exact - delta_bound).max()))


# Pool settings; a sweep is n single-disk steps.
BATCH = 4096  # chains per pool
EQUILIBRATION_SWEEPS = 30  # before the first trial
THIN_SWEEPS = 1  # between trials

# Equilibrating a pool of chains is the dominant cost and is independent of
# the displacement under study, so finished pools are memoized per (problem,
# seed group).  The generator state is snapshotted with the centers, making a
# cache hit bit-identical to recomputing from scratch.
_POOL_CACHE: dict = {}
_POOL_CACHE_MAX = 16


def _equilibrated_pool(ss, B, n, rho, two_r2):
    key = (n, rho, ss.entropy, ss.spawn_key, B)
    hit = _POOL_CACHE.get(key)
    if hit is not None:
        centers, state = hit
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        return centers.copy(), rng
    rng = np.random.default_rng(ss)
    centers = batch_insert(B, n, rho, rng)
    _batch_sweep(centers, EQUILIBRATION_SWEEPS * n, two_r2, rng)
    if len(_POOL_CACHE) >= _POOL_CACHE_MAX:
        _POOL_CACHE.pop(next(iter(_POOL_CACHE)))
    _POOL_CACHE[key] = (centers.copy(), rng.bit_generator.state)
    return centers, rng


def _run_group(n, rho, ell_over_r, metric, trials, ss) -> _Tally:
    r = radius_for_density(n, rho)
    two_r2 = (2.0 * r) ** 2
    B = min(BATCH, trials)
    tally = _Tally()
    centers, rng = _equilibrated_pool(ss, B, n, rho, two_r2)
    done = 0
    while done < trials:
        take = min(B, trials - done)
        _batch_sweep(centers, THIN_SWEEPS * n, two_r2, rng)
        y1 = _displace(centers, ell_over_r * r, two_r2, rng)
        _batch_trials(centers[:take], y1[:take], metric, ell_over_r, r, rng, tally)
        done += take
    return tally


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

    Trials are drawn from a pool of independent chains and each trial
    resamples the displaced twin and performs a single coupled step.  The
    pool settings are fixed: BATCH = 4096 chains per group, equilibrated for
    EQUILIBRATION_SWEEPS * n = 30 n steps and thinned by THIN_SWEEPS * n = n
    steps between trials.  Deterministic given the seed and independent of
    the thread count (work is split into fixed groups).  An exact metric
    change above the analysis bound raises RuntimeError.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 < ell_over_r <= 4:
        raise ValueError("displacement must lie in (0, 4] (units of r)")
    groups = 8 if trials >= 8 else 1
    per = [trials // groups] * groups
    for k in range(trials - sum(per)):
        per[k] += 1
    seeds = np.random.SeedSequence(seed).spawn(groups)

    def group(g):
        return _run_group(n, rho, ell_over_r, metric, per[g], seeds[g])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(group, range(groups)))
    else:
        tallies = [group(g) for g in range(groups)]
    total = _Tally()
    for tally in tallies:
        total += tally
    if total.max_gap > 1e-12:
        raise RuntimeError(
            f"exact metric change exceeded the analysis bound by {total.max_gap:.3g} "
            f"at rho={rho}, ell={ell_over_r} (units of r)"
        )

    N = trials
    mean_b = total.sum_bound / N
    mean_e = total.sum_exact / N
    var_b = max(0.0, total.sumsq_bound / N - mean_b * mean_b)
    var_e = max(0.0, total.sumsq_exact / N - mean_e * mean_e)
    return ContractionEstimate(
        n=n,
        rho=rho,
        ell_over_r=ell_over_r,
        trials=N,
        mean_delta_bound=mean_b,
        mean_delta_exact=mean_e,
        ci99_bound=2.576 * math.sqrt(var_b / N),
        ci99_exact=2.576 * math.sqrt(var_e / N),
        outcome_counts=total.counts,
        crescent_hits=total.crescent_hits,
        near_savings_sum=total.near_savings_sum,
    )
