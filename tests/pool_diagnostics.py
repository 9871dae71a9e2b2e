"""Diagnostics behind the chain-pool constants of harddisks.coupling.

    PYTHONPATH=src python tests/pool_diagnostics.py burn-in
    PYTHONPATH=src python tests/pool_diagnostics.py correlation --seeds 1,2,3 --trials 2000000
    PYTHONPATH=src python tests/pool_diagnostics.py calibration --seeds 1-20
    PYTHONPATH=src python tests/pool_diagnostics.py calibration --seeds 1-20 --trials 2000000
    PYTHONPATH=src python tests/pool_diagnostics.py equilibration --seeds 1-20 --sweeps 1,3,5,30
    PYTHONPATH=src python tests/pool_diagnostics.py variance --ell 1
    PYTHONPATH=src python tests/pool_diagnostics.py thinning --seeds 1-10

burn-in        From the random-sequential-insertion start of dynamics.batch_insert,
               the acceptance rate of each sweep and the total-variation distance
               of the nearest-neighbour histogram from that of a long-run pool;
               it justifies EQUILIBRATION_SWEEPS.
correlation    At the `couple` settings, the ratio of the per-chain (cluster) SE
               that estimate_contraction reports to the i.i.d. SE of the same
               configuration values, and the lag autocorrelations of a chain's
               successive configuration values at THIN_SWEEPS (and relabelling).  A chain yields
               more than one configuration only past BATCH * K0 trials.
calibration    The spread of the means over seeds divided by the mean reported
               SE, per displacement; a calibrated CI gives about 1 (null with a
               single seed).  At the default trials each chain yields about 6
               configurations, at --trials 2000000 about 120.
equilibration  The estimator's mean over the seeds and the 99% half-width of that
               mean, per displacement, with EQUILIBRATION_SWEEPS set to each of
               --sweeps (default 1, 3, 5, 30), and whether each differs from the
               mean at the largest count, the reference, by more than the joint
               half-width.  Sweep count s runs the seeds 1000 s + seed, so the
               sets are independent.
variance       The variance of one configuration value split: the disk-0 grid
               noise and the weighted crescent noise within a configuration
               (over --repeats proposal draws per displacement), and the
               spread between configurations, itself split into the
               configuration part and the displacement-direction part (over
               --directions displacements of each of --rounds * BATCH
               configurations).
thinning       Per seed and per thinning length in sweeps (--sweeps, default 1,
               1/2 and 1/4, interleaved), with relabelling: the CPU time of
               estimate_contraction at every --ells on one pool (the ell_sweep
               settings, 2 * 10^5 trials each, cold pool included), the mean
               ci99^2 over the displacements, their product and the mean lag-1
               autocorrelation of a chain's successive configuration values.
               It is the scan behind THIN_SWEEPS.

Settings: n = 32, rho = 0.14, 10^5 trials (--trials; ceil(trials / K0)
configurations), the L = 256 witness metric.  Not collected by pytest; every
command prints JSON lines.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

import numpy as np

from harddisks import coupling, dynamics
from harddisks.contraction import max_density

N, RHO, TRIALS = 32, 0.14, 100_000
NN_EDGES = np.concatenate([np.linspace(2.0, 4.0, 17), [np.inf]])  # units of r


def nn_histogram(P: np.ndarray, r: float) -> np.ndarray:
    """Share of disks whose nearest neighbour lies in each NN_EDGES bin, over
    the pool P of shape (2, n, chains)."""
    d = P[:, :, None, :] - P[:, None, :, :]
    d -= np.rint(d)
    d2 = (d * d).sum(axis=0)
    idx = np.arange(P.shape[1])
    d2[idx, idx] = np.inf
    nn = np.sqrt(d2.min(axis=1)).ravel() / r
    return np.histogram(nn, bins=NN_EDGES)[0] / nn.size


def burn_in(args) -> None:
    r = dynamics.radius_for_density(N, RHO)
    two_r2 = (2.0 * r) ** 2
    B = coupling.BATCH
    rng = np.random.default_rng(args.seed)
    reference = dynamics.batch_insert(B, N, RHO, rng)
    coupling._batch_sweep(reference, args.reference_sweeps * N, two_r2, rng)
    ref_hist = nn_histogram(reference, r)
    # a second long-run pool gives the sampling noise of the distance
    other = dynamics.batch_insert(B, N, RHO, rng)
    coupling._batch_sweep(other, args.reference_sweeps * N, two_r2, rng)
    floor = 0.5 * np.abs(nn_histogram(other, r) - ref_hist).sum()
    print(json.dumps({"reference_sweeps": args.reference_sweeps, "chains": B,
                      "tv_noise_floor": round(float(floor), 5)}))
    P = dynamics.batch_insert(B, N, RHO, rng)
    for sweep in range(args.sweeps + 1):
        if sweep:
            moved = 0
            for _ in range(N):
                before = P.copy()
                coupling._batch_sweep(P, 1, two_r2, rng)
                moved += int((P != before).any(axis=(0, 1)).sum())
            acceptance = moved / (N * B)
        else:
            acceptance = None
        hist = nn_histogram(P, r)
        print(json.dumps({
            "sweep": sweep, "acceptance": acceptance,
            "tv_to_reference": round(float(0.5 * np.abs(hist - ref_hist).sum()), 5),
            "contact_share": round(float(hist[0]), 5),  # NN within 2.125 r
        }))


def witness():
    return max_density(256).metric


def recorded_estimate(metric, ell: float, seed: int, trials: int):
    """estimate_contraction plus every batch of configuration values of its pool."""
    batches: list[np.ndarray] = []
    add = coupling._Tally.add

    def recording(tally, value_bound, value_exact):
        batches.append(value_bound.copy())
        add(tally, value_bound, value_exact)

    coupling._Tally.add = recording
    try:
        est = coupling.estimate_contraction(N, RHO, ell, metric, trials, seed=seed)
    finally:
        coupling._Tally.add = add
    return est, batches


def lag_autocorrelation(batches, lag: int):
    """The lag correlation of each chain's successive configuration values.

    Batch t holds chains 0..len-1 in order, so chain c pairs its values in
    batches t and t + lag while both batches reach it.  None when no chain has
    two configurations lag apart.
    """
    v = np.concatenate(batches)
    mean, pairs, num = v.mean(), 0, 0.0
    for a, b in zip(batches, batches[lag:]):
        k = min(len(a), len(b))
        pairs += k
        num += float(((a[:k] - mean) * (b[:k] - mean)).sum())
    return round((num / pairs) / float(((v - mean) ** 2).mean()), 5) if pairs else None


def correlation(args) -> None:
    metric = witness()
    for seed in args.seeds:
        est, batches = recorded_estimate(metric, args.ell, seed, args.trials)
        v = np.concatenate(batches)
        iid = 2.576 * v.std() / math.sqrt(v.size)
        print(json.dumps({
            "seed": seed, "ell": args.ell, "trials": args.trials,
            "configurations": est.configurations, "thin_sweeps": coupling.THIN_SWEEPS,
            "configs_per_chain": round(v.size / len(batches[0]), 2),
            "ci99_per_chain": est.ci99_bound, "ci99_iid": iid,
            "ratio": round(est.ci99_bound / iid, 4),
            "lag_autocorrelation": {lag: lag_autocorrelation(batches, lag) for lag in (1, 2, 3)},
        }))


def calibration(args) -> None:
    metric = witness()
    rows = {ell: [] for ell in args.ells}
    for seed in args.seeds:
        for ell in args.ells:
            est = coupling.estimate_contraction(N, RHO, ell, metric, args.trials, seed=seed)
            rows[ell].append(est)
            print(json.dumps({"seed": seed, "ell": ell, "mean_delta_bound": est.mean_delta_bound,
                              "ci99_bound": est.ci99_bound, "mean_delta_exact": est.mean_delta_exact,
                              "ci99_exact": est.ci99_exact}), flush=True)
    for ell, ests in rows.items():
        out = {"ell": ell, "seeds": len(ests)}
        for kind in ("bound", "exact"):
            means = [getattr(e, f"mean_delta_{kind}") for e in ests]
            se = statistics.fmean(getattr(e, f"ci99_{kind}") / 2.576 for e in ests)
            out[f"mean_{kind}"] = statistics.fmean(means)
            out[f"spread_over_se_{kind}"] = (round(statistics.stdev(means) / se, 4)
                                             if len(means) > 1 else None)
        print(json.dumps(out))


def equilibration(args) -> None:
    metric = witness()
    default = coupling.EQUILIBRATION_SWEEPS
    reference = max(args.sweeps)
    runs = {}
    try:
        for sweeps in args.sweeps:
            coupling.EQUILIBRATION_SWEEPS = sweeps
            for seed in args.seeds:
                for ell in args.ells:
                    runs.setdefault((sweeps, ell), []).append(coupling.estimate_contraction(
                        N, RHO, ell, metric, TRIALS, seed=1000 * sweeps + seed))
    finally:
        coupling.EQUILIBRATION_SWEEPS = default

    def pooled(ests, kind):
        # the seeds are independent, so the half-widths add in quadrature
        return (statistics.fmean(getattr(e, f"mean_delta_{kind}") for e in ests),
                math.hypot(*(getattr(e, f"ci99_{kind}") for e in ests)) / len(ests))

    for (sweeps, ell), ests in runs.items():
        out = {"sweeps": sweeps, "ell": ell, "seeds": len(ests)}
        for kind in ("bound", "exact"):
            mean, ci = pooled(ests, kind)
            ref_mean, ref_ci = pooled(runs[reference, ell], kind)
            out[f"mean_{kind}"] = mean
            out[f"ci99_{kind}"] = ci
            out[f"diff_to_{reference}_{kind}"] = mean - ref_mean
            out[f"within_joint_ci_{kind}"] = abs(mean - ref_mean) < math.hypot(ci, ref_ci)
        print(json.dumps(out))


def variance(args) -> None:
    metric = witness()
    r = dynamics.radius_for_density(N, RHO)
    two_r2 = (2.0 * r) ** 2
    rng = np.random.default_rng(args.seed)
    P = dynamics.batch_insert(coupling.BATCH, N, RHO, rng)
    coupling._batch_sweep(P, coupling.EQUILIBRATION_SWEEPS * N, two_r2, rng)
    w_disk0 = -metric.eval(args.ell) / (N * coupling._grid_side(r) ** 2)
    # a crescent point of weight omega stands for pi (4 - lo^2) omega of the crescent (units of r^2)
    w_cres = (N - 1) / N * math.pi * (4.0 - max(0.0, 2.0 - args.ell) ** 2) * r * r
    disk0, cres = [], []  # per round, (directions, repeats, chains)
    for _ in range(args.rounds):
        coupling._batch_sweep(P, math.ceil(coupling.THIN_SWEEPS * N), two_r2, rng)
        coupling._relabel(P, rng)
        D, C = [], []
        for _ in range(args.directions):
            Q = P.copy()  # _displace moves a caged disk 0; each direction starts from P
            y1 = coupling._displace(Q, args.ell * r, two_r2, rng)
            draws = [coupling._draw_proposals(Q, y1, args.ell, r, rng) for _ in range(args.repeats)]
            parts = [coupling._classify_proposals(Q, y1, metric, args.ell, r, *d[:3]) for d in draws]
            D.append([w_disk0 * free for free, *_ in parts])
            C.append([w_cres * (d[3] * bound).mean(axis=0) for d, (_, _, bound, *_) in zip(draws, parts)])
        disk0.append(np.array(D))
        cres.append(np.array(C))
    D, C = np.concatenate(disk0, axis=2), np.concatenate(cres, axis=2)
    V = D + C
    R, K = args.repeats, args.directions
    within = V.var(axis=1, ddof=1).mean()
    # nested components: the spread of the per-direction means of one
    # configuration, and of the configuration means, each less the noise of
    # the level below it
    direction = V.mean(axis=1).var(axis=0, ddof=1).mean() - within / R if K > 1 else None
    configuration = V.mean(axis=(0, 1)).var(ddof=1) - within / (K * R)
    if K > 1:
        configuration -= direction / K
    between = configuration + (direction or 0.0)
    print(json.dumps({
        "ell": args.ell, "configurations": V.shape[2], "directions": K, "repeats": R,
        "disk0_noise": float(D.var(axis=1, ddof=1).mean()),
        "crescent_noise": float(C.var(axis=1, ddof=1).mean()),
        "between_configurations": float(between),
        "configuration": float(configuration) if K > 1 else None,
        "displacement_direction": None if direction is None else float(direction),
        "total": float(within + between),
    }))


def thinning(args) -> None:
    metric = witness()
    default = coupling.THIN_SWEEPS
    try:
        for seed in args.seeds:  # the lengths interleave, so host drift hits each alike
            for sweeps in args.sweeps:
                coupling.THIN_SWEEPS = sweeps
                coupling._cold_pool.cache_clear()  # the CPU time includes a cold pool
                start = time.process_time()
                runs = [recorded_estimate(metric, ell, seed, args.trials) for ell in args.ells]
                cpu = time.process_time() - start
                ci2 = statistics.fmean(est.ci99_bound ** 2 for est, _ in runs)
                lag1 = [lag_autocorrelation(batches, 1) for _, batches in runs]
                print(json.dumps({
                    "thin_sweeps": sweeps, "seed": seed, "cpu_s": round(cpu, 4),
                    "mean_ci99_sq": ci2, "ci99_sq_x_cpu_s": ci2 * cpu,
                    "lag1_autocorrelation": None if None in lag1 else round(statistics.fmean(lag1), 5),
                }), flush=True)
    finally:
        coupling.THIN_SWEEPS = default


def ints(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("burn-in")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sweeps", type=int, default=40)
    p.add_argument("--reference-sweeps", type=int, default=300)
    p.set_defaults(run=burn_in)
    p = sub.add_parser("correlation")
    p.add_argument("--seeds", type=ints, default=[1, 2, 3])
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=TRIALS)
    p.set_defaults(run=correlation)
    p = sub.add_parser("calibration")
    p.add_argument("--seeds", type=ints, default=list(range(1, 21)))
    p.add_argument("--ells", type=floats, default=[1.0, 4.0])
    p.add_argument("--trials", type=int, default=TRIALS)
    p.set_defaults(run=calibration)
    p = sub.add_parser("equilibration")
    p.add_argument("--seeds", type=ints, default=list(range(1, 21)))
    p.add_argument("--ells", type=floats, default=[1.0, 4.0])
    p.add_argument("--sweeps", type=ints, default=[1, 3, 5, 30])
    p.set_defaults(run=equilibration)
    p = sub.add_parser("variance")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--repeats", type=int, default=50)
    p.add_argument("--directions", type=int, default=4)
    p.set_defaults(run=variance)
    p = sub.add_parser("thinning")
    p.add_argument("--seeds", type=ints, default=list(range(1, 11)))
    p.add_argument("--ells", type=floats, default=[0.5, 1.0, 2.0, 3.0, 4.0])
    p.add_argument("--sweeps", type=floats, default=[1.0, 0.5, 0.25])
    p.add_argument("--trials", type=int, default=200_000)
    p.set_defaults(run=thinning)
    args = parser.parse_args(argv)
    args.run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
