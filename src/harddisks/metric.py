"""The piecewise-constant coupling metric d(l) and distances between configurations.

A metric is stored as L constant values on equal subintervals of [0, 4]
(lengths in units of r), with d(0) = 0 and d identically 1 beyond 4.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import crescent_area, torus_dist


@dataclass(frozen=True)
class PiecewiseMetric:
    """d(lam) = values[i-1] for lam in ((i-1)*4/L, i*4/L]; 1 beyond 4; 0 at 0."""

    values: tuple
    rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("metric needs at least one subinterval")

    @property
    def L(self) -> int:
        return len(self.values)

    @property
    def grid(self) -> np.ndarray:
        """Right endpoints lam_i = 4i/L."""
        L = self.L
        return 4.0 * np.arange(1, L + 1) / L

    def eval(self, lam: float) -> float:
        if lam < 0:
            raise ValueError("displacement length must be nonnegative")
        if lam == 0.0:
            return 0.0
        if lam > 4.0:
            return 1.0
        i = max(1, math.ceil(lam * self.L / 4.0 - 1e-12))
        return self.values[min(i, self.L) - 1]

    def eval_array(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < 0):
            raise ValueError("displacement length must be nonnegative")
        idx = np.ceil(lam * self.L / 4.0 - 1e-12).astype(int)
        idx = np.clip(idx, 1, self.L)
        out = np.asarray(self.values)[idx - 1]
        out = np.where(lam == 0.0, 0.0, out)
        return np.where(lam > 4.0, 1.0, out)


def hamming_metric(L: int = 1) -> PiecewiseMetric:
    """The constant metric d = 1: every disagreement counts fully."""
    return PiecewiseMetric(values=(1.0,) * L)


def analytic_small_ell(lam: float, rho: float) -> float:
    """Closed-form optimal metric on [0, 1]: rho/(pi(1-4rho)) * crescent_area(lam).

    Valid because proposals within distance 1 of the disagreeing centers are
    always blocked in both chains, so no relabeling savings exist there.
    """
    if not 0 <= lam <= 1:
        raise ValueError("analytic form only holds for lam in [0, 1]")
    if not 0 < rho < 0.25:
        raise ValueError("density must lie in (0, 1/4)")
    return rho / (math.pi * (1.0 - 4.0 * rho)) * crescent_area(lam)


@dataclass
class AxiomReport:
    """Result of checking the metric axioms on the grid."""

    monotonicity_violations: list = field(default_factory=list)
    subadditivity_violations: list = field(default_factory=list)
    range_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (
            self.monotonicity_violations
            or self.subadditivity_violations
            or self.range_violations
        )


def check_axioms(metric: PiecewiseMetric, tol: float = 1e-12) -> AxiomReport:
    """Check monotonicity, grid subadditivity, and the [0, 1] range.

    Subadditivity is checked on the grid (d_{i+j} <= d_i + d_j for i+j <= L)
    and against the tail: d_i + d_j >= 1 whenever lam_i + lam_j > 4, so the
    extension with d = 1 beyond the grid stays a valid edge-length system.
    """
    d = metric.values
    L = metric.L
    report = AxiomReport()
    for i in range(L):
        if not -tol <= d[i] <= 1.0 + tol:
            report.range_violations.append((i + 1, d[i]))
        if i + 1 < L and d[i] > d[i + 1] + tol:
            report.monotonicity_violations.append((i + 1, d[i], d[i + 1]))
    for i in range(1, L + 1):
        for j in range(i, L + 1):
            if i + j <= L:
                if d[i + j - 1] > d[i - 1] + d[j - 1] + tol:
                    report.subadditivity_violations.append((i, j, d[i + j - 1]))
            elif d[i - 1] + d[j - 1] < 1.0 - tol:
                report.subadditivity_violations.append((i, j, 1.0))
    return report


@dataclass(frozen=True)
class DisagreementPair:
    """Two same-radius configurations differing in at most two disk positions."""

    config_a: "Configuration"
    config_b: "Configuration"
    indices: tuple

    def __post_init__(self):
        if len(self.indices) > 2:
            raise ValueError("only pairs differing in at most 2 disks are supported")


def disagreements(config_a, config_b, atol: float = 0.0) -> DisagreementPair:
    """Build a DisagreementPair from two configurations with the same n and r."""
    if config_a.n != config_b.n or config_a.r != config_b.r:
        raise ValueError("configurations must share n and r")
    idx = []
    for i in range(config_a.n):
        if torus_dist(config_a.point(i), config_b.point(i)) > atol:
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
    if len(idx) == 0:
        return 0.0
    if len(idx) == 1:
        (i,) = idx
        return metric.eval(torus_dist(a.point(i), b.point(i)) / r)
    i, j = idx
    straight = metric.eval(torus_dist(a.point(i), b.point(i)) / r) + metric.eval(
        torus_dist(a.point(j), b.point(j)) / r
    )
    crossed = metric.eval(torus_dist(a.point(i), b.point(j)) / r) + metric.eval(
        torus_dist(a.point(j), b.point(i)) / r
    )
    return min(straight, crossed)


def to_csv(metric: PiecewiseMetric, path) -> None:
    """Write `lambda_right,d` rows at lam_i = 4i/L; the d = 1 tail is implicit."""
    with open(path, "w") as fh:
        fh.write("lambda_right,d\n")
        for lam, v in zip(metric.grid, metric.values):
            fh.write(f"{lam:.12g},{v:.12g}\n")


def from_csv(path) -> PiecewiseMetric:
    """Read a `lambda_right,d` CSV; a row off the grid lam_k = 4k/L is an error."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "lambda_right,d":
            raise ValueError(f"unexpected metric CSV header: {header!r}")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    L = len(rows)
    for k, (lam, _) in enumerate(rows, start=1):
        if abs(lam - 4.0 * k / L) > 1e-9:
            raise ValueError(f"metric CSV row {k}: lambda_right {lam:.12g}, expected 4*{k}/{L}")
    return PiecewiseMetric(values=tuple(v for _, v in rows))


def to_json(metric: PiecewiseMetric) -> str:
    payload = {"L": metric.L, "rho": metric.rho, "values": list(metric.values)}
    return json.dumps(payload)


def from_json(text: str) -> PiecewiseMetric:
    payload = json.loads(text)
    m = PiecewiseMetric(values=tuple(payload["values"]), rho=payload.get("rho"))
    if payload.get("L") not in (None, m.L):
        raise ValueError("metric JSON: L field disagrees with values length")
    return m
