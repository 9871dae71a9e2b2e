"""The piecewise-constant coupling metric d(l): evaluation, axioms and its CSV format.

A metric is one read-only float64 array of L constant values on equal
subintervals of [0, 4] (lengths in units of r), with d(0) = 0 and d
identically 1 beyond 4.  Its axioms are decided exactly, with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import crescent_area


def sum_down(a, b) -> np.ndarray:
    """The exact a + b rounded down to a float: a float x <= a + b exactly iff x <= sum_down(a, b)."""
    s = np.asarray(np.add(a, b))  # an array even for scalar a and b, so `out=` can write to it
    b_part = s - a
    err = (a - (s - b_part)) + (b - b_part)  # s + err = a + b exactly (TwoSum, Knuth TAOCP 4.2.2)
    return np.nextafter(s, -np.inf, out=s, where=err < 0.0)


def grid_edges(L: int) -> np.ndarray:
    """The L + 1 cell edges lam_k = 4k/L; cell i is (lam_{i-1}, lam_i]."""
    return 4.0 * np.arange(L + 1) / L


@dataclass(frozen=True)
class PiecewiseMetric:
    """d(lam) = values[i-1] for lam in ((i-1)*4/L, i*4/L]; 1 beyond 4; 0 at 0.

    `values` is a read-only float64 copy of the input, of shape (L,), and finite.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"metric values must be one-dimensional, got shape {values.shape}")
        if not values.size:
            raise ValueError("metric needs at least one subinterval")
        if not np.isfinite(values).all():
            raise ValueError("metric values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def L(self) -> int:
        return len(self.values)

    @property
    def grid(self) -> np.ndarray:
        """Right endpoints lam_i = 4i/L."""
        return grid_edges(self.L)[1:]

    def eval(self, lam: float) -> float:
        return float(self.eval_array(lam))

    def eval_array(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if not np.all(lam >= 0):  # NaN included
            raise ValueError("displacement length must be nonnegative")
        # beyond 4 the value is 1 anyway; clipping keeps inf out of the int cast
        idx = np.ceil(np.minimum(lam, 4.0) * self.L / 4.0 - 1e-12).astype(int)
        idx = np.clip(idx, 1, self.L)
        out = self.values[idx - 1]
        out = np.where(lam == 0.0, 0.0, out)
        return np.where(lam > 4.0, 1.0, out)


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
        return not (self.monotonicity_violations or self.subadditivity_violations
                    or self.range_violations)


def check_axioms(metric) -> AxiomReport:
    """Check the [0, 1] range, monotonicity and grid subadditivity exactly.

    Subadditivity is checked on the grid (d_{i+j} <= d_i + d_j for i+j <= L)
    and against the tail: d_i + d_j >= 1 whenever lam_i + lam_j > 4, so the
    extension with d = 1 beyond the grid stays a valid edge-length system.
    `metric` may also be a bare sequence of values, whose NaN is a range violation.
    """
    t = metric.values if isinstance(metric, PiecewiseMetric) else np.asarray(metric, dtype=float)
    L, d = t.size, t.tolist()  # the report holds plain floats
    report = AxiomReport(
        range_violations=[(int(i) + 1, d[i]) for i in np.flatnonzero(~((t >= 0.0) & (t <= 1.0)))],
        monotonicity_violations=[(int(i) + 1, d[i], d[i + 1]) for i in np.flatnonzero(t[:-1] > t[1:])])
    padded = np.concatenate([t, np.ones(L)])  # d_k, and 1 for the tail beyond the grid
    for i in range(1, L + 1):  # row i against every j >= i at once
        joined = padded[2 * i - 1 : L + i]  # d_{i+j}
        bad = np.flatnonzero(joined > sum_down(t[i - 1], t[i - 1 :]))
        report.subadditivity_violations += [(i, i + int(p), float(joined[p])) for p in bad]
    return report


def to_csv(metric: PiecewiseMetric, path) -> None:
    """Write `lambda_right,d` rows at lam_i = 4i/L, each d as its shortest round-trip repr."""
    with open(path, "w") as fh:
        fh.write("lambda_right,d\n")
        for lam, v in zip(metric.grid, metric.values.tolist()):
            fh.write(f"{lam:.12g},{v!r}\n")


def from_csv(path) -> PiecewiseMetric:
    """Read a `lambda_right,d` CSV.  A row without exactly two fields, a field
    that is not a number, a row off the grid lam_k = 4k/L or the first
    `check_axioms` violation (range, then monotonicity, then subadditivity)
    is an error naming the row."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "lambda_right,d":
            raise ValueError(f"unexpected metric CSV header: {header!r}")
        rows = []
        for line in fh:
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(f"metric CSV row {len(rows) + 1}: {len(fields)} fields, expected 2")
            try:
                rows.append([float(x) for x in fields])
            except ValueError:
                raise ValueError(f"metric CSV row {len(rows) + 1}: non-numeric field in "
                                 f"{line.strip()!r}") from None
    L = len(rows)
    for k, (lam, _) in enumerate(rows, start=1):
        if not abs(lam - 4.0 * k / L) <= 1e-9:  # also a NaN lambda_right
            raise ValueError(f"metric CSV row {k}: lambda_right {lam:.12g}, expected 4*{k}/{L}")
    report = check_axioms(values := [d for _, d in rows])
    for k, d in report.range_violations:  # each loop raises on its first violation, if any
        raise ValueError(f"metric CSV row {k}: d {d:.17g} outside [0, 1]")
    for k, d, after in report.monotonicity_violations:
        raise ValueError(f"metric CSV row {k}: d {d:.17g} exceeds row {k + 1}'s {after:.17g}")
    for i, j, _ in report.subadditivity_violations:
        rule = (f"subadditivity d_{i + j} <= d_{i} + d_{j}" if i + j <= L
                else f"the tail rule d_{i} + d_{j} >= 1")
        raise ValueError(f"metric CSV rows {i} and {j} break {rule}")
    return PiecewiseMetric(values=values)
