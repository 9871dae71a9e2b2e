"""Discretized contraction constraints, feasibility, and the density search.

Everything is normalized: lengths in units of r, constraints multiplied by n,
using n r^2 = rho/pi.  The grid points are the right endpoints lam_i = 4i/L.
One coupled step contracts the metric in expectation when, for every i,

    (c + W_i) d_i >= g_i + sum_{j<i} w_ij d_j,       c = 1 - 4 rho - eps_hat,

where g_i = (rho/pi) * crescent_area(lam_i) is the pessimistic cost of new
disagreements and w_ij integrates the relabeling-savings kernel
2 (pi - theta(u, lam_i)) u over subinterval j, exactly, as differences of its
antiderivative geometry.outside_zone_area.

Savings only ever reference d(u) for u below the danger-zone radius 2, so
raising d on (2, 4] above the minimal solution costs nothing and turns every
constraint there into pure slack.  Feasibility is decided on the saturated
witness alone (minimal values on (0, 2], tail pinned at 1, residuals
re-verified), so the bound does not depend on how the savings integral treats
the (geometrically empty) region u > 2, which the `as_written` variant
includes.  The returned metric is the repaired witness, whose tail is the
capped subadditive completion instead, so it also satisfies the metric
axioms; one that fails verification is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import lp
from .geometry import crescent_area, outside_zone_area
from .metric import PiecewiseMetric

EPSILON_HAT = 1e-6  # contraction slack n * epsilon, from epsilon = 1e-6 / n
VARIANTS = ("clamped", "as_written")

SEARCH_LO = 0.12  # below the Hamming baseline (1 - eps_hat)/8 in every mode
SEARCH_HI = 0.25


@dataclass(frozen=True)
class ConstraintSystem:
    """The assembled constraint data for one (rho, L, variant)."""

    L: int
    rho: float
    epsilon_hat: float
    g: np.ndarray  # crescent-area terms, shape (L,)
    w: np.ndarray  # lower-triangular savings weights, shape (L, L)
    variant: str

    @property
    def c(self) -> float:
        return 1.0 - 4.0 * self.rho - self.epsilon_hat

    @property
    def grid(self) -> np.ndarray:
        return 4.0 * np.arange(1, self.L + 1) / self.L


def assemble(
    rho: float,
    L: int,
    variant: str = "clamped",
    epsilon_hat: float = EPSILON_HAT,
) -> ConstraintSystem:
    """Build the constraint system for one density.

    w[i, j] = (rho/pi) (F(lam_i, u_{j+1}) - F(lam_i, u_j)) over subinterval
    j = [u_j, u_{j+1}], j < i only (the partial cell j = i multiplies
    d_i - d_i = 0), with F = outside_zone_area.  The clamped variant truncates
    the kernel at the danger-zone radius by clamping u at 2.
    """
    if not 0 < rho < 0.25:
        raise ValueError(f"density must lie in (0, 1/4), got {rho}")
    if L < 1:
        raise ValueError("grid size must be at least 1")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    lam = 4.0 * np.arange(1, L + 1) / L
    u = 4.0 / L * np.arange(L)
    if variant == "clamped":
        u = np.minimum(u, 2.0)
    w = np.zeros((L, L))
    step = max(1, (1 << 16) // L)  # row blocks keep temporaries far below L x L
    for start in range(0, L, step):
        stop = min(start + step, L)
        F = outside_zone_area(u[None, :stop], lam[start:stop, None])
        # Row i keeps cells j <= i - 1, that is j - (i - start) <= start - 1.
        w[start:stop, : stop - 1] = np.tril(np.diff(F, axis=1), start - 1)
    w *= rho / np.pi
    return ConstraintSystem(L=L, rho=rho, epsilon_hat=epsilon_hat,
                            g=rho / np.pi * crescent_area(lam), w=w, variant=variant)


def minimal_metric(system: ConstraintSystem) -> PiecewiseMetric:
    """Pointwise-least nonnegative solution of the contraction constraints.

    The savings term of constraint i only involves d_j with j < i, so a
    forward sweep saturates each constraint in turn; any feasible metric
    dominates the result pointwise.
    """
    c = system.c
    if c <= 0:
        raise ValueError("contraction margin c must be positive (rho too large)")
    w, g, L = system.w, system.g, system.L
    W = w.sum(axis=1)
    d = np.zeros(L)
    for i in range(L):
        d[i] = max(0.0, (g[i] + w[i, :i] @ d[:i]) / (c + W[i]))
    return PiecewiseMetric(values=tuple(d), rho=system.rho)


def repaired_metric(system: ConstraintSystem) -> PiecewiseMetric:
    """Monotone, subadditive feasibility witness built on the minimal sweep.

    Head (lam <= 2): the minimal values, floored by the additive function
    lam/4 (the floor only binds at low densities and keeps the tail rule
    d_i + d_j >= 1 for lam_i + lam_j > 4 satisfiable).  Tail (lam > 2): the
    capped subadditive completion min(1, min_j d_j + d_{i-j}), which never
    drops below the minimal values, so every constraint keeps nonnegative
    slack; the lam > 2 constraints become strictly slack.
    """
    m = np.array(minimal_metric(system).values)
    grid = system.grid
    cut = int(np.searchsorted(grid, 2.0, side="right"))
    d = np.maximum(m, grid / 4.0)
    for i in range(cut, system.L):
        head = d[:i]  # pairs d_j + d_{i-1-j}; empty only for the single cell of L = 1
        best = np.min(head + head[::-1], initial=1.0)
        d[i] = max(best, m[i], d[i - 1])
    return PiecewiseMetric(values=tuple(d), rho=system.rho)


def saturated_metric(system: ConstraintSystem) -> PiecewiseMetric:
    """Minimal sweep values on the grid up to lam = 2, then the tail pinned at 1.

    The tail values never appear in any savings term (the crescent lies
    within distance 2 of the displaced center), so raising them to d_max
    preserves every constraint that the minimal solution satisfies and
    leaves the lam > 2 constraints strictly slack.
    """
    d = np.array(minimal_metric(system).values)
    cut = int(np.searchsorted(system.grid, 2.0, side="right"))  # first index with lam > 2
    d[cut:] = 1.0
    return PiecewiseMetric(values=tuple(d), rho=system.rho)


def slack_report(system: ConstraintSystem, metric: PiecewiseMetric, tight_tol: float = 1e-8):
    """Per-constraint residuals (c + W_i) d_i - g_i - sum_{j<i} w_ij d_j.

    Returns (residuals, tight_lambda_max) where the latter is the largest
    grid point whose constraint is tight to within tight_tol.
    """
    if metric.L != system.L:
        raise ValueError("metric and system grid sizes differ")
    d = np.asarray(metric.values)
    W = system.w.sum(axis=1)
    sav = system.w @ d  # lower-triangular: row i only sees j < i
    residuals = (system.c + W) * d - system.g - sav
    tight = system.grid[residuals < tight_tol]
    tight_lambda_max = float(tight.max()) if tight.size else 0.0
    return residuals, tight_lambda_max


def _decide(system: ConstraintSystem) -> bool:
    """The feasibility decision: the saturated witness lies in [0, 1] and verifies."""
    sat = saturated_metric(system)
    if max(sat.values) > 1.0:  # the tail is exactly 1, so this tests the head
        return False
    residuals, _ = slack_report(system, sat)
    return not np.any(residuals < -1e-12)


def _witness(system: ConstraintSystem):
    """The repaired witness of a feasible system, with its residuals and tight_lambda_max."""
    metric = repaired_metric(system)
    residuals, tight_lambda_max = slack_report(system, metric)
    if np.any(residuals < -1e-12):
        raise RuntimeError(f"repaired witness fails verification at rho={system.rho}, L={system.L}")
    return metric, residuals, tight_lambda_max


def feasible(
    rho: float,
    L: int,
    variant: str = "clamped",
    hamming: bool = False,
    epsilon_hat: float = EPSILON_HAT,
):
    """Decide contractivity at one density; returns (bool, metric or None).

    In hamming mode the metric is forced to d = 1 with savings disabled,
    which reduces the condition to c >= 4 rho, the classical 1/8 baseline.
    Otherwise a feasible answer carries the verified repaired witness.
    """
    if hamming:
        c = 1.0 - 4.0 * rho - epsilon_hat
        return c >= 4.0 * rho, PiecewiseMetric(values=(1.0,) * L, rho=rho)
    system = assemble(rho, L, variant, epsilon_hat)
    if not _decide(system):
        return False, None
    return True, _witness(system)[0]


def lp_feasible(system: ConstraintSystem) -> bool:
    """Raw LP feasibility of {d in [0,1]^L : contraction constraints hold}.

    Independent phase-1 simplex route; must agree with the forward-sweep
    threshold test (all minimal values <= 1) on every instance.
    """
    W = system.w.sum(axis=1)
    A = -system.w.copy()
    np.fill_diagonal(A, system.c + W)
    return lp.feasible_box(A, system.g, np.ones(system.L))


@dataclass(frozen=True)
class BoundResult:
    """Outcome of the density binary search."""

    L: int
    rho_star: float
    tol: float
    variant: str
    epsilon_hat: float
    iterations: int
    metric: PiecewiseMetric
    slack: np.ndarray | None
    tight_lambda_max: float

    def to_json(self) -> str:
        payload = {
            "L": self.L,
            "rho_star": float(f"{self.rho_star:.12g}"),
            "tol": self.tol,
            "variant": self.variant,
            "epsilon_hat": self.epsilon_hat,
            "iterations": self.iterations,
            "metric": {"values": [float(f"{v:.12g}") for v in self.metric.values]},
            "tight_lambda_max": self.tight_lambda_max,
        }
        return json.dumps(payload, indent=2)


def max_density(
    L: int,
    tol: float = 1e-6,
    variant: str = "clamped",
    hamming: bool = False,
    epsilon_hat: float = EPSILON_HAT,
) -> BoundResult:
    """Binary-search the largest density at which the coupling contracts."""
    if tol < 1e-9:
        raise ValueError("tol must be at least 1e-9")
    lo, hi = SEARCH_LO, SEARCH_HI
    base = None if hamming else assemble(lo, L, variant, epsilon_hat)

    def at(rho):  # g and w are proportional to rho, so one assembly serves every probe
        return replace(base, rho=rho, g=rho / base.rho * base.g, w=rho / base.rho * base.w)

    def ok(rho):
        if hamming:
            return feasible(rho, L, hamming=True, epsilon_hat=epsilon_hat)[0]
        return _decide(at(rho))

    if not ok(lo):
        raise RuntimeError("search bracket lower end unexpectedly infeasible")
    iterations = 0
    # Bisect somewhat past the requested resolution so the returned feasible
    # endpoint sits within tol/8 of the true boundary, not just within tol.
    tol_eff = tol / 8.0
    while hi - lo >= tol_eff:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if ok(mid):
            lo = mid
        else:
            hi = mid
    if hamming:
        metric = PiecewiseMetric(values=(1.0,) * L, rho=lo)
        slack, tight_lambda_max = None, 4.0
    else:
        metric, slack, tight_lambda_max = _witness(at(lo))
    return BoundResult(
        L=L,
        rho_star=lo,
        tol=tol,
        variant=variant,
        epsilon_hat=epsilon_hat,
        iterations=iterations,
        metric=metric,
        slack=slack,
        tight_lambda_max=tight_lambda_max,
    )
