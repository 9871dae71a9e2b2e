"""Discretized contraction constraints, feasibility, and the density search.

Everything is normalized: lengths in units of r, constraints multiplied by n,
using n r^2 = rho/pi.  The grid points are the right endpoints lam_i = 4i/L.
One coupled step contracts the metric in expectation when, for every i,

    (c + W_i) d_i >= g_i + sum_{j<i} w_ij d_j,       c = 1 - 4 rho - eps_hat,

where g_i = (rho/pi) * crescent_area(lam_i) is the pessimistic cost of new
disagreements and w_ij = (rho/pi) * (integral of the relabeling-savings
kernel 2 (pi - theta(u, lam_i)) u over subinterval j), built exactly as
differences of its antiderivative F = geometry.outside_zone_area, so the row
sum W_i telescopes to F(lam_i, u_i)/pi, a closed form like g_i.  g and w are
proportional to rho, so the system is stored at unit density, g^ = g/rho and
w^ = w/rho, and constraint i divided by rho reads

    (mu + W^_i) d_i >= g^_i + sum_{j<i} w^_ij d_j,   mu = c/rho.

Density enters only through mu: one assembly serves every density, and a
system at another density is `dataclasses.replace(system, rho=...)`, which
shares the arrays.

The savings kernel lives inside the danger zone, so its integral stops at
u = 2 (the region u > 2 is geometrically empty): `assemble` clamps u there.
The cells j >= k = ceil(L/2) start at u >= 2 and so carry w = 0 exactly, so
rows come in solve blocks at most k columns wide (missing ones read as 0).
The search reads only the head rows (lam <= 2) and the last row, so a system
stores just those, about L^2/8 doubles, and `witness` streams the rest once.
Savings therefore only ever reference d(u) for u below 2, so raising d on
(2, 4] to 1 costs nothing, and with that tail the last row, lam = 4, is the
one that binds: mu >= g^_L - W^_L + sum_j w^_Lj d_j, where g^_L = W^_L = 4
on the clamped rows, so (1 - 4 rho - eps_hat)/rho >= int_0^2 2u d(u) du.
`decide` checks that the minimal head (lam <= 2) lies in [0, 1] and that this
row holds with the columns past the head at d = 1, where they cancel against
W, so the bound would not move if the integral ran on past u = 2.  The
returned metric is the repaired witness, which `repaired_metric` builds to
satisfy the metric axioms exactly; `witness` re-checks every row of it, and
one that fails, such as a tail row that binds, is an error.

The search.  The last row's residual r = mu + W^_L - g^_L - sum_j w^_Lj d_j,
read on the head sweep at rho, is smooth and falls as rho rises (mu falls,
the head rises).  `max_density` finds its root by safeguarded secant steps,
about six sweeps, then walks the bisection of [SEARCH_LO, SEARCH_HI]
against it: a midpoint within SNAP of the root is decided with `decide`,
any other is feasible iff it lies below the root.  Both ends of the walk are
then confirmed with `decide`, the lower one feasible and the upper one
infeasible.  `decide` is monotone in rho, as any bisection assumes, so of
the intervals that the last halving can leave only one has ends like that:
the confirmed walk ends where the bisection ends, bit for bit.  If an end
fails, the walk is repeated with `decide` at every midpoint, which is the
bisection itself.  The root is returned too; rho* lies at most SEARCH_TOL/8
below.

The Hamming baseline needs no system: with d = 1 and savings disabled the
condition is c >= 4 rho, so its bound is (1 - eps_hat)/8 in closed form.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .geometry import crescent_area, outside_zone_area
from .metric import PiecewiseMetric, grid_edges

EPSILON_HAT = 1e-6  # contraction slack n * epsilon, from epsilon = 1e-6 / n

TIGHT_TOL = 1e-8  # a constraint with residual below this counts as tight
RESIDUAL_TOL = 1e-12  # a residual at or above -RESIDUAL_TOL holds (decide and witness)
SEARCH_LO = 0.12  # below the Hamming baseline (1 - eps_hat)/8, so feasible at every L
SEARCH_HI = 0.25
SEARCH_TOL = 1e-6  # the walk halves until the bracket is below SEARCH_TOL/8
ROOT_TOL = 1e-13  # the root-finder stops at a step shorter than this
SNAP = 1e-9  # bisection midpoints this close to the root are decided, not inferred
SOLVE_BLOCK = 32  # rows per diagonal block of the forward substitution


@dataclass(frozen=True)
class ConstraintSystem:
    """The unit-density constraint data for one grid size L, labelled with a density.

    It keeps g and the row sums W whole, both in closed form, and of the
    savings rows w the head rows [0, h) and the last row.  `rows(a, b)` yields
    rows [a, b) by SOLVE_BLOCK rows, the block [s, t) cut to min(k, t)
    columns; `head` holds rows(0, h), and `swept` is its sweep.
    """

    L: int
    rho: float
    g: np.ndarray  # crescent-area terms at unit density, shape (L,)
    W: np.ndarray  # savings row sums at unit density, shape (L,)
    head: tuple[np.ndarray, ...]  # read-only
    last: np.ndarray  # row L - 1, read-only
    rows: Callable  # rows(a, b) yields (first row, block) by solve block

    @property
    def mu(self) -> float:
        """The contraction margin per unit density, c/rho = (1 - 4 rho - eps_hat)/rho."""
        return (1.0 - 4.0 * self.rho - EPSILON_HAT) / self.rho

    @property
    def grid(self) -> np.ndarray:
        return grid_edges(self.L)[1:]

    @cached_property
    def swept(self) -> np.ndarray:  # kept once computed; `replace` starts afresh
        return _sweep(self)


def assemble(rho: float, L: int, rigorous: bool = False) -> ConstraintSystem:
    """Build the unit-density constraint system, labelled with density rho.

    w[i, j] = (F(lam_i, u_{j+1}) - F(lam_i, u_j))/pi over subinterval
    j = [u_j, u_{j+1}], j < i only (the partial cell j = i multiplies
    d_i - d_i = 0), with F = outside_zone_area.  The kernel is truncated at
    the danger-zone radius by clamping u at 2, so row i sums to its closed
    form W_i = F(lam_i, u_i)/pi: F(lam, 0) = 0, and u_j = 2 for every j >= k.

    With rigorous=True row i of w (and W) takes the cell's left end lam_{i-1}
    instead of lam_i, while g_i stays at lam_i.  Both rise with lam: d
    crescent_area/d lam = 2 sqrt(4 - lam^2/4) > 0, and for u <= 2, cos theta =
    (u^2 + lam^2 - 4)/(2 u lam) has d/d lam = (lam^2 + 4 - u^2)/(2 u lam^2) > 0,
    so the kernel 2 (pi - theta) u rises.  So for a monotone d the constraint
    holds on all of (lam_{i-1}, lam_i], in floats (not interval arithmetic).
    """
    if not 0 < rho < 0.25:
        raise ValueError(f"density must lie in (0, 1/4), got {rho}")
    if L < 1:
        raise ValueError("grid size must be at least 1")
    edges = grid_edges(L)
    lam, u = edges[1:], np.minimum(edges, 2.0)
    rows_lam = edges[:-1] if rigorous else lam
    k = (L + 1) // 2  # cells j >= k start at u_j >= 2, where the clamp makes w exactly 0
    h = min(L, -(-(L // 2) // SOLVE_BLOCK) * SOLVE_BLOCK)  # whole solve blocks

    def rows(start, stop):
        for a in range(start, stop, SOLVE_BLOCK):
            b = min(a + SOLVE_BLOCK, stop)
            w = np.diff(outside_zone_area(u[None, : min(k, b) + 1], rows_lam[a:b, None]), axis=1)
            w[~np.tri(*w.shape, a - 1, dtype=bool)] = 0.0  # row i keeps cells j <= i - 1
            w /= np.pi
            yield a, w

    head = [np.empty((min(SOLVE_BLOCK, h - start), min(k, start + SOLVE_BLOCK, h)))
            for start in range(0, h, SOLVE_BLOCK)]  # up front: kept built blocks fragment the heap
    for block, (_, w) in zip(head, rows(0, h)):
        block[...] = w
    _, (last,) = next(rows(L - 1, L))
    for block in (*head, last):
        block.flags.writeable = False
    return ConstraintSystem(L=L, rho=rho, g=crescent_area(lam) / np.pi,
                            W=outside_zone_area(u[:-1], rows_lam) / np.pi, head=tuple(head),
                            last=last, rows=rows)


def _sweep(system: ConstraintSystem) -> np.ndarray:
    """The pointwise-least solution on the stored head rows.

    Constraint i saturated reads (mu + W_i) d_i = g_i + sum_{j<i} w_ij d_j, a
    lower-triangular system solved in blocks of SOLVE_BLOCK rows: the earlier
    blocks enter the right-hand side through one matrix-vector product.  With
    g > 0 and w >= 0 every value is positive, so no bound d >= 0 binds.
    """
    mu = system.mu
    if mu <= 0:
        raise ValueError("contraction margin c must be positive (rho too large)")
    diag = mu + system.W
    d = np.empty(sum(map(len, system.head)))
    for start, w in zip(range(0, d.size, SOLVE_BLOCK), system.head):
        stop = start + len(w)
        before, inside = w[:, :start], w[:, start:stop]  # missing columns are 0
        rhs = system.g[start:stop] + before @ d[: before.shape[1]]
        block = np.diag(diag[start:stop])
        block[:, : inside.shape[1]] -= inside
        d[start:stop] = np.linalg.solve(block, rhs)
    d.flags.writeable = False  # a system keeps it as `swept`
    return d


def repaired_metric(system: ConstraintSystem) -> PiecewiseMetric:
    """Monotone, exactly subadditive feasibility witness built on the minimal sweep.

    d_i = max(d_{i-1}, min(base_i, min_{0<j<i} sum_down(d_j, d_{i-j}))), d_0 = 0,
    so d_{i+j} <= d_i + d_j holds exactly.  base is 1 on the tail (lam > 2)
    and on the head the minimal values floored by the additive function lam/4
    (the floor only binds at low densities and keeps the tail rule
    d_i + d_j >= 1 for lam_i + lam_j > 4 satisfiable).  That d never drops
    below the minimal values, so that every constraint keeps nonnegative
    slack, is what `witness` checks.

    `_repair` takes the rows in the SOLVE_BLOCK blocks of `_sweep`.  In the
    block of cells a+1..b a pair (j, i-j), j <= i-j, is settled when i-j <= a:
    one window view of d_1..d_a, padded with +inf, gives the plain float sums
    of every settled pair and each row's least, M.  sum_down(x, y) is fl(x+y)
    or the float below it and never falls as fl(x+y) rises, so the least
    rounded-down sum is M, or the float below M when some pair's exact sum
    lies below M (the tie rule): fl(M - d_{i-j}) > d_j, where M - d_{i-j} is
    exact by Fast2Sum (Dekker, Numer. Math. 18, 1971) as 0 <= d_j <= d_{i-j},
    and which monotone rounding keeps false, in either order, for a pair
    summing to M or more.  Only rows with M <= base_i need the rule.  The
    pairs with a cell in the block, under SOLVE_BLOCK a row, run in Python
    floats, each rounded down only if its plain sum reaches the running least.
    """
    cut = system.L // 2  # lam_i = 4i/L <= 2 exactly for the first L // 2 cells
    base = np.ones(system.L)
    base[:cut] = np.maximum(system.swept[:cut], system.grid[:cut] / 4.0)
    return PiecewiseMetric(values=_repair(base))


def _repair(base: np.ndarray) -> np.ndarray:
    """The recursion of `repaired_metric` on any base, with 0-based cells (d_{-1} = 0)."""
    d, v, prev = np.empty(base.size), [], 0.0  # v: d so far, as Python floats
    for a in range(0, base.size, SOLVE_BLOCK):
        b, M = min(a + SOLVE_BLOCK, base.size), np.inf
        if a:
            n = (a + 1) // 2  # pair t of row i = a + r: j = r + t, i-1-j = a-1-t
            low, high = np.lib.stride_tricks.sliding_window_view(
                np.concatenate([d[:a], np.full(b - a, np.inf)]), n)[: b - a], d[a - n : a][::-1]
            M = (low + high).min(axis=1)  # low is +inf where j >= a: those pairs are in-block
            if (M <= base[a:b]).any():
                M = np.where((M[:, None] - high > low).any(axis=1), np.nextafter(M, -np.inf), M)
        for i, best in enumerate(np.minimum(M, base[a:b]).tolist(), start=a):
            p = max(a, i // 2)  # pairs (i-1-q, q) for q = p, ..., i-1, each sum at least v[0] + v[p]
            if i > p and v[0] + v[p] <= best:
                for x, y in zip(reversed(v[: i - p]), v[p:i]):
                    s = x + y
                    if s <= best:
                        best = math.nextafter(s, -math.inf) if x - (s - y) < 0.0 else s
            v.append(prev := max(prev, best))
        d[a:b] = v[a:b]
    return d


def slack_report(system: ConstraintSystem, metric: PiecewiseMetric):
    """Per-constraint residuals (c + W_i) d_i - g_i - sum_{j<i} w_ij d_j.

    They are rho times the unit-density residuals, so they keep the units of
    the constraints as written.  Returns (residuals, tight_lambda_max), the
    latter the largest grid point whose constraint is within TIGHT_TOL of tight.
    """
    if metric.L != system.L:
        raise ValueError("metric and system grid sizes differ")
    d, h = metric.values, sum(map(len, system.head))
    sav = np.empty(system.L)  # row i only sees j < i; missing columns are 0
    head = zip(range(0, h, SOLVE_BLOCK), system.head)
    for start, w in itertools.chain(head, system.rows(h, system.L)):
        sav[start : start + len(w)] = w @ d[: w.shape[1]]
    residuals = system.rho * ((system.mu + system.W) * d - system.g - sav)
    tight = system.grid[residuals < TIGHT_TOL]
    tight_lambda_max = float(tight.max()) if tight.size else 0.0
    return residuals, tight_lambda_max


def _last_row(system: ConstraintSystem):
    """The minimal head (lam <= 2) and the last row's unit-density residual
    r = mu + W_L - g_L - sum_j w_Lj d_j, with the columns past the head at d = 1."""
    cut = system.L // 2
    head = system.swept[:cut]  # the head never references the tail
    d = np.ones(system.last.size)
    d[:cut] = head
    return head, (system.mu + system.W[-1]) - system.g[-1] - system.last @ d


def decide(system: ConstraintSystem) -> bool:
    """The feasibility decision: the minimal head lies in [0, 1] and the last
    row holds with the tail at 1; `witness` re-checks every row of its metric."""
    head, r = _last_row(system)
    return bool(head.max(initial=0.0) <= 1.0 and system.rho * r >= -RESIDUAL_TOL)


def _root(base: ConstraintSystem) -> float:
    """The density at which the last row's residual r, which falls as rho
    rises, crosses zero.

    Secant steps from rho = 0.15 and 0.155, each kept inside the bracket that
    the evaluations so far leave (a step outside it bisects the bracket
    instead), until a step is shorter than ROOT_TOL.
    """
    lo, hi = SEARCH_LO, SEARCH_HI
    x, prev = 0.15, None
    for _ in range(64):  # bisection alone reaches ROOT_TOL in 41 steps
        r = float(_last_row(replace(base, rho=x))[1])
        if r == 0.0:
            break
        lo, hi = (x, hi) if r > 0.0 else (lo, x)
        if prev is None:
            step = 0.005
        elif r != prev[1]:
            step = r * (prev[0] - x) / (r - prev[1])
        else:
            step = math.inf  # bisect
        prev, x = (x, r), x + step
        if abs(step) < ROOT_TOL:  # it may leave the bracket by r's rounding
            break
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


def witness(system: ConstraintSystem):
    """The repaired witness of a feasible system, with its residuals and tight_lambda_max."""
    metric = repaired_metric(system)
    residuals, tight_lambda_max = slack_report(system, metric)
    if np.any(residuals < -RESIDUAL_TOL):
        raise RuntimeError(f"repaired witness fails verification at rho={system.rho}, L={system.L}")
    return metric, residuals, tight_lambda_max


@dataclass(frozen=True)
class BoundResult:
    """Outcome of the density search."""

    L: int
    rho_star: float
    iterations: int
    metric: PiecewiseMetric
    slack: np.ndarray | None
    tight_lambda_max: float
    rigorous: bool = False  # savings rows taken at each cell's left end (see `assemble`)
    root: float = math.nan  # where the last row's residual crosses zero; not in to_json

    def to_json(self) -> str:
        payload = {
            "L": self.L,
            "rho_star": float(f"{self.rho_star:.12g}"),
            "tol": SEARCH_TOL,
            "variant": "rigorous" if self.rigorous else "clamped",  # the savings rows the bound used
            "epsilon_hat": EPSILON_HAT,
            "iterations": self.iterations,
            "metric": {"values": [float(f"{v:.12g}") for v in self.metric.values]},
            "tight_lambda_max": self.tight_lambda_max,
        }
        return json.dumps(payload, indent=2)


def max_density(L: int, hamming: bool = False, rigorous: bool = False) -> BoundResult:
    """The largest density at which the coupling contracts, from the root of
    the last row, snapped onto the bisection path.

    The system is assembled once (with `rigorous` passed on to `assemble`);
    each sweep relabels it with its density.  `_root` finds where the last
    row's residual crosses zero; the bisection of [SEARCH_LO, SEARCH_HI] is
    then walked against it, calling `decide` only at midpoints within SNAP of
    the root and taking the others as feasible iff they lie below it.  Both
    ends of the walk are confirmed with `decide`, the lower one feasible and
    the upper one infeasible; as `decide` is monotone in rho, that proves the
    walk is the bisection's path, bit for bit (module docstring).  If an end
    fails, the walk is repeated with `decide` at every midpoint.  In hamming
    mode it returns the closed-form baseline (1 - eps_hat)/8 of the module
    docstring with the unit metric and no search iterations.
    """
    if L < 1:
        raise ValueError("grid size must be at least 1")
    if hamming:
        rho = (1.0 - EPSILON_HAT) / 8.0
        return BoundResult(L=L, rho_star=rho, iterations=0, metric=PiecewiseMetric(values=np.ones(L)),
                           slack=None, tight_lambda_max=4.0, rigorous=rigorous, root=rho)
    base = assemble(SEARCH_LO, L, rigorous)
    root = _root(base)
    at = cache(lambda rho: replace(base, rho=rho))  # one system, so one sweep, per density
    for snap in (SNAP, math.inf):  # the snapped walk, then every midpoint decided
        lo, hi, iterations = SEARCH_LO, SEARCH_HI, 0
        while hi - lo >= SEARCH_TOL / 8.0:
            mid = 0.5 * (lo + hi)
            iterations += 1
            below = decide(at(mid)) if abs(mid - root) <= snap else mid < root
            lo, hi = (mid, hi) if below else (lo, mid)
        if decide(at(lo)) and (hi == SEARCH_HI or not decide(at(hi))):  # mu < 0 at SEARCH_HI
            break
    else:  # with every midpoint decided only the lower end SEARCH_LO can fail
        raise RuntimeError("search bracket lower end unexpectedly infeasible")
    metric, slack, tight_lambda_max = witness(at(lo))
    return BoundResult(
        L=L,
        rho_star=lo,
        iterations=iterations,
        metric=metric,
        slack=slack,
        tight_lambda_max=tight_lambda_max,
        rigorous=rigorous,
        root=root,
    )
