"""Tests for the discretized contraction system, feasibility, and the search."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from harddisks import contraction
from harddisks.contraction import (
    EPSILON_HAT,
    SOLVE_BLOCK,
    assemble,
    max_density,
    slack_report,
)
from harddisks.geometry import crescent_area
from harddisks.metric import PiecewiseMetric, analytic_small_ell, check_axioms, from_csv, to_csv
from ceiling import extrapolate
from oracles import (
    assemble_as_written,
    assemble_dense,
    bisect_density,
    check_axioms_looped,
    crescent_angle,
    crescent_angle_array,
    dense_rows,
    feasible,
    feasible_box,
    lp_feasible,
    minimal_metric,
    round_down,
    saturated_decide,
    saturated_metric,
    stored,
)

# Frozen oracle: minimal solution for L = 8, rho = 0.14, computed with an
# independent LP solve (minimize the coordinate sum subject to the same
# constraints; the pointwise-least solution attains it).
MINIMAL_L8_RHO014 = (
    0.202032550363,
    0.400862093356,
    0.579567124183,
    0.689562945826,
    0.756132267793,
    0.811534829966,
    0.855212265797,
    0.879529707054,
)

# The package's assembly and the oracle that integrates the savings kernel
# past u = 2 as well, keyed by the labels the parametrized tests carry.
ASSEMBLIES = {"clamped": assemble, "as_written": assemble_as_written}

# The method's ceiling: second-order Richardson extrapolation of the clamped
# roots (`BoundResult.root`) from L = 512/1024/2048 and 1024/2048/4096 gives
# 0.15464674705 and 0.15464674711 (tests/ceiling.py).
RHO_CEILING = 0.1546467471

# The grid sizes of README's table.
TABLE_LS = [8, 16, 32, 64, 128, 256, 512, 1024]


def quadrature_kernel(L, variant, order=16):
    """Gauss-Legendre oracle for the savings integrals I of exact_kernel.

    Each cell is split at the kernel kinks u = |lam_i - 2| and, for the clamped
    assembly, truncated at the danger-zone radius u = 2.
    """
    h = 4.0 / L
    lam = h * np.arange(1, L + 1)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    I = np.zeros((L, L))
    for i in range(L):
        li = lam[i]
        top = i * h  # upper end of the last full cell below lam_i
        if top <= 0:
            continue
        bps = {j * h for j in range(i + 1)}
        for kink in (abs(li - 2.0), 2.0):
            if 0.0 < kink < top:
                bps.add(kink)
        bps = np.array(sorted(bps))
        a, b = bps[:-1], bps[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        u = mid[:, None] + half[:, None] * nodes[None, :]
        k = 2.0 * (np.pi - crescent_angle_array(u, li)) * u
        if variant == "clamped":
            k = np.where(u > 2.0, 0.0, k)
        seg = (k * weights[None, :]).sum(axis=1) * half
        cell = np.minimum((mid / h).astype(int), i - 1)
        np.add.at(I[i], cell, seg)
    return I


def exact_kernel(L, variant):
    """The savings integrals I of the assembled system, with the factor 1/pi removed."""
    return dense_rows(ASSEMBLIES[variant](0.125, L)) * np.pi


def adaptive_cell_integral(lam, a, b, variant):
    """scipy.integrate.quad of the kernel over [a, b], split at the kink |lam - 2|."""
    if variant == "clamped":
        b = min(b, 2.0)
    edges = [a] + [k for k in (abs(lam - 2.0),) if a < k < b] + [b]
    kernel = lambda u: 2.0 * (math.pi - crescent_angle(u, lam)) * u  # noqa: E731
    return sum(integrate.quad(kernel, x, y, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for x, y in zip(edges[:-1], edges[1:]) if y > x)


class TestAssemble:
    def test_last_area_term_is_four_rho(self):
        # The crescent at lam = 4 is the whole zone, 4 pi; at unit density the term is 4.
        for rho in (0.05, 0.14, 0.2):
            system = assemble(rho, 32)
            assert system.g[-1] == pytest.approx(4.0, rel=1e-12)

    def test_area_terms_strictly_increasing(self):
        system = assemble(0.14, 64)
        assert np.all(np.diff(system.g) > 0)

    def test_weights_nonnegative_and_lower_triangular(self):
        w = dense_rows(assemble(0.14, 32))
        assert np.all(w >= 0)
        assert np.allclose(np.triu(w), 0.0)

    def test_no_weight_inside_fully_blocked_radius(self):
        # Proposals closer than 2 - lam to the displaced center are blocked
        # in both chains, so those subintervals carry zero weight.
        L = 32
        system = assemble(0.14, L)
        w = dense_rows(system)
        h = 4.0 / L
        for i in range(L):
            lam = system.grid[i]
            for j in range(i):
                if (j + 1) * h <= 2.0 - lam:
                    assert w[i, j] == 0.0

    def test_row_sums_bounded_by_kernel_cap(self):
        system = assemble(0.14, 64)
        assert np.all(system.W <= system.grid**2)
        # The closed form W_i = F(lam_i, u_i)/pi against the dense rows summed
        # in numpy's pairwise order: at most 2 ulp apart (L = 42, row 31).
        for L in [*range(1, 65), 88, 333, 1024, 1170, 2048]:
            for rigorous in (False, True):
                sums = dense_rows(assemble_dense(0.14, L, rigorous)).sum(axis=1)
                W = assemble(0.14, L, rigorous).W
                assert np.all(np.abs(W - sums) <= 2 * np.spacing(sums)), (L, rigorous)
        # Clamped rows whose cells reach u = 2 integrate the kernel over the
        # whole crescent: F(lam, 2) is its area.
        sums = exact_kernel(64, "clamped").sum(axis=1)
        full = system.grid - 4.0 / 64 >= 2.0
        assert np.allclose(sums[full], crescent_area(system.grid[full]), rtol=0.0, atol=1e-12)

    def test_rigorous_rows_lemma(self):
        # assemble's lemma: on u <= 2, cos theta(u, lam) = (u^2 + lam^2 - 4)/(2 u lam)
        # has lam-derivative (lam^2 + 4 - u^2)/(2 u lam^2) > 0, and
        # d crescent_area/d lam = 2 sqrt(4 - lam^2/4) > 0; both by central differences.
        step = 1e-6
        u, lam = np.meshgrid(np.linspace(0.05, 2.0, 40), np.linspace(0.05, 3.95, 79))
        inside = np.abs(lam - 2.0) + 0.01 < u  # where the circle of radius u crosses the zone
        u, lam = u[inside], lam[inside]
        cos = lambda lam: np.cos(crescent_angle_array(u, lam))  # noqa: E731
        slope = (lam**2 + 4.0 - u**2) / (2.0 * u * lam**2)
        assert np.all(slope > 0.0)
        assert np.allclose((cos(lam + step) - cos(lam - step)) / (2.0 * step), slope, rtol=1e-6, atol=1e-8)
        lam = np.linspace(0.01, 3.9, 200)
        slope = 2.0 * np.sqrt(4.0 - lam**2 / 4.0)
        assert np.all(slope > 0.0)
        central = (crescent_area(lam + step) - crescent_area(lam - step)) / (2.0 * step)
        assert np.allclose(central, slope, rtol=1e-7, atol=0.0)

    def test_closed_form_matches_gauss_legendre(self):
        # The 16-point rule is off by up to 3.4e-5 in the cells that start at
        # the kernel's square-root kink u = 2 - lam.
        for variant in ASSEMBLIES:
            exact = exact_kernel(64, variant)
            quad = quadrature_kernel(64, variant)
            assert np.array_equal(exact == 0.0, quad == 0.0)
            assert np.allclose(exact, quad, rtol=5e-5, atol=0.0), variant

    @pytest.mark.parametrize("variant", ASSEMBLIES)
    def test_closed_form_matches_adaptive_quadrature(self, variant):
        L = 64
        h = 4.0 / L
        exact = exact_kernel(L, variant)
        for i, j in zip(*np.nonzero(exact)):
            ref = adaptive_cell_integral((i + 1) * h, j * h, (j + 1) * h, variant)
            assert exact[i, j] == pytest.approx(ref, rel=1e-10, abs=0.0), (i, j)

    def test_contraction_margin(self):
        system = assemble(0.14, 8)
        assert system.mu == pytest.approx((1.0 - 4 * 0.14 - EPSILON_HAT) / 0.14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            assemble(0.3, 8)
        with pytest.raises(ValueError):
            assemble(-0.1, 8)
        with pytest.raises(ValueError):
            assemble(0.14, 0)


def assert_stores_dense_rows(live, dense):
    """live keeps the head blocks, the last row and the row sums of the dense
    assembly bit for bit, and its row source yields the dense rows [h, L) in
    solve blocks, each cut to min(k, block end) columns."""
    L, k, h = live.L, (live.L + 1) // 2, sum(map(len, live.head))
    w = dense_rows(dense)
    assert not np.any(w[:, k:])
    assert np.array_equal(live.g, dense.g)
    assert h == min(L, -(-(L // 2) // SOLVE_BLOCK) * SOLVE_BLOCK)
    assert len(live.head) == -(-h // SOLVE_BLOCK)
    for start, block in zip(range(0, h, SOLVE_BLOCK), live.head):
        assert block.shape == (min(start + SOLVE_BLOCK, h) - start, min(k, start + SOLVE_BLOCK))
        assert not block.flags.writeable
        assert np.array_equal(block, w[start : start + len(block), : block.shape[1]])
    assert np.array_equal(live.W, dense.W)
    assert not live.last.flags.writeable
    assert np.array_equal(live.last, w[-1, :k])
    streamed = list(live.rows(h, L))
    assert [start for start, _ in streamed] == list(range(h, L, SOLVE_BLOCK))
    for start, rows in streamed:
        assert rows.shape == (min(start + SOLVE_BLOCK, L) - start, min(k, start + SOLVE_BLOCK, L))
        assert np.array_equal(rows, w[start : start + len(rows), : rows.shape[1]])


class TestLiveColumns:
    """`assemble` stores the head rows and the last row, each cut to the
    k = ceil(L/2) columns whose cells start below u = 2, and streams the rest."""

    @pytest.mark.parametrize("L", [*range(1, 41), 64, 88, 100, 256, 333, 1024, 1170])
    def test_matches_dense_assembly_bit_for_bit(self, L):
        assert_stores_dense_rows(assemble(0.14, L), assemble_dense(0.14, L))

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 16, 64, 88, 333, 1024, 1170, 2048])
    def test_rigorous_matches_dense_assembly_bit_for_bit(self, L):
        live = assemble(0.14, L, rigorous=True)
        assert np.array_equal(live.g, assemble(0.14, L).g)
        assert_stores_dense_rows(live, assemble_dense(0.14, L, rigorous=True))

    @pytest.mark.parametrize("L", [1, 16, 100, 256, 333, 1024])
    def test_one_kernel_call_per_row_block(self, monkeypatch, L):
        # the head's solve blocks, the last row and W
        calls = []
        kernel = contraction.outside_zone_area
        monkeypatch.setattr(contraction, "outside_zone_area",
                            lambda *args: calls.append(args) or kernel(*args))
        h = sum(map(len, assemble(0.14, L).head))
        assert len(calls) == -(-h // SOLVE_BLOCK) + 2

    def test_stored_savings_about_an_eighth_of_the_square(self):
        # The head blocks and the last row: 1.07 MiB at L = 1024, where all
        # L rows of the k live columns took 4.00 MiB.
        system = assemble(0.15, 1024)
        nbytes = sum(block.nbytes for block in system.head) + system.last.nbytes
        assert nbytes <= 1.2 * 2**20, nbytes / 2**20

    def test_search_peak_memory(self):
        # 5.5 MiB at L = 2048 with 32-row blocks (4.7 MiB with 2^14 // L-row
        # blocks); storing all L rows of the live columns peaked at 16.9 MiB.
        tracemalloc.start()
        try:
            max_density(2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, peak / 2**20

    @pytest.mark.parametrize("L", [11, 12, 33, 88, 100, 256])
    def test_search_matches_dense_assembly(self, monkeypatch, L):
        live = max_density(L)
        monkeypatch.setattr(contraction, "assemble", assemble_dense)
        dense = max_density(L)
        assert (live.rho_star, live.iterations) == (dense.rho_star, dense.iterations)
        assert live.to_json() == dense.to_json()


class TestMinimalMetric:
    def test_zero_savings_reduces_to_analytic_form(self, monkeypatch):
        monkeypatch.setattr(contraction, "EPSILON_HAT", 0.0)
        system = assemble(0.14, 16)
        stripped = stored(system.rho, system.g, np.zeros((16, 8)), np.zeros(16))
        d = minimal_metric(stripped).values
        for lam, v in zip(stripped.grid, d):
            expect = 0.14 / (math.pi * (1 - 4 * 0.14)) * contraction.crescent_area(lam)
            assert v == pytest.approx(expect, rel=1e-12)

    def test_cells_below_one_radius_match_analytic_form(self, monkeypatch):
        # No savings exist for displacements below one radius, so the sweep
        # reproduces the closed form there.
        monkeypatch.setattr(contraction, "EPSILON_HAT", 0.0)
        system = assemble(0.14, 64)
        d = minimal_metric(system).values
        for lam, v in zip(system.grid, d):
            if lam <= 1.0:
                assert v == pytest.approx(analytic_small_ell(lam, 0.14), rel=1e-9)

    def test_matches_independent_lp_oracle(self):
        d = minimal_metric(assemble(0.14, 8)).values
        assert np.allclose(d, MINIMAL_L8_RHO014, atol=1e-10)

    def test_saturates_every_constraint(self):
        system = assemble(0.14, 32)
        residuals, _ = slack_report(system, minimal_metric(system))
        assert np.all(np.abs(residuals) < 1e-12)

    def test_dominated_by_any_feasible_metric(self):
        rng = np.random.default_rng(11)
        system = assemble(0.13, 16)
        base = np.array(minimal_metric(system).values)
        found = 0
        while found < 20:
            cand = np.minimum(base + rng.random(16) * 0.2, 1.0)
            residuals, _ = slack_report(system, PiecewiseMetric(values=tuple(cand)))
            if np.all(residuals >= 0):
                assert np.all(base <= cand + 1e-12)
                found += 1

    def test_rejects_nonpositive_margin(self):
        system = assemble(0.14, 8)
        with pytest.raises(ValueError):
            minimal_metric(dataclasses.replace(system, rho=0.25))

    @pytest.mark.parametrize("variant", ASSEMBLIES)
    def test_blocked_solve_matches_row_loop(self, variant):
        # L around the block size and well past it; rho up to the L = 1024 bound.
        for rho, L in ((0.14, 1), (0.13, 31), (0.13, 32), (0.15, 33), (0.1546, 1024)):
            system = ASSEMBLIES[variant](rho, L)
            fast = np.array(minimal_metric(system).values)
            assert np.allclose(fast, looped_minimal_metric(system), rtol=1e-13, atol=0.0), (rho, L)


class TestSaturatedMetric:
    def test_tail_pinned_at_one(self):
        system = assemble(0.14, 32)
        m = saturated_metric(system)
        vals = np.array(m.values)
        assert np.all(vals[system.grid > 2.0] == 1.0)
        assert np.allclose(vals[system.grid <= 2.0],
                           np.array(minimal_metric(system).values)[system.grid <= 2.0])

    def test_still_satisfies_all_constraints(self):
        system = assemble(0.14, 64)
        residuals, _ = slack_report(system, saturated_metric(system))
        assert np.all(residuals >= -1e-12)

    def test_passes_metric_axioms_at_optimum(self):
        result = max_density(64)
        assert check_axioms(result.metric).passed


def looped_minimal_metric(system):
    """Reference forward sweep, one constraint at a time, on the constraints as
    written: g, w and c at the system's density, rebuilt from the unit system."""
    rho = system.rho
    g, w = rho * system.g, rho * dense_rows(system)
    c = 1.0 - 4.0 * rho - contraction.EPSILON_HAT
    W = w.sum(axis=1)
    d = np.zeros(system.L)
    for i in range(system.L):
        d[i] = max(0.0, (g[i] + w[i, :i] @ d[:i]) / (c + W[i]))
    return d


def looped_repaired_metric(system):
    """Reference witness, one cell and one pair at a time: each pair sum
    d_j + d_{i-1-j} is taken exactly in Fractions and rounded down to a float.
    The tail never reads the minimal tail values."""
    m = np.array(minimal_metric(system).values)
    cut = int(np.searchsorted(system.grid, 2.0, side="right"))
    base = np.ones(system.L)
    base[:cut] = np.maximum(m, system.grid / 4.0)[:cut]
    d = []
    for i in range(system.L):
        best = float(base[i])
        for j in range(i):
            best = min(best, round_down(Fraction(d[j]) + Fraction(d[i - 1 - j])))
        d.append(max(best, d[i - 1] if i else 0.0))
    return tuple(d)


class TestRepairedMetric:
    def test_tail_matches_looped_reference(self):
        for rho, L in ((0.14, 1), (0.05, 8), (0.13, 33), (0.1544, 256)):
            system = assemble(rho, L)
            assert contraction.repaired_metric(system).values.tolist() == list(looped_repaired_metric(system))

    def test_passes_axioms_across_densities(self):
        # At L = 88 the lam/4 floor, i/L in floats, is not exactly additive.
        for L in (32, 88):
            for rho in (0.03, 0.10, 0.112, 0.13, 0.153):
                m = contraction.repaired_metric(assemble(rho, L))
                assert check_axioms(m).passed, (L, rho)
                assert check_axioms_looped(m).passed, (L, rho)

    @pytest.mark.parametrize("rigorous", [False, True])
    @pytest.mark.parametrize("L", [88, 256, 1024])
    def test_witness_and_its_csv_pass_the_exact_check(self, tmp_path, L, rigorous):
        metric = max_density(L, rigorous=rigorous).metric
        to_csv(metric, tmp_path / "m.csv")
        back = from_csv(tmp_path / "m.csv")  # which raises on any violation
        assert back.values.tobytes() == metric.values.tobytes()
        assert check_axioms(metric).passed and check_axioms(back).passed
        if L == 88:  # the Fraction oracle takes seconds at L = 1024
            assert check_axioms_looped(metric).passed

    def test_never_below_minimal_solution(self):
        system = assemble(0.14, 64)
        low = np.array(minimal_metric(system).values)
        high = np.array(contraction.repaired_metric(system).values)
        assert np.all(high >= low - 1e-15)

    def test_linear_floor_binds_at_low_density(self):
        system = assemble(0.05, 8)
        m = contraction.repaired_metric(system)
        assert m.values[0] == pytest.approx(0.5 / 4.0 * 1.0)  # lam_1/4 = 0.125
        assert np.all(np.array(m.values) >= system.grid / 4.0 - 1e-15)

    def test_head_untouched_near_the_optimum(self):
        system = assemble(0.154, 256)
        rep = np.array(contraction.repaired_metric(system).values)
        low = np.array(minimal_metric(system).values)
        head = system.grid <= 2.0
        assert np.allclose(rep[head], low[head])

    def test_keeps_nonnegative_slack(self):
        system = assemble(0.1544, 256)
        residuals, _ = slack_report(system, contraction.repaired_metric(system))
        assert np.all(residuals >= -1e-12)

    # The stored rows end on a solve-block boundary, or at L; L // 2 does not
    # at these L, and a sweep ending there differs in the last bits.
    @pytest.mark.parametrize("variant", ["clamped", "rigorous", "as_written"])
    @pytest.mark.parametrize("L", [7, 88, 199, 333, 1170])
    def test_head_is_the_full_sweeps_head(self, monkeypatch, L, variant):
        build = {"rigorous": lambda rho, L: assemble(rho, L, rigorous=True), **ASSEMBLIES}[variant]
        system = build(0.1544, L)
        sweep, swept = contraction._sweep, []

        def recorded(system):
            swept.append(sweep(system))
            return swept[-1]

        monkeypatch.setattr(contraction, "_sweep", recorded)
        repaired = contraction.repaired_metric(system).values
        contraction.decide(dataclasses.replace(system))  # a fresh copy, which sweeps the same head
        h, cut = sum(map(len, system.head)), L // 2
        assert [len(d) for d in swept] == [h, h] and np.array_equal(swept[1], swept[0])
        assert h == L or h % SOLVE_BLOCK == 0
        full = minimal_metric(system).values[:cut]
        assert np.array_equal(swept[0][:cut], full)
        assert np.array_equal(repaired[:cut], np.maximum(full, system.grid[:cut] / 4.0))


# No head (L = 1), a one-row tail (L = 2, 3), odd L and the paper's L = 88.
DECISION_LS = [1, 2, 3, 7, 16, 64, 88, 256]


def search_probes(monkeypatch, L, rigorous):
    """The bound at L by plain bisection and every system it decided: the
    bracket's lower end and all 20 midpoints.  `max_density` decides only
    near the root, so its own calls would leave most of the path unchecked."""
    decide, probes = contraction.decide, []

    def recorded(system):
        probes.append(system)
        return decide(system)

    monkeypatch.setattr(contraction, "decide", recorded)
    result = bisect_density(L, rigorous=rigorous)
    monkeypatch.setattr(contraction, "decide", decide)
    assert len(probes) == result.iterations + 1
    return result, probes


class TestDecide:
    @pytest.mark.parametrize("rigorous", [False, True])
    @pytest.mark.parametrize("L", DECISION_LS)
    def test_matches_the_saturated_rule(self, monkeypatch, L, rigorous):
        _, probes = search_probes(monkeypatch, L, rigorous)
        rng = np.random.default_rng(L)
        rhos = np.concatenate([np.linspace(0.005, 0.245, 49), rng.uniform(0.0, 0.25, 20)])
        spread = [dataclasses.replace(probes[0], rho=float(rho)) for rho in rhos]
        for system in probes + spread:
            assert contraction.decide(system) == saturated_decide(system), system.rho

    @pytest.mark.parametrize("rigorous", [False, True])
    @pytest.mark.parametrize("L", DECISION_LS)
    def test_last_row_binds(self, monkeypatch, L, rigorous):
        result, probes = search_probes(monkeypatch, L, rigorous)
        first_out = min((s for s in probes if not contraction.decide(s)), key=lambda s: s.rho)
        sat = saturated_metric(first_out)
        assert sat.values.max() <= 1.0
        residuals, _ = slack_report(first_out, sat)
        assert np.flatnonzero(residuals < -1e-12).tolist() == [L - 1]
        if not rigorous:
            # At the bound the last row reads mu = (g_L - W_L) + sum_j w_Lj d_j,
            # to within the change of mu over the search's resolution.
            system = dataclasses.replace(probes[0], rho=result.rho_star)
            d = saturated_metric(system).values[: system.last.size]
            gap = system.mu - (system.g[-1] - system.W[-1] + system.last @ d)
            assert -1e-12 / system.rho <= gap <= contraction.SEARCH_TOL / system.rho**2, gap

    def test_binding_tail_row_is_an_error(self, monkeypatch):
        # A tail row other than lam = 4 that binds escapes the decision; the
        # repaired witness stays at most 1, so `witness` then fails that row.
        def heavier(rho, L, rigorous=False):
            system = assemble(rho, L, rigorous)
            g = system.g.copy()
            g[L - 2] *= 1.5  # the row lam = 4 - 4/L
            return dataclasses.replace(system, g=g)

        assert contraction.repaired_metric(heavier(0.154, 16)).values.max() <= 1.0
        monkeypatch.setattr(contraction, "assemble", heavier)
        with pytest.raises(RuntimeError, match="fails verification"):
            max_density(16)


def assert_same_bound(result, expected):
    """Two bounds agree bit for bit: rho*, iterations, metric, slack and JSON."""
    assert (result.rho_star, result.iterations) == (expected.rho_star, expected.iterations)
    assert np.array_equal(result.metric.values, expected.metric.values)
    assert np.array_equal(result.slack, expected.slack)
    assert result.tight_lambda_max == expected.tight_lambda_max
    assert result.to_json() == expected.to_json()


def recorded_calls(monkeypatch, name):
    """Replace contraction.<name> by a wrapper that records each system it gets."""
    fn, seen = getattr(contraction, name), []
    monkeypatch.setattr(contraction, name, lambda system: seen.append(system) or fn(system))
    return seen


# Roots off by more than the last interval, on either side, and far off.
WRONG_ROOTS = {"above": lambda rho: rho + 1e-6, "below": lambda rho: rho - 1e-6,
               "far": lambda rho: 0.2, "bracket_end": lambda rho: contraction.SEARCH_LO}


class TestRootWalk:
    """`max_density` walks the bisection path against the last row's root,
    deciding only near it and confirming both ends, and must return what
    bisection with `decide` at every midpoint returns."""

    @pytest.mark.parametrize("variant", ["clamped", "rigorous", "as_written"])
    @pytest.mark.parametrize("L", sorted(set(DECISION_LS) | set(TABLE_LS)))
    def test_matches_the_bisection_bit_for_bit(self, monkeypatch, L, variant):
        monkeypatch.setattr(contraction, "assemble", ASSEMBLIES.get(variant, assemble))
        rigorous = variant == "rigorous"
        result = max_density(L, rigorous=rigorous)
        assert_same_bound(result, bisect_density(L, rigorous=rigorous))
        assert result.rho_star <= result.root <= result.rho_star + contraction.SEARCH_TOL / 8

    @pytest.mark.parametrize("rigorous", [False, True])
    @pytest.mark.parametrize("wrong", WRONG_ROOTS)
    def test_a_wrong_root_is_walked_again(self, monkeypatch, wrong, rigorous):
        expected = bisect_density(64, rigorous=rigorous)
        root = WRONG_ROOTS[wrong](expected.rho_star)
        monkeypatch.setattr(contraction, "_root", lambda base: root)
        decided = recorded_calls(monkeypatch, "decide")
        swept = recorded_calls(monkeypatch, "_sweep")
        result = max_density(64, rigorous=rigorous)
        assert_same_bound(result, expected)
        assert result.root == root
        assert len(decided) > result.iterations  # an end failed, then every midpoint
        rhos = [system.rho for system in swept]  # the witness reuses the walk's sweep of rho*
        assert len(set(rhos)) == len(rhos) and result.rho_star in rhos

    def test_infeasible_lower_end_is_an_error(self, monkeypatch):
        monkeypatch.setattr(contraction, "decide", lambda system: False)
        with pytest.raises(RuntimeError, match="lower end unexpectedly infeasible"):
            max_density(16)

    # About six sweeps find the root and two confirm the ends; the witness
    # reuses the lower end's sweep.  Bisection took 22.
    @pytest.mark.parametrize("rigorous", [False, True])
    @pytest.mark.parametrize("L", TABLE_LS)
    def test_sweeps_per_search(self, monkeypatch, L, rigorous):
        swept = recorded_calls(monkeypatch, "_sweep")
        result = max_density(L, rigorous=rigorous)
        assert result.iterations == 20
        assert len(swept) <= 9, len(swept)
        rhos = [system.rho for system in swept]
        assert len(set(rhos)) == len(rhos), rhos  # no density is swept twice


class TestSlackReport:
    def test_unit_metric_below_baseline_is_strictly_slack(self):
        system = assemble(0.12, 16)
        residuals, _ = slack_report(system, PiecewiseMetric(values=(1.0,) * 16))
        assert np.all(residuals > 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            slack_report(assemble(0.12, 16), PiecewiseMetric(values=(1.0,) * 8))

    # No stored head (L = 1), no streamed row (L = 2), a head that ends at
    # L // 2 and whole tail blocks (L = 64), and heads that end past L // 2
    # with a partial last block (L = 88; odd-width rows at L = 333, 1170).
    @pytest.mark.parametrize("L", [1, 2, 7, 64, 88, 333, 1170])
    @pytest.mark.parametrize("rigorous", [False, True])
    def test_matches_the_dense_product(self, L, rigorous):
        # Bit for bit: the dense rows cut into the same solve blocks at the
        # same widths, so each matrix-vector product sees the same layout.
        system = assemble(0.1544, L, rigorous)
        metric = contraction.repaired_metric(system)
        d, w, k = metric.values, dense_rows(system), (L + 1) // 2
        sav = np.empty(L)
        for start in range(0, L, SOLVE_BLOCK):
            stop = min(start + SOLVE_BLOCK, L)
            block = np.ascontiguousarray(w[start:stop, : min(k, stop)])
            sav[start:stop] = block @ d[: block.shape[1]]
        dense = system.rho * ((system.mu + system.W) * d - system.g - sav)
        residuals, _ = slack_report(system, metric)
        assert np.array_equal(residuals, dense)


class TestLpFeasibleBox:
    def test_simple_feasible_and_infeasible(self):
        assert feasible_box(np.array([[1.0]]), np.array([0.5]), np.array([1.0]))
        assert not feasible_box(np.array([[1.0]]), np.array([2.0]), np.array([1.0]))

    def test_negative_rhs_rows(self):
        # -x >= -2 is satisfiable within [0, 1]; -x >= 0.5 is not.
        assert feasible_box(np.array([[-1.0]]), np.array([-2.0]), np.array([1.0]))
        assert not feasible_box(np.array([[-1.0]]), np.array([0.5]), np.array([1.0]))

    def test_coupled_system(self):
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert feasible_box(A, np.array([1.0, 0.0]), np.ones(2))
        assert not feasible_box(A, np.array([1.9, 0.5]), np.ones(2))


class TestLpAgreement:
    def test_low_density_always_feasible(self):
        for L in (4, 16, 32):
            assert lp_feasible(assemble(0.10, L))

    def test_high_density_infeasible(self):
        assert not lp_feasible(assemble(0.20, 32))

    def test_agrees_with_sweep_threshold_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            L = int(rng.integers(1, 33))
            rho = float(rng.uniform(0.05, 0.24))
            system = assemble(rho, L)
            sweep = bool(np.all(np.array(minimal_metric(system).values) <= 1.0))
            assert lp_feasible(system) == sweep


class TestFeasible:
    def test_table_anchor_at_l8(self):
        assert feasible(0.150, 8)[0]
        assert not feasible(0.1505, 8)[0]

    def test_table_anchor_at_l256(self):
        assert feasible(0.1544, 256)[0]

    def test_infeasible_returns_no_metric(self):
        ok, metric = feasible(0.2, 32)
        assert not ok and metric is None

    def test_unverified_witness_is_an_error(self, monkeypatch):
        # Half the minimal solution violates every constraint with g_i > 0.
        def halved(system):
            return PiecewiseMetric(values=np.array(minimal_metric(system).values) * 0.5)

        monkeypatch.setattr(contraction, "repaired_metric", halved)
        with pytest.raises(RuntimeError):
            feasible(0.14, 16)
        with pytest.raises(RuntimeError):
            max_density(16)

    def test_hamming_mode_threshold(self):
        # d = 1 with savings disabled: contraction iff c = 1 - 4 rho - eps_hat >= 4 rho
        rho = max_density(4, hamming=True).rho_star
        assert rho == (1.0 - EPSILON_HAT) / 8.0
        assert 1.0 - 4.0 * rho - EPSILON_HAT >= 4.0 * rho
        above = rho + 1e-9
        assert not 1.0 - 4.0 * above - EPSILON_HAT >= 4.0 * above


class TestMaxDensity:
    def test_hamming_baseline(self):
        result = max_density(1, hamming=True)
        assert abs(result.rho_star - 0.125) < 1e-6

    def test_bound_nondecreasing_in_grid_size(self):
        bounds = [max_density(L).rho_star for L in (8, 16, 32)]
        assert bounds == sorted(bounds)

    def test_infeasible_just_above_the_bound(self):
        result = max_density(16)
        assert not feasible(result.rho_star + contraction.SEARCH_TOL, 16)[0]

    def test_ceiling_from_roots(self):
        # tests/ceiling.py; the rigorous roots extrapolate less steadily (README).
        assert abs(extrapolate((512, 1024, 2048)) - 0.15464674705) <= 1e-10

    # The bound approaches the method's ceiling RHO_CEILING as c/L (README),
    # with c = 0.0415 / 0.0420 / 0.0422 at these L.  Scaling g by 1.01 moves
    # c to 0.09 / 0.25 / 0.86, far outside the band.
    @pytest.mark.parametrize("L", [64, 256, 1024])
    def test_ceiling_law(self, L):
        rho = max_density(L).rho_star
        assert rho < RHO_CEILING
        assert 0.035 <= L * (RHO_CEILING - rho) <= 0.05, L * (RHO_CEILING - rho)

    # The cell-covering bound lies below the clamped one and approaches the
    # same ceiling, with c = 0.0543 / 0.0545 / 0.0544 at these L.  Scaling g
    # by 1.01 moves c to 0.10 / 0.26 / 0.87, and w by 0.99 to 0.067 / 0.11 / 0.27.
    @pytest.mark.parametrize("L", [64, 256, 1024])
    def test_rigorous_ceiling_law(self, L):
        rho = max_density(L, rigorous=True).rho_star
        assert rho < max_density(L).rho_star < RHO_CEILING
        assert 0.045 <= L * (RHO_CEILING - rho) <= 0.065, L * (RHO_CEILING - rho)

    def test_variant_agreement_at_moderate_grid(self, monkeypatch):
        a = max_density(64).rho_star
        monkeypatch.setattr(contraction, "assemble", assemble_as_written)
        b = max_density(64).rho_star
        assert abs(a - b) < 1e-5

    @pytest.mark.parametrize("L, variant, rho_star", [
        (3, "clamped", 0.139675007),
        (5, "clamped", 0.144310036),
        (3, "as_written", 0.139675007),
        (64, "as_written", 0.153998642),
    ])
    def test_saturated_rule_decides_feasibility(self, monkeypatch, L, variant, rho_star):
        # Requiring every minimal value <= 1, tail included, gives other
        # bounds here: the tail constraints are pure slack once d = 1 there.
        monkeypatch.setattr(contraction, "assemble", ASSEMBLIES[variant])
        assert abs(max_density(L).rho_star - rho_star) < 1e-6

    def test_epsilon_hat_insensitivity(self, monkeypatch):
        a = max_density(16)
        assert json.loads(a.to_json())["epsilon_hat"] == EPSILON_HAT
        monkeypatch.setattr(contraction, "EPSILON_HAT", 0.0)
        b = max_density(16)
        assert abs(a.rho_star - b.rho_star) < 1e-5
        assert json.loads(b.to_json())["epsilon_hat"] == 0.0

    def test_single_cell_grid_matches_hamming(self):
        # With one cell the metric is pinned at d(4) and no savings exist, so
        # the bound collapses to the unit-metric baseline.
        result = max_density(1)
        assert abs(result.rho_star - 0.125) < 1e-5

    @pytest.mark.parametrize("variant", ASSEMBLIES)
    def test_assembles_once_and_probes_share_the_arrays(self, monkeypatch, variant):
        built = []

        def counted(*args, _fn=ASSEMBLIES[variant]):
            built.append(_fn(*args))
            return built[-1]

        monkeypatch.setattr(contraction, "assemble", counted)
        swept, decided, witnessed = (recorded_calls(monkeypatch, name)
                                     for name in ("_sweep", "decide", "witness"))
        result = max_density(64)
        assert len(built) == 1
        assert len(swept) <= 9  # the root and the confirmed ends; the witness reuses one
        base = built[0]
        for system in swept + decided + witnessed:
            assert system.head is base.head and system.W is base.W
            assert system.last is base.last and system.rows is base.rows and system.g is base.g
        assert [system.rho for system in witnessed] == [result.rho_star]

    def test_json_fields(self):
        payload = json.loads(max_density(8).to_json())
        assert set(payload) == {
            "L", "rho_star", "tol", "variant", "epsilon_hat", "iterations",
            "metric", "tight_lambda_max",
        }
        assert payload["L"] == 8
        assert len(payload["metric"]["values"]) == 8

    def test_tight_up_to_two_radii_then_slack(self):
        result = max_density(64)
        assert result.tight_lambda_max == pytest.approx(2.0)
        grid = 4.0 * np.arange(1, 65) / 64
        slack_region = grid > 2.0 + 4.0 / 64
        assert np.all(result.slack[slack_region] > 0)
