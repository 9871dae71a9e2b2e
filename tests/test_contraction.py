"""Tests for the discretized contraction system, feasibility, and the search."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate

from harddisks import contraction, lp
from harddisks.contraction import (
    EPSILON_HAT,
    assemble,
    feasible,
    lp_feasible,
    max_density,
    minimal_metric,
    saturated_metric,
    slack_report,
)
from harddisks.geometry import crescent_angle, crescent_angle_array, crescent_area
from harddisks.metric import PiecewiseMetric, analytic_small_ell, check_axioms

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


def quadrature_kernel(L, variant, order=16):
    """Gauss-Legendre oracle for the savings integrals I of exact_kernel.

    Each cell is split at the kernel kinks u = |lam_i - 2| and, in the clamped
    variant, truncated at the danger-zone radius u = 2.
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
    """The savings integrals I of the assembled system, with the factor rho/pi removed."""
    return assemble(0.125, L, variant=variant).w * (np.pi / 0.125)


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
        for rho in (0.05, 0.14, 0.2):
            system = assemble(rho, 32)
            assert system.g[-1] == pytest.approx(4.0 * rho, rel=1e-12)

    def test_area_terms_strictly_increasing(self):
        system = assemble(0.14, 64)
        assert np.all(np.diff(system.g) > 0)

    def test_weights_nonnegative_and_lower_triangular(self):
        system = assemble(0.14, 32)
        assert np.all(system.w >= 0)
        assert np.allclose(np.triu(system.w), 0.0)

    def test_no_weight_inside_fully_blocked_radius(self):
        # Proposals closer than 2 - lam to the displaced center are blocked
        # in both chains, so those subintervals carry zero weight.
        L = 32
        system = assemble(0.14, L)
        h = 4.0 / L
        for i in range(L):
            lam = system.grid[i]
            for j in range(i):
                if (j + 1) * h <= 2.0 - lam:
                    assert system.w[i, j] == 0.0

    def test_row_sums_bounded_by_kernel_cap(self):
        system = assemble(0.14, 64)
        caps = 0.14 * system.grid**2
        assert np.all(system.w.sum(axis=1) <= caps + 1e-12)
        # Clamped rows whose cells reach u = 2 integrate the kernel over the
        # whole crescent: F(lam, 2) is its area.
        sums = exact_kernel(64, "clamped").sum(axis=1)
        full = system.grid - 4.0 / 64 >= 2.0
        assert np.allclose(sums[full], crescent_area(system.grid[full]), rtol=0.0, atol=1e-12)

    def test_closed_form_matches_gauss_legendre(self):
        # The 16-point rule is off by up to 3.4e-5 in the cells that start at
        # the kernel's square-root kink u = 2 - lam.
        for variant in contraction.VARIANTS:
            exact = exact_kernel(64, variant)
            quad = quadrature_kernel(64, variant)
            assert np.array_equal(exact == 0.0, quad == 0.0)
            assert np.allclose(exact, quad, rtol=5e-5, atol=0.0), variant

    @pytest.mark.parametrize("variant", contraction.VARIANTS)
    def test_closed_form_matches_adaptive_quadrature(self, variant):
        L = 64
        h = 4.0 / L
        exact = exact_kernel(L, variant)
        for i, j in zip(*np.nonzero(exact)):
            ref = adaptive_cell_integral((i + 1) * h, j * h, (j + 1) * h, variant)
            assert exact[i, j] == pytest.approx(ref, rel=1e-10, abs=0.0), (i, j)

    def test_contraction_margin(self):
        system = assemble(0.14, 8)
        assert system.c == pytest.approx(1.0 - 4 * 0.14 - EPSILON_HAT)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            assemble(0.3, 8)
        with pytest.raises(ValueError):
            assemble(-0.1, 8)
        with pytest.raises(ValueError):
            assemble(0.14, 0)
        with pytest.raises(ValueError):
            assemble(0.14, 8, variant="bogus")


class TestMinimalMetric:
    def test_zero_savings_reduces_to_analytic_form(self):
        system = assemble(0.14, 16, epsilon_hat=0.0)
        stripped = dataclasses.replace(system, w=np.zeros_like(system.w))
        d = minimal_metric(stripped).values
        for lam, v in zip(stripped.grid, d):
            expect = 0.14 / (math.pi * (1 - 4 * 0.14)) * contraction.crescent_area(lam)
            assert v == pytest.approx(expect, rel=1e-12)

    def test_cells_below_one_radius_match_analytic_form(self):
        # No savings exist for displacements below one radius, so the sweep
        # reproduces the closed form there.
        system = assemble(0.14, 64, epsilon_hat=0.0)
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
        bad = dataclasses.replace(system, rho=0.2500001 - EPSILON_HAT, epsilon_hat=1.0)
        with pytest.raises(ValueError):
            minimal_metric(bad)


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


def looped_repaired_metric(system):
    """Reference tail completion, one pair at a time."""
    m = np.array(minimal_metric(system).values)
    cut = int(np.searchsorted(system.grid, 2.0, side="right"))
    d = np.maximum(m, system.grid / 4.0)
    for i in range(cut, system.L):
        best = 1.0
        for j in range(i):
            best = min(best, d[j] + d[i - 1 - j])
        d[i] = max(best, m[i], d[i - 1])
    return tuple(d)


class TestRepairedMetric:
    def test_tail_matches_looped_reference(self):
        for rho, L in ((0.14, 1), (0.05, 8), (0.13, 33), (0.1544, 256)):
            system = assemble(rho, L)
            assert contraction.repaired_metric(system).values == looped_repaired_metric(system)

    def test_passes_axioms_across_densities(self):
        for rho in (0.03, 0.10, 0.112, 0.13, 0.153):
            m = contraction.repaired_metric(assemble(rho, 32))
            assert check_axioms(m).passed, rho

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


class TestSlackReport:
    def test_unit_metric_below_baseline_is_strictly_slack(self):
        system = assemble(0.12, 16)
        residuals, _ = slack_report(system, PiecewiseMetric(values=(1.0,) * 16))
        assert np.all(residuals > 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            slack_report(assemble(0.12, 16), PiecewiseMetric(values=(1.0,) * 8))


class TestLpFeasibleBox:
    def test_simple_feasible_and_infeasible(self):
        assert lp.feasible_box(np.array([[1.0]]), np.array([0.5]), np.array([1.0]))
        assert not lp.feasible_box(np.array([[1.0]]), np.array([2.0]), np.array([1.0]))

    def test_negative_rhs_rows(self):
        # -x >= -2 is satisfiable within [0, 1]; -x >= 0.5 is not.
        assert lp.feasible_box(np.array([[-1.0]]), np.array([-2.0]), np.array([1.0]))
        assert not lp.feasible_box(np.array([[-1.0]]), np.array([0.5]), np.array([1.0]))

    def test_coupled_system(self):
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert lp.feasible_box(A, np.array([1.0, 0.0]), np.ones(2))
        assert not lp.feasible_box(A, np.array([1.9, 0.5]), np.ones(2))


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
        limit = (1.0 - EPSILON_HAT) / 8.0
        assert feasible(limit - 1e-9, 4, hamming=True)[0]
        assert not feasible(limit + 1e-9, 4, hamming=True)[0]


class TestMaxDensity:
    def test_hamming_baseline(self):
        result = max_density(1, hamming=True)
        assert abs(result.rho_star - 0.125) < 1e-6

    def test_bound_nondecreasing_in_grid_size(self):
        bounds = [max_density(L).rho_star for L in (8, 16, 32)]
        assert bounds == sorted(bounds)

    def test_infeasible_just_above_the_bound(self):
        result = max_density(16)
        assert not feasible(result.rho_star + result.tol, 16)[0]

    def test_variant_agreement_at_moderate_grid(self):
        a = max_density(64, variant="clamped").rho_star
        b = max_density(64, variant="as_written").rho_star
        assert abs(a - b) < 1e-5

    @pytest.mark.parametrize("L, variant, rho_star", [
        (3, "clamped", 0.139675007),
        (5, "clamped", 0.144310036),
        (3, "as_written", 0.139675007),
        (64, "as_written", 0.153998642),
    ])
    def test_saturated_rule_decides_feasibility(self, L, variant, rho_star):
        # Requiring every minimal value <= 1, tail included, gives other
        # bounds here: the tail constraints are pure slack once d = 1 there.
        assert abs(max_density(L, variant=variant).rho_star - rho_star) < 1e-6

    def test_epsilon_hat_insensitivity(self):
        a = max_density(16).rho_star
        b = max_density(16, epsilon_hat=0.0).rho_star
        assert abs(a - b) < 1e-5

    def test_single_cell_grid_matches_hamming(self):
        # With one cell the metric is pinned at d(4) and no savings exist, so
        # the bound collapses to the unit-metric baseline.
        result = max_density(1)
        assert abs(result.rho_star - 0.125) < 1e-5

    def test_rejects_too_fine_tolerance(self):
        with pytest.raises(ValueError):
            max_density(8, tol=1e-12)

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
