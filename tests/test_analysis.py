"""Rate regression and the two-scheme comparison table."""

import math

import pytest

import tamsde.montecarlo
from tamsde import (ComparisonRow, InputError, MseRow, PathExplosion,
                    PowerTerm, RegressionError, compare_schemes,
                    fit_convergence_rate, get_model)
from tamsde.analysis import (SEED_STRIDE_K, SEED_STRIDE_SCHEME, SEED_STRIDE_T,
                             cell_seed)

from test_scheme import make_term_model

M1 = get_model("model1")

BROWNIAN = make_term_model("brownian", [], [PowerTerm(coeff=1.0)], x0=0.0)


def explode_seed(monkeypatch, bad_seed):
    """Make the adaptive pair with seed bad_seed explode, the rest run."""
    original = tamsde.montecarlo.simulate_coupled_pair

    def pair(model, h0, l0, k, t_end, seed, **kwargs):
        if seed == bad_seed:
            raise PathExplosion("forced", leg="fine")
        return original(model, h0, l0, k, t_end, seed, **kwargs)

    monkeypatch.setattr(tamsde.montecarlo, "simulate_coupled_pair", pair)


def rows_from(points):
    return [MseRow(k=k, delta=2.0 ** -k, n_paths=10, mse=2.0 ** y,
                   log2_mse=y, std_error=0.0, mean_fine_steps=2.0 ** (k + 1),
                   mean_coarse_steps=2.0 ** k)
            for k, y in points]


class TestFitConvergenceRate:
    def test_exact_line_slope_two(self):
        fit = fit_convergence_rate(rows_from([(1, -3.0), (2, -5.0), (3, -7.0)]))
        assert fit.slope == -2.0
        assert fit.intercept == -1.0
        assert fit.empirical_rate == 1.0
        assert fit.alpha_prime == 1.0
        assert fit.r_squared == 1.0
        assert fit.n_points == 3

    def test_exact_line_fractional_slope(self):
        fit = fit_convergence_rate(
            rows_from([(1, -2.6), (2, -4.2), (3, -5.8)]))
        assert fit.slope == pytest.approx(-1.6, abs=1e-12)
        assert fit.empirical_rate == pytest.approx(0.8, abs=1e-12)
        assert fit.alpha_prime == pytest.approx(0.6, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_residual_orthogonality(self):
        pts = [(1, -3.1), (2, -4.9), (3, -7.3), (4, -8.6), (5, -10.2)]
        fit = fit_convergence_rate(rows_from(pts))
        residuals = [y - (fit.slope * k + fit.intercept) for k, y in pts]
        scale = math.fsum(abs(y) for _, y in pts)
        assert abs(math.fsum(residuals)) <= 1e-9 * scale
        assert abs(math.fsum(k * r for (k, _), r in zip(pts, residuals))) <= 1e-9 * scale

    def test_shift_invariance(self):
        pts = [(1, -3.1), (2, -4.9), (3, -7.3), (4, -8.6)]
        base = fit_convergence_rate(rows_from(pts))
        shifted = fit_convergence_rate(
            rows_from([(k, y + 5.0) for k, y in pts]))
        assert shifted.slope == pytest.approx(base.slope, abs=1e-12)
        assert shifted.intercept == pytest.approx(base.intercept + 5.0,
                                                  abs=1e-12)

    def test_scale_invariance_of_slope(self):
        # multiplying every mse by c shifts the intercept by log2 c
        pts = [(1, -3.1), (2, -4.9), (3, -7.3)]
        base = fit_convergence_rate(rows_from(pts))
        c = 8.0
        scaled = fit_convergence_rate(
            rows_from([(k, y + math.log2(c)) for k, y in pts]))
        assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
        assert scaled.intercept == pytest.approx(
            base.intercept + math.log2(c), abs=1e-12)

    def test_flat_responses_give_unit_r_squared(self):
        fit = fit_convergence_rate(rows_from([(1, -5.0), (2, -5.0), (3, -5.0)]))
        assert fit.slope == 0.0 and fit.r_squared == 1.0

    def test_duplicate_levels_allowed(self):
        fit = fit_convergence_rate(
            rows_from([(1, -3.0), (1, -3.2), (2, -5.0), (2, -5.2)]))
        assert fit.n_points == 4

    def test_single_level_rejected(self):
        with pytest.raises(InputError, match="distinct"):
            fit_convergence_rate(rows_from([(2, -3.0), (2, -3.5)]))

    def test_zero_mse_rejected(self):
        rows = rows_from([(1, -3.0), (2, -5.0)])
        zero = MseRow(k=3, delta=0.125, n_paths=10, mse=0.0,
                      log2_mse=-math.inf, std_error=0.0,
                      mean_fine_steps=16.0, mean_coarse_steps=8.0)
        with pytest.raises(RegressionError, match="k=3"):
            fit_convergence_rate(rows + [zero])


class TestCompareSchemes:
    def test_structure_and_tm_work_axis(self):
        rows = compare_schemes(M1, 1.0, 2.0, [1, 2], 30, [1.0, 2.0], 50)
        assert len(rows) == 8
        assert [r.scheme for r in rows[:2]] == ["tam", "tm"]
        for r in rows:
            assert isinstance(r, ComparisonRow)
            if r.scheme == "tm":
                # deterministic grid: N(T) = T/delta exactly
                assert r.log2_nt == math.log2(r.t_end * 2 ** r.k)

    def test_tam_work_axis_uses_mean_coarse_steps(self):
        rows = compare_schemes(M1, 1.0, 2.0, [2], 25, [1.0], 77)
        tam = [r for r in rows if r.scheme == "tam"][0]
        from tamsde import estimate_mse
        direct = estimate_mse(M1, 1.0, 2.0, 2, 25, 1.0,
                              77 + 2 * SEED_STRIDE_K)
        assert tam.log2_nt == math.log2(direct.mean_coarse_steps)
        assert tam.log2_mse == direct.log2_mse

    def test_determinism(self):
        a = compare_schemes(M1, 1.0, 2.0, [1, 2], 20, [1.0], 3)
        b = compare_schemes(M1, 1.0, 2.0, [1, 2], 20, [1.0], 3)
        assert a == b

    def test_degenerate_brownian_comparison(self):
        # both schemes are near-exact for dX = dW from x0=0; mse collapses
        # to float dust for the adaptive legs
        rows = compare_schemes(BROWNIAN, 1.0, 2.0, [2], 10, [1.0], 0)
        tam = [r for r in rows if r.scheme == "tam"][0]
        assert tam.log2_mse < -79.0 or tam.log2_mse == -math.inf

    def test_rows_carry_failure_counts(self, monkeypatch):
        # force one adaptive pair of the k=2 cell to explode; 1 of 200 is
        # below the 1% gate, so the row is kept and must say so
        explode_seed(monkeypatch, cell_seed(77, 200, 2, 0))
        rows = compare_schemes(M1, 1.0, 2.0, [1, 2], 200, [1.0], 77)
        assert [(r.scheme, r.k, r.n_failures) for r in rows] == [
            ("tam", 1, 0), ("tm", 1, 0), ("tam", 2, 1), ("tm", 2, 0)]

    def test_empty_inputs_rejected(self):
        with pytest.raises(InputError):
            compare_schemes(M1, 1.0, 2.0, [], 10, [1.0], 0)
        with pytest.raises(InputError):
            compare_schemes(M1, 1.0, 2.0, [1], 10, [], 0)


class TestCellSeed:
    def test_layout(self):
        assert cell_seed(7, 100, 3, 2) == (7 + 3 * SEED_STRIDE_K
                                           + 2 * SEED_STRIDE_T)
        assert cell_seed(7, 100, 3, 2, baseline=True) == (
            cell_seed(7, 100, 3, 2) + SEED_STRIDE_SCHEME)

    def test_largest_cells_end_where_the_next_stride_starts(self):
        assert cell_seed(0, 2 ** 32, 255, 0) + 2 ** 32 == cell_seed(0, 1, 0, 1)
        assert cell_seed(0, 2 ** 32, 255, 1023) + 2 ** 32 == cell_seed(
            0, 1, 0, 0, baseline=True)

    @pytest.mark.parametrize("n_paths, index, t_idx", [
        (2 ** 32 + 1, 1, 0),   # runs into the next level's cell
        (10, 256, 0),          # reaches the horizon stride
        (10, 1, 1024),         # reaches the baseline offset
        (10, -1, 0), (10, 1, -1), (10, 1.0, 0), (True, 1, 0)])
    def test_overlapping_cells_rejected(self, n_paths, index, t_idx):
        with pytest.raises(InputError, match="disjoint"):
            cell_seed(0, n_paths, index, t_idx)

    @pytest.mark.parametrize("base_seed", [-1, 1.0, True])
    def test_base_seed_must_be_a_non_negative_integer(self, base_seed):
        with pytest.raises(InputError, match="non-negative integer"):
            cell_seed(base_seed, 10, 1, 0)
