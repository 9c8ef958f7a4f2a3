"""One-step maps, the adaptive step rule, and single-path simulation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamsde import (InputError, NoiseSource, PathExplosion, PowerSum,
                    PowerSumDerivative, PowerTerm, RegularityConstants,
                    SchemeConfig, SdeModel, adaptive_step,
                    evaluate_coefficients, exact_gbm_terminal, get_model,
                    interpolate, simulate_path, tam_step, tamed_correction,
                    tm_step)

M1 = get_model("model1")
M2 = get_model("model2")
GBM = get_model("gbm")


def make_term_model(name, drift_terms, diffusion_terms, x0=0.0, l=0.0,
                    alpha=1.0, p0=None):
    reg = RegularityConstants(alpha=alpha, l=l, gamma=1.0, eta=1.0,
                              lambda_os=1.0,
                              p0=4 * (l + alpha + 1) if p0 is None else p0)
    return SdeModel(name=name,
                    drift=PowerSum(tuple(drift_terms)),
                    diffusion=PowerSum(tuple(diffusion_terms)),
                    drift_prime=PowerSumDerivative(tuple(drift_terms)),
                    diffusion_prime=PowerSumDerivative(tuple(diffusion_terms)),
                    regularity=reg, x0=x0)


FLAT = make_term_model("flat", [], [], x0=0.0)
BROWNIAN = make_term_model("brownian", [], [PowerTerm(coeff=1.0)], x0=5.0)
DRIFT_ONLY = make_term_model("drift_only", [PowerTerm(coeff=2.0)], [], x0=1.0)

xs = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
deltas = st.floats(min_value=1e-12, max_value=0.999999, allow_nan=False)


class TestSchemeConfig:
    def test_accepts_valid(self):
        cfg = SchemeConfig(delta=0.25, t_end=5.0)
        assert cfg.h0 == 1.0 and cfg.l0 == 2.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_delta_range(self, bad):
        with pytest.raises(InputError, match="delta"):
            SchemeConfig(delta=bad, t_end=1.0)

    def test_t_end_positive(self):
        with pytest.raises(InputError, match="t_end"):
            SchemeConfig(delta=0.5, t_end=0.0)

    def test_t_end_finite(self):
        # an infinite horizon would run one path to its step budget while
        # simulate_path stores every step
        with pytest.raises(InputError, match="t_end"):
            SchemeConfig(delta=0.5, t_end=math.inf)

    def test_h0_positive(self):
        with pytest.raises(InputError, match="h0"):
            SchemeConfig(delta=0.5, t_end=1.0, h0=0.0)
        # an infinite h0 would make every adaptive step jump to t_end
        with pytest.raises(InputError, match="h0 must be finite, got inf"):
            SchemeConfig(delta=0.5, t_end=1.0, h0=math.inf)

    def test_l0_at_least_two(self):
        with pytest.raises(InputError, match="l0"):
            SchemeConfig(delta=0.5, t_end=1.0, l0=1.5)
        with pytest.raises(InputError, match="l0 must be finite, got inf"):
            SchemeConfig(delta=0.5, t_end=1.0, l0=math.inf)

    def test_max_steps_positive(self):
        with pytest.raises(InputError, match="max_steps"):
            SchemeConfig(delta=0.5, t_end=1.0, max_steps=0)

    @pytest.mark.parametrize("field, value", [
        ("delta", "0.5"), ("t_end", None), ("h0", True), ("l0", [3.0]),
        pytest.param("t_end", 10 ** 400, id="t_end-10**400"),
        ("max_steps", "10"), ("max_steps", None),
        ("max_steps", 1.5), ("max_steps", math.inf), ("max_steps", False)])
    def test_non_real_fields_rejected(self, field, value):
        args = dict(delta=0.5, t_end=1.0)
        args[field] = value
        with pytest.raises(InputError, match=field):
            SchemeConfig(**args)

    def test_fields_normalised(self):
        cfg = SchemeConfig(delta=np.float64(0.25), t_end=2, h0=Fraction(1, 2),
                           l0=np.int64(3), max_steps=1e8)
        assert (cfg.delta, cfg.t_end, cfg.h0, cfg.l0) == (0.25, 2.0, 0.5, 3.0)
        assert all(type(v) is float for v in (cfg.delta, cfg.t_end, cfg.h0,
                                              cfg.l0))
        assert type(cfg.max_steps) is int and cfg.max_steps == 10 ** 8
        assert SchemeConfig(delta=0.5, t_end=1.0,
                            max_steps=np.int64(7)).max_steps == 7
        assert SchemeConfig(delta=0.5, t_end=1.0,
                            max_steps=2 ** 70).max_steps == 2 ** 70


@pytest.mark.parametrize("function, args", [
    (tamed_correction, (M1, "0.1", 0.25)),
    (tamed_correction, (M1, 0.1, "0.25")),
    (tm_step, (M1, "0.1", 0.25, 0.1)),
    (tm_step, (M1, 0.1, 0.25, None)),
    (tam_step, (M1, 0.1, 0.25, "0.1", 0.0)),
    (tam_step, (M1, [0.1], 0.25, 0.1, 0.0)),
    (interpolate, (M1, 0.1, "0", 0.5, 0.25, 0.0)),
    (interpolate, (M1, 0.1, 0.0, 0.5, 0.25, "0")),
    (adaptive_step, (M1, SchemeConfig(0.25, 1.0), "0.1")),
    (evaluate_coefficients, (M1, "0.1"))],
    ids=["tamed_correction-x", "tamed_correction-delta", "tm_step-x",
         "tm_step-dW", "tam_step-dt", "tam_step-x", "interpolate-t_grid",
         "interpolate-dW", "adaptive_step-x", "evaluate_coefficients-x"])
def test_one_step_maps_reject_non_real_arguments(function, args):
    with pytest.raises(InputError, match="real number"):
        function(*args)


class TestTamedCorrection:
    def test_model1_small_state(self):
        # sigma*sigma' = 0.01 at x=1; q = 0.01/(1 + 0.5*0.01)
        got = tamed_correction(M1, 1.0, 0.25)
        assert got == pytest.approx(0.01 / 1.005, rel=1e-15)

    def test_model1_large_state_respects_cap(self):
        # sigma*sigma' = 10 at x=1000; q = 10/6 stays below 1/sqrt(delta)=2
        got = tamed_correction(M1, 1000.0, 0.25)
        assert got == pytest.approx(10.0 / 6.0, rel=1e-15)
        assert abs(got) <= 2.0

    def test_zero_diffusion_gives_zero(self):
        assert tamed_correction(M1, 0.0, 0.25) == 0.0
        assert tamed_correction(FLAT, 3.0, 0.25) == 0.0
        assert tamed_correction(BROWNIAN, 3.0, 0.25) == 0.0

    def test_sign_follows_sigma_sigma_prime(self):
        assert tamed_correction(M1, -2.0, 0.25) < 0.0 < tamed_correction(M1, 2.0, 0.25)

    def test_delta_validated(self):
        with pytest.raises(InputError):
            tamed_correction(M1, 1.0, 0.0)
        with pytest.raises(InputError):
            tamed_correction(M1, 1.0, 1.0)

    def test_infinite_product_saturates_at_cap(self):
        spike = make_term_model("spike", [], [PowerTerm(coeff=1.0, power=200)],
                                x0=1.0)
        # sigma*sigma' overflows to inf at this x; q must sit at the cap
        assert tamed_correction(spike, 1e300, 0.25) == 2.0
        assert tamed_correction(spike, -1e300, 0.25) == -2.0

    @given(x=xs, delta=deltas)
    @settings(max_examples=500, deadline=None)
    def test_taming_bounds_property(self, x, delta):
        for model in (M1, M2):
            g = model.diffusion(x) * model.diffusion_prime(x)
            q = tamed_correction(model, x, delta)
            assert abs(q) <= delta ** -0.5 * (1 + 4e-16)
            assert abs(q) <= abs(g)
            # the consistency bound needs absolute slack too: when
            # sqrt(delta)*|g| is tiny, rounding 1 + sqrt(delta)*|g| puts an
            # error of order ulp(1)*|g| into q, and g - q subtracts exactly
            assert abs(g - q) <= (math.sqrt(delta) * g * g * (1 + 4e-16)
                                  + 4 * math.ulp(abs(g)))


class TestAdaptiveStep:
    def test_model1_origin_oracle(self):
        # base = 1 + mu'(0) + sigma'(0)^4 = 1.1001; step = 0.25/1.1001^2
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        got = adaptive_step(M1, cfg, 0.0)
        assert got == pytest.approx(0.25 / 1.1001 ** 2, rel=1e-15)

    def test_model1_at_two_recomputed(self):
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        q = tamed_correction(M1, 2.0, 0.25)
        base = 1.0 + 0.6 ** 2 + 1.1 + 0.2 ** 4 + 0.1 ** 4 + abs(q) + 4.0
        assert adaptive_step(M1, cfg, 2.0) == pytest.approx(
            0.25 / base ** 2, rel=1e-14)

    def test_degenerate_model_gets_full_step(self):
        cfg = SchemeConfig(delta=0.25, t_end=1.0, h0=0.5)
        assert adaptive_step(FLAT, cfg, 0.0) == 0.5 * 0.25

    def test_astronomical_state_saturates_positive(self):
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        got = adaptive_step(M1, cfg, 1e300)
        assert got > 0.0

    @given(x=xs, delta=deltas)
    @settings(max_examples=500, deadline=None)
    def test_step_in_range_property(self, x, delta):
        cfg = SchemeConfig(delta=delta, t_end=1.0, h0=1.0)
        for model in (M1, M2, GBM):
            step = adaptive_step(model, cfg, x)
            assert 0.0 < step <= cfg.h0 * delta * (1 + 1e-15)

    def test_monotone_in_coefficient_scale(self):
        # inflating the drift shrinks the step, all else equal
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        steps = []
        for c in (1.0, 2.0, 4.0, 8.0):
            model = make_term_model("scaled", [PowerTerm(coeff=c, power=1)],
                                    [], x0=0.0, l=1.0)
            steps.append(adaptive_step(model, cfg, 1.0))
        assert steps == sorted(steps, reverse=True)
        assert steps[0] > steps[-1]

    def test_monotone_in_state(self):
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        a = adaptive_step(BROWNIAN, cfg, 1.0)
        b = adaptive_step(BROWNIAN, cfg, 2.0)
        assert b < a


class TestOneStepMaps:
    def test_tam_step_pure_brownian(self):
        assert tam_step(BROWNIAN, 5.0, 0.25, 0.1, 0.3) == 5.3

    def test_tam_step_model1_oracle(self):
        # x=0.1: mu=0.0099, sigma=0.01, q=0.001/(1+0.5*0.001)
        q = 0.001 / (1.0 + 0.5 * 0.001)
        want = 0.1 + 0.0099 * 0.2 + 0.0 + 0.5 * q * (0.0 - 0.2)
        got = tam_step(M1, 0.1, 0.25, 0.2, 0.0)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.101880, abs=5e-7)

    def test_tam_step_correction_vanishes_when_dw_squared_equals_dt(self):
        dt = 0.04
        dW = 0.2  # dW^2 == dt exactly
        got = tam_step(M1, 0.3, 0.25, dt, dW)
        assert got == 0.3 + M1.drift(0.3) * dt + M1.diffusion(0.3) * dW

    def test_tam_step_degenerate_noise_is_euler(self):
        got = tam_step(DRIFT_ONLY, 1.0, 0.5, 0.125, 0.0)
        assert got == 1.0 + 2.0 * 0.125

    def test_tam_step_validates_inputs(self):
        with pytest.raises(InputError, match="dt"):
            tam_step(M1, 0.1, 0.25, 0.0, 0.0)
        with pytest.raises(InputError, match="delta"):
            tam_step(M1, 0.1, 0.0, 0.1, 0.0)

    def test_tm_step_model1_oracle(self):
        # x=1: mu=0, sigma*sigma'=0.01; 1 + [0.005*(0-0.5)]/(1+0.5)
        got = tm_step(M1, 1.0, 0.5, 0.0)
        assert got == pytest.approx(1.0 - 0.0025 / 1.5, rel=1e-15)
        assert got == pytest.approx(0.998333, abs=5e-7)

    def test_tm_step_tames_diffusion_too(self):
        got = tm_step(BROWNIAN, 10.0, 0.25, 1.0)
        assert got == pytest.approx(10.0 + 1.0 / 26.0, rel=1e-15)

    def test_tm_step_at_origin_is_untamed(self):
        # taming factor 1 + delta*0 = 1
        got = tm_step(M2, 0.0, 0.25, 0.1)
        want = 0.0 + (-0.1 * 0.25 + 0.3 * 0.1 + 0.0)
        assert got == pytest.approx(want, rel=1e-15)


class TestInterpolate:
    def test_zero_length_is_identity(self):
        assert interpolate(M1, 0.7, 2.0, 2.0, 0.25, 0.0) == 0.7

    def test_matches_tam_step_bitwise(self):
        for x, dt, dW in [(0.1, 0.2, 0.05), (-1.3, 0.01, -0.4), (2.0, 0.5, 1.0)]:
            via_interp = interpolate(M2, x, 1.0, 1.0 + dt, 0.125, dW)
            via_step = tam_step(M2, x, 0.125, (1.0 + dt) - 1.0, dW)
            assert via_interp == via_step

    def test_rejects_past_times(self):
        with pytest.raises(InputError):
            interpolate(M1, 0.1, 1.0, 0.5, 0.25, 0.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("fn, args", [
    (tamed_correction, (M1, NAN, 0.25)),
    (adaptive_step, (M1, SchemeConfig(0.25, 1.0), INF)),
    (tam_step, (M1, NAN, 0.25, 0.1, 0.1)),
    (tam_step, (M1, 1.0, 0.25, INF, 0.1)),
    (tam_step, (M1, 1.0, 0.25, 0.1, -INF)),
    (tm_step, (M1, INF, 0.25, 0.1)),
    (tm_step, (M1, 1.0, 0.25, NAN)),
    (interpolate, (M1, NAN, 0.0, 0.25, 0.25, 0.1)),
    (interpolate, (M1, 1.0, NAN, 0.25, 0.25, 0.1)),
    (interpolate, (M1, 1.0, 0.0, NAN, 0.25, 0.1)),
    (interpolate, (M1, 1.0, 0.0, INF, 0.25, 0.1)),
    (interpolate, (M1, 1.0, 0.0, 0.25, 0.25, INF)),
    (exact_gbm_terminal, (NAN, 0.2, 1.0, 1.0, 0.0)),
    (exact_gbm_terminal, (0.05, INF, 1.0, 1.0, 0.0)),
    (exact_gbm_terminal, (0.05, 0.2, NAN, 1.0, 0.0)),
    (exact_gbm_terminal, (0.05, 0.2, 1.0, INF, 0.0)),
    (exact_gbm_terminal, (0.05, 0.2, 1.0, NAN, 0.0)),
    (exact_gbm_terminal, (0.05, 0.2, 1.0, 1.0, NAN))],
    ids=["tamed_correction-x", "adaptive_step-x", "tam_step-x", "tam_step-dt",
         "tam_step-dW", "tm_step-x", "tm_step-dW", "interpolate-x_grid",
         "interpolate-t_grid", "interpolate-t-nan", "interpolate-t-inf",
         "interpolate-dW", "exact_gbm-a", "exact_gbm-b", "exact_gbm-x0",
         "exact_gbm-t_end-inf", "exact_gbm-t_end-nan", "exact_gbm-w_t"])
def test_non_finite_arguments_are_input_errors(fn, args):
    # never a NaN or infinite result read off a NaN or infinite argument
    with pytest.raises(InputError, match="must be finite"):
        fn(*args)


class TestSimulatePath:
    def test_flat_model_counts_and_values(self):
        # maximal step everywhere: ceil(1 / 0.25) = 4 steps, constant value
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        traj = simulate_path(FLAT, cfg, NoiseSource(0))
        assert traj.step_count == 4
        assert list(traj.times) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(v == FLAT.x0 for v in traj.values)

    def test_flat_model_clamped_last_step(self):
        cfg = SchemeConfig(delta=0.25, t_end=1.1)
        traj = simulate_path(FLAT, cfg, NoiseSource(0))
        assert traj.step_count == 5
        assert traj.times[-1] == 1.1

    def test_trajectory_shape_invariants(self):
        cfg = SchemeConfig(delta=0.125, t_end=2.0)
        traj = simulate_path(M1, cfg, NoiseSource(42))
        assert len(traj.times) == len(traj.values) == traj.step_count + 1
        assert len(traj.increments) == traj.step_count
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 2.0
        assert np.all(np.diff(traj.times) > 0)
        assert np.max(np.diff(traj.times)) <= cfg.h0 * cfg.delta * (1 + 1e-15)

    def test_replay_with_tam_step_is_bit_exact(self):
        # the recorded grid and increments fully determine the path through
        # the public one-step map
        cfg = SchemeConfig(delta=0.125, t_end=3.0)
        for model, seed in [(M1, 7), (M2, 8), (GBM, 9)]:
            traj = simulate_path(model, cfg, NoiseSource(seed))
            x = model.x0
            for i in range(traj.step_count):
                dt = traj.times[i + 1] - traj.times[i]
                x = tam_step(model, x, cfg.delta, float(dt),
                             float(traj.increments[i]))
                assert x == traj.values[i + 1]

    def test_deterministic_given_seed(self):
        cfg = SchemeConfig(delta=0.125, t_end=5.0)
        a = simulate_path(M1, cfg, NoiseSource(123))
        b = simulate_path(M1, cfg, NoiseSource(123))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.times, b.times)
        assert a.step_count == b.step_count

    def test_distinct_seeds_differ(self):
        cfg = SchemeConfig(delta=0.125, t_end=1.0)
        a = simulate_path(M1, cfg, NoiseSource(1))
        b = simulate_path(M1, cfg, NoiseSource(2))
        assert a.values[-1] != b.values[-1]

    def test_noise_clock_advances_to_horizon(self):
        cfg = SchemeConfig(delta=0.125, t_end=2.5)
        noise = NoiseSource(5)
        simulate_path(M1, cfg, noise)
        assert noise.current_time == pytest.approx(2.5, rel=1e-12)

    def test_max_steps_explosion(self):
        cfg = SchemeConfig(delta=0.125, t_end=1.0, max_steps=3)
        with pytest.raises(PathExplosion) as err:
            simulate_path(M1, cfg, NoiseSource(0))
        assert err.value.steps == 3
        assert err.value.time is not None

    def test_nonfinite_state_explosion(self):
        # pure deterministic blow-up: dx = x^5 dt from x0=2 doubles fast
        # enough that the float state overflows before max_steps
        hot = make_term_model("hot", [PowerTerm(coeff=1e150, power=3)], [],
                              x0=1e80, l=3.0, p0=24.0)
        cfg = SchemeConfig(delta=0.5, t_end=1e300, l0=4.0, max_steps=10_000)
        with pytest.raises(PathExplosion):
            simulate_path(hot, cfg, NoiseSource(0))

    def test_nonfinite_terminal_state_explosion(self):
        # a horizon shorter than the first step: the one and only step
        # lands on t_end with an overflowed state, which must not be
        # returned as a terminal value
        hot = make_term_model("hot", [PowerTerm(coeff=1e150, power=3)], [],
                              x0=1e80, l=3.0, p0=24.0)
        cfg = SchemeConfig(delta=0.5, t_end=5e-324, l0=4.0)
        with pytest.raises(PathExplosion, match="non-finite") as err:
            simulate_path(hot, cfg, NoiseSource(0))
        assert err.value.time == 5e-324
        assert err.value.steps == 1
        assert err.value.state == math.inf

    def test_l0_below_model_requirement_rejected(self):
        steep = make_term_model("steep", [PowerTerm(coeff=1.0, power=7)], [],
                                x0=0.0, l=6.0, p0=32.0)
        cfg = SchemeConfig(delta=0.25, t_end=1.0, l0=2.0)
        with pytest.raises(InputError, match="l0"):
            simulate_path(steep, cfg, NoiseSource(0))
        ok = SchemeConfig(delta=0.25, t_end=1.0, l0=4.0)
        simulate_path(steep, ok, NoiseSource(0))

    def test_brownian_terminal_is_x0_plus_w(self):
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        noise = NoiseSource(31)
        traj = simulate_path(BROWNIAN, cfg, noise)
        w = math.fsum(float(d) for d in traj.increments)
        assert traj.values[-1] == pytest.approx(5.0 + w, abs=1e-12)
