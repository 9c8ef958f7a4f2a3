"""Noise sources and the two-leg coupled simulations."""

import math

import numpy as np
import pytest

from tamsde import (InputError, NoiseSource, PathExplosion, PowerTerm,
                    SchemeConfig, get_model, kernel, simulate_coupled_pair,
                    simulate_coupled_tm_pair, simulate_path)
from tamsde.driver import _merge
from tamsde.scheme import _tam_leg, _tm_leg

from test_scheme import make_term_model

M1 = get_model("model1")
M2 = get_model("model2")
GBM = get_model("gbm")

BROWNIAN = make_term_model("brownian", [], [PowerTerm(coeff=1.0)], x0=0.0)
CONST_DRIFT = make_term_model("const_drift", [PowerTerm(coeff=0.7)], [], x0=0.2)


class TestNoiseSource:
    def test_seed_validation(self):
        for bad in (-1, 1.5, "x", None, True):
            with pytest.raises(InputError):
                NoiseSource(bad)

    def test_duration_validation(self):
        src = NoiseSource(0)
        for bad in (0.0, -1.0, math.inf, math.nan, True):
            with pytest.raises(InputError):
                src.gaussian_increment(bad)

    def test_determinism(self):
        a = NoiseSource(99)
        b = NoiseSource(99)
        seq_a = [a.gaussian_increment(0.5) for _ in range(5000)]
        seq_b = [b.gaussian_increment(0.5) for _ in range(5000)]
        assert seq_a == seq_b

    def test_distinct_seeds_distinct_streams(self):
        a = NoiseSource(1).gaussian_increment(1.0)
        b = NoiseSource(2).gaussian_increment(1.0)
        assert a != b

    def test_clock(self):
        src = NoiseSource(0)
        src.gaussian_increment(0.25)
        src.gaussian_increment(0.5)
        assert src.current_time == 0.75

    def test_moments(self):
        # mean, variance and fourth moment of N(0, d) at d = 0.3
        d = 0.3
        n = 1_000_000
        src = NoiseSource(2024)
        draw = src.gaussian_increment
        vals = np.fromiter((draw(d) for _ in range(n)), dtype=float, count=n)
        assert abs(vals.mean()) <= 4.0 * math.sqrt(d / n)
        assert abs(vals.var() - d) <= 0.02 * d
        fourth = float(np.mean(vals ** 4))
        assert abs(fourth - 3 * d * d) <= 0.05 * 3 * d * d

    def test_variance_scales_with_duration(self):
        src = NoiseSource(7)
        short = [src.gaussian_increment(0.01) for _ in range(20000)]
        src2 = NoiseSource(7)
        long = [src2.gaussian_increment(1.0) for _ in range(20000)]
        # same normals, different scaling: ratio of sample sds is sqrt(100)
        assert np.std(long) / np.std(short) == pytest.approx(10.0, rel=1e-9)


@pytest.fixture(params=["kernel", "numpy"])
def engine(request, monkeypatch):
    """Each test twice: with the kernel loaded and as in a process that
    cannot load it."""
    if request.param == "numpy":
        monkeypatch.setattr(kernel, "library", lambda: None)
    elif kernel.library() is None:
        pytest.skip("the kernel cannot be built here")
    return request.param


def numpy_stream(seed, n):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed))).standard_normal(n)


class TestStream:
    # a source draws on numpy's Philox whether or not the kernel loads (it
    # never consults the kernel), and so does a path, so these tie both to
    # numpy's stream
    @pytest.mark.parametrize("seed", [0, 2 ** 40 + 3, 2 ** 130 + 1],
                             ids=["0", "2**40+3", "2**130+1"])
    def test_increments_are_numpys_normals(self, seed):
        d, n = 0.3, 3 * 1024 + 5
        source = NoiseSource(seed)
        got = [source.gaussian_increment(d) for _ in range(n)]
        assert got == (math.sqrt(d) * numpy_stream(seed, n)).tolist()

    def test_stream_goes_on_after_a_path(self, engine):
        # a path, then the source's own draws across the next block
        # boundary
        seed, d = 2 ** 40 + 3, 0.25
        source = NoiseSource(seed)
        traj = simulate_path(M1, SchemeConfig(2.0 ** -4, 2.0), source)
        n = traj.step_count
        after = [source.gaussian_increment(d) for _ in range(1100)]
        want = numpy_stream(seed, n + 1100)
        dt = np.diff(traj.times)
        assert traj.increments.tolist() == [
            math.sqrt(t) * z for t, z in zip(dt.tolist(), want[:n].tolist())]
        assert after == (math.sqrt(d) * want[n:]).tolist()


class RecordingNoise:
    """NoiseSource stand-in that keeps every increment it hands out."""

    def __init__(self, seed):
        self._source = NoiseSource(seed)
        self.draws = []

    def gaussian_increment(self, duration):
        dz = self._source.gaussian_increment(duration)
        self.draws.append(dz)
        return dz


def recording(leg):
    """Wrap a (propose, advance) leg; returns it and its applied increments."""
    propose, advance = leg
    applied = []

    def recorded_advance(x, dt, dW):
        applied.append(dW)
        return advance(x, dt, dW)

    return (propose, recorded_advance), applied


def assert_brownian_sums_agree(fine, coarse, x0, t_end, seed):
    # each leg's applied increments must reassemble the W_T that was drawn
    fine, applied_f = recording(fine)
    coarse, applied_c = recording(coarse)
    noise = RecordingNoise(seed)
    _merge(fine, coarse, x0, t_end, noise, 10 ** 8)
    w_total = math.fsum(noise.draws)
    assert len(applied_f) > len(applied_c) > 0
    assert abs(math.fsum(applied_f) - w_total) <= 1e-12
    assert abs(math.fsum(applied_c) - w_total) <= 1e-12


@pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
@pytest.mark.parametrize("run", [
    lambda seed: simulate_coupled_pair(M1, 1.0, 2.0, 2, 1.0, seed),
    lambda seed: simulate_coupled_tm_pair(M1, 2, 1.0, seed)],
    ids=["adaptive", "fixed"])
def test_seed_checked_before_the_kernel(monkeypatch, run, seed):
    # the kernel takes the integer seed as it is, so a malformed one must
    # be turned away before it
    from tamsde import kernel

    def no_call(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(kernel, "run_block", no_call)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        run(seed)


class TestCoupledTam:
    def test_argument_validation(self):
        with pytest.raises(InputError):
            simulate_coupled_pair(M1, 1.0, 2.0, 0, 1.0, 0)
        with pytest.raises(InputError):
            simulate_coupled_pair(M1, 1.0, 2.0, True, 1.0, 0)
        with pytest.raises(InputError):
            simulate_coupled_pair(M1, 1.0, 2.0, 2, 0.0, 0)
        with pytest.raises(InputError):
            simulate_coupled_pair(M1, 1.0, 2.0, 2, math.inf, 0)
        with pytest.raises(InputError, match="l0"):
            simulate_coupled_pair(M1, 1.0, 1.0, 2, 1.0, 0)

    @pytest.mark.parametrize("args", [
        (None, 2.0, 2, 1.0, 0), (1.0, "2", 2, 1.0, 0), (1.0, 2.0, 2, "1", 0),
        (1.0, 2.0, 2.0, 1.0, 0), (1.0, 2.0, 10 ** 400, 1.0, 0),
        (1.0, 2.0, 2, 1.0, None)],
        ids=["none-h0", "string-l0", "string-t_end", "float-k", "huge-k",
             "none-seed"])
    def test_malformed_arguments_are_input_errors(self, args):
        with pytest.raises(InputError):
            simulate_coupled_pair(M1, *args)

    def test_determinism(self):
        a = simulate_coupled_pair(M2, 1.0, 2.0, 3, 2.0, 77)
        b = simulate_coupled_pair(M2, 1.0, 2.0, 3, 2.0, 77)
        assert a == b

    def test_fine_leg_steps_more(self):
        for seed in range(5):
            cs = simulate_coupled_pair(M1, 1.0, 2.0, 3, 1.0, seed)
            assert cs.fine_steps > cs.coarse_steps

    def test_squared_diff_consistency(self):
        cs = simulate_coupled_pair(M1, 1.0, 2.0, 3, 1.0, 5)
        assert cs.squared_diff == (cs.fine_terminal - cs.coarse_terminal) ** 2

    def test_pure_brownian_legs_coincide(self):
        # the scheme is exact for dX = dW on any grid; the only difference
        # between legs is float summation order
        for seed in range(10):
            cs = simulate_coupled_pair(BROWNIAN, 1.0, 2.0, 4, 5.0, seed)
            assert cs.squared_diff <= 1e-24

    def test_constant_drift_legs_coincide(self):
        # deterministic linear ODE, integrated exactly by both legs
        for seed in range(5):
            cs = simulate_coupled_pair(CONST_DRIFT, 1.0, 2.0, 3, 2.0, seed)
            assert cs.fine_terminal == pytest.approx(0.2 + 0.7 * 2.0, abs=1e-12)
            assert cs.squared_diff <= 1e-24

    def test_brownian_sums_agree_between_legs(self):
        for model, seed in [(M1, 3), (M2, 4), (GBM, 5)]:
            assert_brownian_sums_agree(_tam_leg(model, 2.0 ** -5, 1.0, 2.0),
                                       _tam_leg(model, 2.0 ** -4, 1.0, 2.0),
                                       model.x0, 10.0, seed)

    def test_error_decreases_with_level(self):
        coarse = [simulate_coupled_pair(GBM, 1.0, 2.0, 2, 1.0, s).squared_diff
                  for s in range(300)]
        fine = [simulate_coupled_pair(GBM, 1.0, 2.0, 5, 1.0, s).squared_diff
                for s in range(300)]
        assert math.fsum(fine) < math.fsum(coarse)

    def test_max_steps_explosion_tagged_with_leg(self):
        with pytest.raises(PathExplosion) as err:
            simulate_coupled_pair(M1, 1.0, 2.0, 2, 5.0, 0, max_steps=3)
        assert err.value.leg == "fine"
        assert "max_steps" in str(err.value)

    def test_nonfinite_state_explosion_tagged(self):
        hot = make_term_model("hot", [PowerTerm(coeff=1e150, power=3)], [],
                              x0=1e80, l=3.0, p0=24.0)
        with pytest.raises(PathExplosion) as err:
            simulate_coupled_pair(hot, 1.0, 4.0, 1, 1e300, 0,
                                  max_steps=10_000)
        assert err.value.leg in ("fine", "coarse")


class TestCoupledTm:
    def test_step_counts_are_exact(self):
        # T=1, k=3: fine grid 2^-4 has 16 steps, coarse 2^-3 has 8
        cs = simulate_coupled_tm_pair(M1, 3, 1.0, 11)
        assert (cs.fine_steps, cs.coarse_steps) == (16, 8)

    def test_partial_final_step(self):
        # T=0.3 is not a multiple of 2^-3: steps count the clamped tail
        cs = simulate_coupled_tm_pair(M1, 2, 0.3, 1)
        assert cs.fine_steps == math.ceil(0.3 / 2 ** -3)
        assert cs.coarse_steps == math.ceil(0.3 / 2 ** -2)

    def test_determinism(self):
        a = simulate_coupled_tm_pair(M2, 4, 2.0, 13)
        b = simulate_coupled_tm_pair(M2, 4, 2.0, 13)
        assert a == b

    def test_pure_brownian_under_taming_differs_but_wsums_match(self):
        # unlike the adaptive scheme, TM tames the diffusion term by
        # 1/(1 + delta x^2), so the legs do NOT coincide for dX = dW
        # unless x stays at 0; the Brownian bookkeeping still must agree
        assert_brownian_sums_agree(_tm_leg(M1, 2.0 ** -5), _tm_leg(M1, 2.0 ** -4),
                                   M1.x0, 5.0, 21)

    def test_brownian_from_origin_exact(self):
        # x0 = 0 keeps the taming factor at 1 on the first step only;
        # afterwards x != 0, so exactness needs sigma' = 0 AND mu = 0 AND
        # the taming factor... use a noiseless model instead: both legs
        # integrate dx = c dt with taming 1/(1+delta x^2) differently, so
        # even that is inexact.  What IS exact: zero drift and zero
        # diffusion keeps the state put.
        flat = make_term_model("flat", [], [], x0=0.4)
        cs = simulate_coupled_tm_pair(flat, 3, 1.0, 2)
        assert cs.fine_terminal == 0.4 and cs.coarse_terminal == 0.4
        assert cs.squared_diff == 0.0

    def test_error_decreases_with_level(self):
        coarse = [simulate_coupled_tm_pair(GBM, 2, 1.0, s).squared_diff
                  for s in range(300)]
        fine = [simulate_coupled_tm_pair(GBM, 5, 1.0, s).squared_diff
                for s in range(300)]
        assert math.fsum(fine) < math.fsum(coarse)

    def test_argument_validation(self):
        with pytest.raises(InputError):
            simulate_coupled_tm_pair(M1, 0, 1.0, 0)
        with pytest.raises(InputError):
            simulate_coupled_tm_pair(M1, 2, -1.0, 0)

    @pytest.mark.parametrize("max_steps", [0, -1, 1.5, "10", None])
    def test_max_steps_checked_as_for_the_adaptive_pair(self, max_steps):
        for run in (lambda: simulate_coupled_tm_pair(M1, 2, 1.0, 0,
                                                     max_steps=max_steps),
                    lambda: simulate_coupled_pair(M1, 1.0, 2.0, 2, 1.0, 0,
                                                  max_steps=max_steps)):
            with pytest.raises(InputError, match="max_steps"):
                run()

    def test_max_steps_explosion(self):
        with pytest.raises(PathExplosion) as err:
            simulate_coupled_tm_pair(M1, 5, 10.0, 0, max_steps=4)
        assert err.value.leg == "fine"
