"""Brownian increment generation and shared-path coupling of two grids.

Coupling two discretization levels on one Brownian path is what makes the
strong-error probe cheap: the difference of two terminal values estimates
the strong error without a closed-form solution.  The two legs of a pair
generally step at different, state-dependent times, so the driver walks the
merged event timeline: advance to the earlier of the legs' next event
times, draw ONE Gaussian increment for the gap, add it to both legs'
pending accumulators, and apply a scheme step for whichever leg's event
fired (both, when they coincide).  Every drawn increment thus lands in both
legs, and each leg's applied increments sum to the same W over [0, t_end].

One driver, _merge, does this for both schemes: it takes two
(propose, advance) legs from the scheme module and never looks inside
them.  Pending increments are accumulated with compensated (Kahan)
summation so the per-leg totals agree with the global Brownian sum to
~1e-12 over long horizons.

For the built-in models both coupled-pair functions first offer the pair
to the compiled kernel (kernel.run_pair), which runs the same loop in C
with the same noise and returns the same bits; _merge runs every pair the
kernel declines and is the reference the kernel is tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .scheme import (DEFAULT_MAX_STEPS, SchemeConfig, _due, _require_l0,
                     _stop, _tam_leg, _tm_leg)

__all__ = ["NoiseSource", "CoupledSample", "simulate_coupled_pair",
           "simulate_coupled_tm_pair"]

_BLOCK = 1024
_INF = math.inf
_sqrt = math.sqrt


class NoiseSource:
    """Reproducible stream of Gaussian increments.

    Backed by numpy's counter-based Philox generator, so distinct seeds
    (one per path index, by convention) give independent streams and the
    same seed always reproduces the identical sequence.  Standard normals
    are drawn in blocks and scaled by the square root of each requested
    duration.
    """

    def __init__(self, seed):
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise InputError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = seed
        self.current_time = 0.0
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self._buf = None
        self._idx = _BLOCK  # the first draw fills the first block

    def gaussian_increment(self, duration):
        """One N(0, duration) draw; advances the source's clock by duration."""
        if not 0.0 < duration < _INF:
            raise InputError(f"duration must be positive and finite, got {duration}")
        i = self._idx
        if i == _BLOCK:
            self._buf = self._gen.standard_normal(_BLOCK).tolist()
            i = 0
        self._idx = i + 1
        self.current_time += duration
        return _sqrt(duration) * self._buf[i]


@dataclass(frozen=True)
class CoupledSample:
    """Terminal data of two approximations driven by one Brownian path."""

    fine_terminal: float
    coarse_terminal: float
    fine_steps: int
    coarse_steps: int
    squared_diff: float


def _check_pair_args(k, t_end):
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InputError(f"k must be an integer >= 1, got {k!r}")
    if not t_end > 0.0 or not math.isfinite(t_end):
        raise InputError(f"t_end must be positive and finite, got {t_end}")


def _sample(x_f, x_c, steps_f, steps_c):
    d = x_f - x_c
    return CoupledSample(fine_terminal=x_f, coarse_terminal=x_c,
                         fine_steps=steps_f, coarse_steps=steps_c,
                         squared_diff=d * d)


def _merge(fine, coarse, x0, t_end, noise, max_steps):
    """Run two (propose, advance) legs from x0 to t_end on one Brownian path.

    Returns a CoupledSample; raises PathExplosion tagged "fine" or
    "coarse".  Fixed-step grids are dyadic, so last + delta is exactly the
    next grid point and the coarse grid is nested in the fine one.
    """
    propose_f, advance_f = fine
    propose_c, advance_c = coarse
    draw = noise.gaussian_increment
    isfinite = math.isfinite
    x_f = x_c = x0
    last_f = last_c = 0.0
    due_f = _due(0.0, propose_f(x_f), t_end)
    due_c = _due(0.0, propose_c(x_c), t_end)
    # Kahan pair per leg: the increment pending since the leg last stepped
    pw_f = pc_f = pw_c = pc_c = 0.0
    steps_f = steps_c = 0
    t = 0.0
    while t < t_end:
        t_next = due_f if due_f < due_c else due_c
        dz = draw(t_next - t)
        y = dz - pc_f
        s = pw_f + y
        pc_f = (s - pw_f) - y
        pw_f = s
        y = dz - pc_c
        s = pw_c + y
        pc_c = (s - pw_c) - y
        pw_c = s
        if due_f == t_next:
            x_f = advance_f(x_f, t_next - last_f, pw_f)
            pw_f = pc_f = 0.0
            last_f = t_next
            steps_f += 1
            if t_next < t_end:
                if steps_f >= max_steps or not isfinite(x_f):
                    _stop("fine", t_next, x_f, steps_f, max_steps)
                due_f = _due(t_next, propose_f(x_f), t_end)
                if due_f <= t_next:
                    _stop("fine", t_next, x_f, steps_f, max_steps)
        if due_c == t_next:
            x_c = advance_c(x_c, t_next - last_c, pw_c)
            pw_c = pc_c = 0.0
            last_c = t_next
            steps_c += 1
            if t_next < t_end:
                if steps_c >= max_steps or not isfinite(x_c):
                    _stop("coarse", t_next, x_c, steps_c, max_steps)
                due_c = _due(t_next, propose_c(x_c), t_end)
                if due_c <= t_next:
                    _stop("coarse", t_next, x_c, steps_c, max_steps)
        t = t_next
    if not isfinite(x_f):
        _stop("fine", t_end, x_f, steps_f, max_steps)
    if not isfinite(x_c):
        _stop("coarse", t_end, x_c, steps_c, max_steps)
    return _sample(x_f, x_c, steps_f, steps_c)


def _compiled(model, clock, fine, coarse, t_end, noise, max_steps):
    """kernel.run_pair for this pair: its terminal data, or None."""
    # imported by the first pair, not by import tamsde, which stays as fast
    # as it was without the kernel
    from . import kernel
    return kernel.run_pair(model, clock, fine, coarse, t_end, noise._gen,
                           max_steps)


def simulate_coupled_pair(model, h0, l0, k, t_end, seed,
                          max_steps=DEFAULT_MAX_STEPS):
    """Couple adaptive runs at delta = 2**-(k+1) and 2**-k on one path.

    Returns a CoupledSample; raises PathExplosion (tagged with the failing
    leg) when either leg exceeds max_steps or leaves the finite range.
    """
    _check_pair_args(k, t_end)
    # validates h0/l0 ranges and the model's l0 requirement
    _require_l0(model, SchemeConfig(delta=0.5, t_end=t_end, h0=h0, l0=l0,
                                    max_steps=max_steps))
    noise = NoiseSource(seed)
    fine, coarse = 2.0 ** (-(k + 1)), 2.0 ** (-k)
    out = _compiled(model, (h0, l0), fine, coarse, t_end, noise, max_steps)
    if out is not None:
        return _sample(*out)
    return _merge(_tam_leg(model, fine, h0, l0), _tam_leg(model, coarse, h0, l0),
                  model.x0, t_end, noise, max_steps)


def simulate_coupled_tm_pair(model, k, t_end, seed,
                             max_steps=DEFAULT_MAX_STEPS):
    """Couple fixed-step runs at delta = 2**-(k+1) and 2**-k on one path."""
    _check_pair_args(k, t_end)
    noise = NoiseSource(seed)
    fine, coarse = 2.0 ** (-(k + 1)), 2.0 ** (-k)
    out = _compiled(model, None, fine, coarse, t_end, noise, max_steps)
    if out is not None:
        return _sample(*out)
    return _merge(_tm_leg(model, fine), _tm_leg(model, coarse),
                  model.x0, t_end, noise, max_steps)
