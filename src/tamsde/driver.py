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

Both coupled-pair functions go through one runner, _run_pair, which
checks the arguments once (_pair_config, which the Monte Carlo cells'
blocks share, and the seed), then runs the pair as a block of one seed
(kernel.run_block).  _pair_config returns the kernel's own pair argument,
(adaptive, coarse delta), so neither caller builds it.  The kernel runs
every pair of a built-in model in C, seeding the pair's generator itself
as NoiseSource(seed) is seeded, and every other pair by _merge on
NoiseSource(seed), the reference C is tested against; both give the
block's columns (kernel.Block), from which _run_pair reads its seed's
fine and coarse states and step counts, or its failure's PathExplosion,
which _run_pair raises.
"""

import math
from dataclasses import dataclass

from .errors import InputError
from .model import _integer, _real
from .scheme import DEFAULT_MAX_STEPS, SchemeConfig, _due, _require_l0, _stop

__all__ = ["NoiseSource", "CoupledSample", "simulate_coupled_pair",
           "simulate_coupled_tm_pair"]

_BLOCK = 1024
_INF = math.inf
_sqrt = math.sqrt


class NoiseSource:
    """Reproducible stream of Gaussian increments.

    The stream of numpy's Generator(Philox(seed)), so distinct seeds (one
    per path index, by convention) give independent streams and the same
    seed always reproduces the identical sequence, on every host, with or
    without the compiled kernel.  Standard normals are drawn in blocks and
    scaled by the square root of each requested duration.

    The generator is made on the source's first draw, so importing tamsde
    leaves numpy unimported.  Only the Python loops draw on a source: a
    block in C seeds its own port of the same Philox per seed.
    """

    def __init__(self, seed):
        self.seed = _integer(seed, "seed", 0)
        self.current_time = 0.0
        self._rng = None  # made by the first draw
        self._buf = None
        self._idx = _BLOCK  # the first draw fills the first block

    def gaussian_increment(self, duration):
        """One N(0, duration) draw; advances the source's clock by duration."""
        if type(duration) is not float:
            duration = _real(duration, "duration")
        if not 0.0 < duration < _INF:
            raise InputError(
                f"duration must be positive and finite, got {duration!r}")
        i = self._idx
        if i == _BLOCK:
            if self._rng is None:
                from numpy.random import Generator, Philox
                self._rng = Generator(Philox(self.seed))
            self._buf = self._rng.standard_normal(_BLOCK).tolist()
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


def _sample(x_f, x_c, steps_f, steps_c):
    d = x_f - x_c
    return CoupledSample(fine_terminal=x_f, coarse_terminal=x_c,
                         fine_steps=steps_f, coarse_steps=steps_c,
                         squared_diff=d * d)


def _merge(fine, coarse, x0, t_end, noise, max_steps):
    """Run two (propose, advance) legs from x0 to t_end on one Brownian path.

    Returns the pair's record (fine state, coarse state, fine steps,
    coarse steps); raises PathExplosion tagged "fine" or "coarse".
    Fixed-step grids are dyadic, so last + delta is exactly the next grid
    point and the coarse grid is nested in the fine one.
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
                    raise _stop("fine", t_next, x_f, steps_f, max_steps)
                due_f = _due(t_next, propose_f(x_f), t_end)
                if due_f <= t_next:
                    raise _stop("fine", t_next, x_f, steps_f, max_steps)
        if due_c == t_next:
            x_c = advance_c(x_c, t_next - last_c, pw_c)
            pw_c = pc_c = 0.0
            last_c = t_next
            steps_c += 1
            if t_next < t_end:
                if steps_c >= max_steps or not isfinite(x_c):
                    raise _stop("coarse", t_next, x_c, steps_c, max_steps)
                due_c = _due(t_next, propose_c(x_c), t_end)
                if due_c <= t_next:
                    raise _stop("coarse", t_next, x_c, steps_c, max_steps)
        t = t_next
    if not isfinite(x_f):
        raise _stop("fine", t_end, x_f, steps_f, max_steps)
    if not isfinite(x_c):
        raise _stop("coarse", t_end, x_c, steps_c, max_steps)
    return x_f, x_c, steps_f, steps_c


def _pair_config(model, clock, k, t_end, max_steps=DEFAULT_MAX_STEPS):
    """The checked SchemeConfig of a pair at level k, with the fine leg's
    delta, and the kernel's pair argument (adaptive, coarse leg's delta).

    clock is (h0, l0) for two tamed-adaptive legs and None for two
    fixed-step legs.  These are every check of a pair's arguments but the
    seed's, shared by _run_pair and the Monte Carlo cells' block route,
    and the result is what both hand to kernel.run_block.
    """
    _integer(k, "k", 1)
    fine, coarse = math.ldexp(1.0, -(k + 1)), math.ldexp(1.0, -k)
    config = SchemeConfig(fine, t_end, *(clock or ()), max_steps=max_steps)
    if clock is not None:
        _require_l0(model, config)
    return config, (clock is not None, coarse)


def _run_pair(model, clock, k, t_end, seed, max_steps):
    """One coupled pair at base steps 2**-(k+1) and 2**-k, either scheme.

    clock is (h0, l0) for two tamed-adaptive legs and None for two
    fixed-step legs.  The arguments are checked here, once, and the pair
    runs as kernel.run_block's block of one seed.
    """
    config, pair = _pair_config(model, clock, k, t_end, max_steps)
    seed = _integer(seed, "seed", 0)
    # imported by the first pair, not by import tamsde, which stays as fast
    # as it was without the kernel
    from . import kernel
    block = kernel.run_block(model, config, range(seed, seed + 1), pair)
    if block.failures:
        raise block.failures[0][1]
    return _sample(*(column[0] for column in block.states + block.steps))


def simulate_coupled_pair(model, h0, l0, k, t_end, seed,
                          max_steps=DEFAULT_MAX_STEPS):
    """Couple adaptive runs at delta = 2**-(k+1) and 2**-k on one path.

    Returns a CoupledSample; raises PathExplosion (tagged with the failing
    leg) when either leg exceeds max_steps or leaves the finite range.
    """
    return _run_pair(model, (h0, l0), k, t_end, seed, max_steps)


def simulate_coupled_tm_pair(model, k, t_end, seed,
                             max_steps=DEFAULT_MAX_STEPS):
    """Couple fixed-step runs at delta = 2**-(k+1) and 2**-k on one path."""
    return _run_pair(model, None, k, t_end, seed, max_steps)
