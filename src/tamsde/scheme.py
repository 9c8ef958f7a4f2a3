"""Tamed-adaptive Milstein stepping and the fixed-step tamed baseline.

One step of the adaptive scheme from state x over a duration dt with
Brownian increment dW is

    x + mu(x) dt + sigma(x) dW + q(x) (dW**2 - dt) / 2,

where q tames the Milstein coefficient sigma*sigma',

    q(x) = sigma(x) sigma'(x) / (1 + delta**(1/2) |sigma(x) sigma'(x)|),

so that |q| <= delta**(-1/2) and |q| <= |sigma sigma'| always hold.  The
duration of the step is state-dependent,

    dt = h(x) * delta,
    h(x) = h0 / (1 + |mu|**2 + |mu'| + |sigma|**4 + |sigma'|**4
                   + |q| + |x|**l0)**2,

which shrinks the step wherever the coefficients or the state are large;
delta plays the role the uniform step plays for a fixed grid, and halving
it should roughly double the number of steps on [0, t_end].

The fixed-step baseline (tm_step) advances on the uniform grid k*delta and
divides the whole Milstein increment, with untamed sigma*sigma', by
1 + delta*|x|**2.

Each scheme is written once, as a leg: a (propose, advance) pair built by
_tam_leg or _tm_leg.  propose(x) evaluates the coefficients at the leg's
state and returns the step it wants; advance(x, dt, dW) applies the update
with those values.  _due is the one place a step is clamped to t_end.  The
public one-step maps are thin wrappers over the legs, simulate_path drives
one adaptive leg on the caller's noise source, by _path_loop, and the
driver module runs two legs of either scheme on one Brownian path.  For
the built-in models, _pair.c repeats _tamed, both legs, _due and
_path_loop in C, operation for operation, for the blocks of seeds a Monte
Carlo cell runs; the kernel module loads it and alone chooses between it
and the Python loops.  A change to one must be made to the other, and
tests/test_kernel.py checks that the two give identical bytes.
"""

import math
import numbers
import sys

from .errors import InputError, PathExplosion
from .model import _Record, _finite, _real, _rpow, minimum_step_exponent

__all__ = [
    "SchemeConfig",
    "Trajectory",
    "tamed_correction",
    "adaptive_step",
    "tam_step",
    "tm_step",
    "interpolate",
    "simulate_path",
]

# saturation value used when the step-size denominator overflows: the
# smallest positive normal double, so the step stays positive
_TINY_STEP = sys.float_info.min

DEFAULT_MAX_STEPS = 100_000_000


class SchemeConfig(_Record):
    """Knobs of one scheme run.

    delta      base step parameter, in (0, 1); experiments use 2**-k.
    h0         cap of the state-dependent step factor h(x), finite, > 0.
    l0         exponent of the |x|**l0 state penalty in h(x), finite,
               >= 2; the convergence theory additionally wants
               l0 >= 4*l / (3*(1+alpha)) for the model it is paired with,
               which simulate_path enforces.
    t_end      time horizon, finite and > 0.
    max_steps  step budget per path before the run is declared exploded.

    Each field must be a real number (not a bool); delta, t_end, h0 and l0
    are stored as float and max_steps as int, and an integral float such
    as 1e8 is accepted as a budget.
    """

    delta: float
    t_end: float
    h0: float = 1.0
    l0: float = 2.0
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        for name in ("delta", "t_end", "h0", "l0"):
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, _real(value, name))
        if type(self.max_steps) is not int:
            object.__setattr__(self, "max_steps",
                               _whole(self.max_steps, "max_steps"))
        _check_delta(self.delta)
        _check_horizon(self.t_end, "t_end")
        if not self.h0 > 0.0:
            raise InputError(f"h0 must be > 0, got {self.h0}")
        if not self.l0 >= 2.0:
            raise InputError(f"l0 must be >= 2, got {self.l0}")
        # an infinite h0 or l0 would let every adaptive step jump to t_end
        _finite(self.h0, "h0")
        _finite(self.l0, "l0")
        if self.max_steps < 1:
            raise InputError(f"max_steps must be >= 1, got {self.max_steps}")


def _whole(value, what):
    """value as an int; InputError unless it is an integer or an integral real."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    value = _real(value, what)
    if not value.is_integer():
        raise InputError(f"{what} must be a whole number, got {value!r}")
    return int(value)


class Trajectory(_Record, eq=False):
    """An adaptive grid with states and the Brownian increments that drove it.

    times, values have length step_count + 1; increments has length
    step_count.  times[0] == 0, times[-1] == t_end.
    """

    times: "numpy.ndarray"
    values: "numpy.ndarray"
    increments: "numpy.ndarray"
    step_count: int


def _check_delta(delta):
    """delta as a float; InputError unless it is a real number in (0, 1)."""
    delta = _real(delta, "delta")
    if not 0.0 < delta < 1.0:
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    return delta


def _check_horizon(t_end, what):
    """t_end as a float; InputError, naming it what, unless it is a finite
    real number > 0."""
    t_end = _real(t_end, what)
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise InputError(f"{what} must be finite and > 0, got {t_end}")
    return t_end


def _tamed(s, sp, sqrt_delta):
    # q = sigma sigma' / (1 + sqrt(delta) |sigma sigma'|).  An exact zero
    # factor gives an exactly zero product, so an infinite other factor
    # cannot produce a NaN; an infinite product saturates at the cap
    # +-1/sqrt(delta) that the tamed value approaches.
    g = 0.0 if (s == 0.0 or sp == 0.0) else s * sp
    if math.isinf(g):
        return math.copysign(1.0 / sqrt_delta, g)
    return g / (1.0 + sqrt_delta * abs(g))


def _tam_leg(model, delta, h0, l0):
    """The adaptive scheme at base step delta, as a (propose, advance) pair.

    propose(x) evaluates the four coefficients at x once, keeps
    (mu, sigma, q) and returns the step h(x) * delta; advance(x, dt, dW)
    applies the tamed Milstein update from x with the kept values.  A
    leg's coefficients change only when the leg itself steps, so each
    propose serves the advance that eventually follows it.
    """
    mu = model.drift
    sig = model.diffusion
    mup = model.drift_prime
    sigp = model.diffusion_prime
    sqd = math.sqrt(delta)
    square_penalty = l0 == 2.0
    m = s = q = 0.0

    def propose(x):
        nonlocal m, s, q
        m = mu(x)
        s = sig(x)
        mp = mup(x)
        sp = sigp(x)
        q = _tamed(s, sp, sqd)
        s2 = s * s
        sp2 = sp * sp
        xl = x * x if square_penalty else _rpow(abs(x), l0)
        base = 1.0 + m * m + abs(mp) + s2 * s2 + sp2 * sp2 + abs(q) + xl
        step = (h0 / (base * base)) * delta
        if step <= 0.0 or step != step:
            return _TINY_STEP
        return step

    def advance(x, dt, dW):
        return x + m * dt + s * dW + 0.5 * q * (dW * dW - dt)

    return propose, advance


def _tm_leg(model, delta):
    """The fixed-step baseline at step delta, as a (propose, advance) pair.

    propose(x) keeps (mu, sigma, sigma sigma') at x and returns delta;
    advance(x, dt, dW) divides the untamed Milstein increment by
    1 + delta * x**2.
    """
    mu = model.drift
    sig = model.diffusion
    sigp = model.diffusion_prime
    m = s = g = 0.0

    def propose(x):
        nonlocal m, s, g
        m = mu(x)
        s = sig(x)
        sp = sigp(x)
        g = 0.0 if (s == 0.0 or sp == 0.0) else s * sp  # zero rule of _tamed
        return delta

    def advance(x, dt, dW):
        return x + (m * dt + s * dW + 0.5 * g * (dW * dW - dt)) / (1.0 + delta * (x * x))

    return propose, advance


def _due(last, step, t_end):
    """Time of a leg's next event: last + step, landing exactly on t_end.

    The sum can round past the horizon even when step < t_end - last, so
    both are checked.  A result <= last means the step fell below time
    resolution; the caller reports that.
    """
    if step >= t_end - last:
        return t_end
    due = last + step
    return t_end if due >= t_end else due


def _stop(leg, t, x, steps, max_steps):
    """The PathExplosion for a leg that cannot go on from x at time t.

    The cause is the first that applies: a non-finite state, a spent step
    budget, or else a step that collapsed below time resolution.  leg is
    "fine" or "coarse" in a coupled pair and None for a single path.
    """
    if not math.isfinite(x):
        why = "became non-finite"
    elif steps >= max_steps:
        why = f"exceeded max_steps={max_steps}"
    else:
        why = "step collapsed below time resolution"
    who = f"{leg} leg" if leg else "path"
    return PathExplosion(f"{who} {why} at t={t} (state {x}, {steps} steps)",
                         time=t, state=x, steps=steps, leg=leg)


def tamed_correction(model, x, delta):
    """Tamed Milstein coefficient q(x) at base step delta."""
    delta = _check_delta(delta)
    x = _finite(x, "x")
    return _tamed(model.diffusion(x), model.diffusion_prime(x), math.sqrt(delta))


def adaptive_step(model, config, x):
    """State-dependent step duration h(x) * delta.

    Always positive: if the denominator overflows, the smallest positive
    normal double is returned instead of zero.
    """
    propose, _ = _tam_leg(model, config.delta, config.h0, config.l0)
    return propose(_finite(x, "x"))


def tam_step(model, x, delta, dt, dW):
    """One tamed-adaptive Milstein step of duration dt from state x."""
    dt = _finite(dt, "dt")
    if not dt > 0.0:
        raise InputError(f"dt must be > 0, got {dt}")
    return interpolate(model, x, 0.0, dt, delta, dW)


def tm_step(model, x, delta, dW):
    """One fixed-step tamed Milstein step (duration delta) from state x."""
    delta = _check_delta(delta)
    x, dW = _finite(x, "x"), _finite(dW, "dW")
    propose, advance = _tm_leg(model, delta)
    return advance(x, propose(x), dW)


def interpolate(model, x_grid, t_grid, t, delta, dW):
    """Continuous-time extension from the last grid point.

    Applies the scheme's one-step map from (t_grid, x_grid) over the
    duration t - t_grid with Brownian increment dW; at t == t_grid with
    dW == 0 this returns x_grid.  Evaluating at the next grid time with
    the realized increment reproduces the next grid value exactly.
    """
    delta = _check_delta(delta)
    x_grid, t_grid, t, dW = map(_finite, (x_grid, t_grid, t, dW),
                                ("x_grid", "t_grid", "t", "dW"))
    if t < t_grid:
        raise InputError(f"interpolation time {t} precedes grid time {t_grid}")
    propose, advance = _tam_leg(model, delta, 1.0, 2.0)
    propose(x_grid)
    return advance(x_grid, t - t_grid, dW)


def _require_l0(model, config):
    need = minimum_step_exponent(model.regularity)
    if config.l0 < need - 1e-12:
        raise InputError(
            f"l0={config.l0} is below the admissible minimum {need} for "
            f"model {model.name!r} (alpha={model.regularity.alpha}, "
            f"l={model.regularity.l})")


def simulate_path(model, config, noise):
    """Simulate one adaptive path on [0, t_end].

    Repeatedly takes the adaptive step (clamped so the last step lands
    exactly on t_end), drawing each increment from ``noise`` with variance
    equal to the step's duration.

    Raises PathExplosion if the path exceeds config.max_steps, its state
    stops being finite (the terminal state included), or the step
    collapses below time resolution.

    The path runs on _path_loop, the reference the kernel's blocks of
    paths are tested against, for every model, so a kept path neither
    loads nor builds the kernel.
    """
    _require_l0(model, config)
    return _path_loop(model, config, noise)


def _path_loop(model, config, noise, keep=True):
    """simulate_path's loop in Python, for an l0-checked config.

    Returns the path's Trajectory, or with keep false only its (terminal
    state, step count), so a block's path stores no grid; the steps, the
    draws and any PathExplosion are the same either way.
    """
    propose, advance = _tam_leg(model, config.delta, config.h0, config.l0)
    draw = noise.gaussian_increment
    isfinite = math.isfinite
    t_end = config.t_end
    max_steps = config.max_steps

    x = model.x0
    t = 0.0
    steps = 0
    if keep:
        times = [0.0]
        values = [x]
        incs = []
    due = _due(0.0, propose(x), t_end)
    while True:
        dt = due - t
        dW = draw(dt)
        x = advance(x, dt, dW)
        t = due
        steps += 1
        if keep:
            times.append(t)
            values.append(x)
            incs.append(dW)
        if t >= t_end:
            break
        if steps >= max_steps or not isfinite(x):
            raise _stop(None, t, x, steps, max_steps)
        due = _due(t, propose(x), t_end)
        if due <= t:
            raise _stop(None, t, x, steps, max_steps)
    if not isfinite(x):
        raise _stop(None, t, x, steps, max_steps)
    if not keep:
        return float(x), steps
    from numpy import asarray  # the one place a Python path builds arrays
    return Trajectory(times=asarray(times), values=asarray(values),
                      increments=asarray(incs), step_count=steps)
