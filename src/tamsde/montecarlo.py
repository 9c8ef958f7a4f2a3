"""Monte Carlo estimators for strong error, moments and step counts.

The strong-error probe at level k couples the base steps 2**-(k+1) and
2**-k on one Brownian path per sample and averages the squared terminal
difference.  Path m always uses seed base_seed + m, so results are
reproducible, independent of worker count, and unaffected by adding more
paths or more levels elsewhere.

A block of consecutive seeds, however large the seeds, goes to the kernel
in one call (kernel.run_block), which runs a block of a built-in model in
C, stores no path's trajectory, and runs any other block by the
reference loops.  The path functions are looked up by name in this
module at call time: a caller that rebinds one (a tracer, a test forcing
an explosion) has it called once per seed, through the kernel's one
per-seed loop (kernel._seeded).  Either way a cell yields the kernel's
columns (kernel.Block): each leg's terminal states and step counts in
seed order, as arrays, a failed seed's nan and 0, and the PathExplosion
that ended each failed seed, with its leg, time, state and steps.  A
pooled cell's workers send their blocks back as they are, and the cell
joins their columns in seed order.

All reductions go through math.fsum (exact summation), which makes every
aggregate independent of chunking and scheduling order; a worker pool can
only change how fast the answer arrives, never its bytes.  A cell of a
model the kernel runs is reduced in C (kernel.cell_sums), on a port of
math.fsum and of float **, to the same bits and errors as the Python
reduction (_reduce), which reduces every other cell.

A failure is a seed whose path raised PathExplosion, or whose |X_T|**p
leaves the float range.  Failures are excluded from the averages and
counted; once they reach 1% of the requested paths the estimate is
refused (EstimationError) rather than silently biased.
"""

import math
import os
from dataclasses import dataclass

# the three path functions are looked up by name in _run_block
from .driver import (NoiseSource, _pair_config, simulate_coupled_pair,
                     simulate_coupled_tm_pair)
from .errors import EstimationError, InputError
from .model import _finite, _integer
from .scheme import (DEFAULT_MAX_STEPS, _check_delta, _check_horizon,
                     _require_l0, simulate_path)

__all__ = [
    "MseRow",
    "MomentEstimate",
    "estimate_mse",
    "estimate_tm_mse",
    "estimate_moment",
    "mean_step_count",
    "tm_step_count",
]


@dataclass(frozen=True)
class MseRow:
    """One level of the strong-error table."""

    k: int
    delta: float
    n_paths: int
    mse: float
    log2_mse: float
    std_error: float
    mean_fine_steps: float
    mean_coarse_steps: float
    n_failures: int = 0


@dataclass(frozen=True)
class MomentEstimate:
    mean_abs_p: float
    std_error: float
    n_failures: int = 0


# the library's own path functions, by name: a block of one of these runs
# in one kernel call while its name in this module is still bound to it
_OWN = {f.__name__: f for f in (simulate_coupled_pair,
                                simulate_coupled_tm_pair, simulate_path)}


def _kernel_args(name, head, options):
    """The (model, config, pair) of kernel.run_block for every seed of a
    cell of the path function `name`.

    The cell's arguments get the checks each seed's own call would make,
    once, and raise the same InputError.
    """
    if name == "simulate_path":
        model, config = head
        _require_l0(model, config)
        return model, config, None
    # a pair's head is (model, h0, l0, k, t_end) or (model, k, t_end)
    model, *clock, k, t_end = head
    return (model, *_pair_config(model, tuple(clock) or None, k, t_end,
                                 **options))


def _run_block(args):
    """Worker: the kernel.Block of a block of seeds, its columns in seed
    order.

    The path function `name` is looked up at call time.  While it is
    still the library's own, the whole block goes to the kernel in one
    call, on _kernel_args, and its Block is returned as it comes; a
    rebound name is called once per seed as name(*head, seed, **options),
    with NoiseSource(seed) for simulate_path, so its caller sees every
    seed, and each result is read into the same columns by
    kernel._seeded, the per-seed loop of a block the kernel declines.
    """
    name, head, options, seeds = args
    simulate = globals()[name]
    # imported by the first block, not by import tamsde, which loads
    # neither the kernel nor numpy
    from . import kernel
    if simulate is _OWN[name]:
        model, config, pair = _kernel_args(name, head, options)
        return kernel.run_block(model, config, seeds, pair)
    path = name == "simulate_path"

    def run(seed):
        if path:
            traj = simulate(*head, NoiseSource(seed), **options)
            return float(traj.values[-1]), traj.step_count
        cs = simulate(*head, seed, **options)
        return (cs.fine_terminal, cs.coarse_terminal, cs.fine_steps,
                cs.coarse_steps)
    return kernel._seeded(seeds, run, 1 if path else 2)


def _run_cell(name, head, options, n_paths, base_seed, n_jobs):
    """The kernel.Block of seeds base_seed..base_seed+n_paths-1: a pooled
    cell's blocks' columns joined in seed order, and each failure's index
    in its block shifted to its index in the cell."""
    _integer(n_paths, "n_paths", 1)
    _integer(base_seed, "base_seed", 0)
    # more workers than CPUs cannot speed up a CPU-bound cell, and a pool
    # under fork starts all of them at its first submit
    n_jobs = min(_integer(n_jobs, "n_jobs", 1), os.cpu_count() or 1)
    seeds = range(base_seed, base_seed + n_paths)
    if n_jobs <= 1 or n_paths < 2 * n_jobs:
        return _run_block((name, head, options, seeds))
    # checked here as well as in each block, so a malformed argument stops
    # the cell before any worker starts
    _kernel_args(name, head, options)
    # imported by the first pooled cell only, so a serial run never loads
    # the pool machinery
    import pickle
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        pickle.dumps(head)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise InputError(
            f"the model cannot be sent to {n_jobs} worker processes ({exc}); "
            "use module-level coefficient functions or n_jobs=1") from None
    # loaded, or its build tried, once here for a model C runs: forked
    # workers inherit the result instead of each loading the kernel, or
    # running cc, again; any other model neither loads nor builds it
    from . import kernel
    kernel._library_for(head[0])
    chunk = max(1, -(-n_paths // (4 * n_jobs)))
    try:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            (states, steps, failures), *rest = pool.map(
                _run_block, [(name, head, options, seeds[i:i + chunk])
                             for i in range(0, n_paths, chunk)])
    except BrokenProcessPool as exc:
        raise EstimationError(
            f"a worker process died before the cell finished ({exc})") from None
    for i, block in enumerate(rest, 1):
        failures += [(i * chunk + j, exc) for j, exc in block[2]]
        for column, more in zip(states + steps, block[0] + block[1]):
            column.extend(more)
    return kernel.Block(states, steps, failures)


def _gate(n_failures, n_paths, what):
    """n_failures, unless they reach 1% of the requested paths: the one 1%
    gate."""
    if n_failures * 100 >= n_paths:
        raise EstimationError(
            f"{n_failures} of {n_paths} paths exploded; the {what} would "
            "not be trustworthy")
    return n_failures


def _library(model):
    """The kernel library that reduces a cell of the model in C: the one
    that runs its blocks (kernel._library_for), so a cell of any other
    model neither loads nor builds the kernel; None reduces in Python."""
    from . import kernel
    return kernel._library_for(model)[1]


def _reduce(lib, states, steps, p, gate):
    """A cell's sums: (n_ok, total, spread, *step sums), from its state
    and step columns (kernel.Block).  A pair cell's values (two state
    columns, p None) are its squared differences d * d, d = x_f - x_c, the
    bits of CoupledSample.squared_diff, kept unless nan (a failed seed's);
    a path cell's are |x| ** p, kept if finite (_abs_power).  n_ok counts
    the kept values, total is their fsum, spread the fsum of (v - mean)
    ** 2 over them, mean = total / n_ok, or 0.0 when n_ok < 2, and each
    step sum a step column's fsum; a failed seed's step counts are 0, so
    the sums are the survivors'.  gate(n_ok) is called before any sum can
    raise.  In C on the kernel library lib (kernel.cell_sums), else in
    Python, the reference the C reduction is tested against."""
    if lib is not None:
        from . import kernel
        n_ok, sums, error = kernel.cell_sums(lib, states, steps, p)
        gate(n_ok)
        if error is not None:
            raise error
        return (n_ok, *sums)
    if p is None:
        values = [v for f, c in zip(*states) if (v := (d := f - c) * d) == v]
    else:
        values = [v for x in states[0] if (v := _abs_power(x, p)) < math.inf]
    n_ok = len(values)
    gate(n_ok)
    total = math.fsum(values)
    mean = total / n_ok
    spread = (math.fsum((v - mean) ** 2 for v in values) if n_ok > 1
              else 0.0)
    return (n_ok, total, spread, *map(math.fsum, steps))


def _mean_and_stderr(n_ok, total, spread):
    """The mean of n_ok values whose fsum is total, and its standard
    error, from spread, the fsum of their squared deviations from it."""
    mean = total / n_ok
    if n_ok < 2:
        return mean, 0.0
    return mean, math.sqrt(spread / (n_ok - 1) / n_ok)


def _aggregate_mse(k, delta, n_paths, block, lib=None):
    """The MseRow of a pair cell's Block, reduced on lib (_reduce)."""
    states, steps, failures = block
    what = f"estimate at level k={k}"
    n_ok, total, spread, fine, coarse = _reduce(
        lib, states, steps, None,
        lambda n_ok: _gate(len(failures), n_paths, what))
    mse, std_error = _mean_and_stderr(n_ok, total, spread)
    log2_mse = math.log2(mse) if mse > 0.0 else float("-inf")
    return MseRow(k=k, delta=delta, n_paths=n_paths, mse=mse,
                  log2_mse=log2_mse, std_error=std_error,
                  mean_fine_steps=fine / n_ok, mean_coarse_steps=coarse / n_ok,
                  n_failures=len(failures))


def estimate_mse(model, h0, l0, k, n_paths, t_end, base_seed, n_jobs=1,
                 max_steps=DEFAULT_MAX_STEPS):
    """Strong-error row at level k for the adaptive scheme.

    Couples base steps 2**-(k+1) and 2**-k on one Brownian path per
    sample, using seeds base_seed..base_seed+n_paths-1.
    """
    block = _run_cell("simulate_coupled_pair", (model, h0, l0, k, t_end),
                      {"max_steps": max_steps}, n_paths, base_seed, n_jobs)
    return _aggregate_mse(k, 2.0 ** (-k), n_paths, block, _library(model))


def estimate_tm_mse(model, k, n_paths, t_end, base_seed, n_jobs=1,
                    max_steps=DEFAULT_MAX_STEPS):
    """Strong-error row at level k for the fixed-step baseline."""
    block = _run_cell("simulate_coupled_tm_pair", (model, k, t_end),
                      {"max_steps": max_steps}, n_paths, base_seed, n_jobs)
    return _aggregate_mse(k, 2.0 ** (-k), n_paths, block, _library(model))


def _abs_power(x, p):
    # a finite state whose p-th power leaves the float range fails too:
    # inf, left out as a failed seed's nan state is
    try:
        return abs(x) ** p
    except OverflowError:
        return math.inf


def _moment_order(p):
    """p as a float; InputError unless it is a finite real number > 0."""
    p = _finite(p, "moment order p")
    if not p > 0.0:
        raise InputError(f"moment order p must be > 0, got {p}")
    return p


def estimate_moment(model, config, p, n_paths, base_seed, n_jobs=1):
    """Monte Carlo estimate of E|X_{t_end}|**p under the adaptive scheme."""
    p = _moment_order(p)
    states, _, _ = _run_cell("simulate_path", (model, config), {}, n_paths,
                             base_seed, n_jobs)
    n_ok, total, spread = _reduce(
        _library(model), states, (), p,
        lambda n_ok: _gate(n_paths - n_ok, n_paths, "moment estimate"))
    mean, std_error = _mean_and_stderr(n_ok, total, spread)
    return MomentEstimate(mean_abs_p=mean, std_error=std_error,
                          n_failures=n_paths - n_ok)


def mean_step_count(model, config, n_paths, base_seed, n_jobs=1):
    """Monte Carlo mean of the adaptive scheme's step count on [0, t_end]."""
    _, (steps,), failures = _run_cell("simulate_path", (model, config), {},
                                      n_paths, base_seed, n_jobs)
    # a failed seed's step count is 0, so the sum is the survivors'
    n_ok = n_paths - _gate(len(failures), n_paths, "step-count mean")
    return math.fsum(steps) / n_ok


def tm_step_count(t_end, delta):
    """Deterministic step count t_end/delta of the fixed-step baseline."""
    return _check_horizon(t_end, "t_end") / _check_delta(delta)
