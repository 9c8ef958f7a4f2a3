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
per-seed loop (kernel._seeded).  Either way a seed yields one
record, the kernel's: (fine state, coarse state, fine steps, coarse
steps) for a pair, (terminal state, step count) for a path, or the
PathExplosion that ended it, with its leg, time, state and steps.

All reductions go through math.fsum (exact summation), which makes every
aggregate independent of chunking and scheduling order; a worker pool can
only change how fast the answer arrives, never its bytes.

A failure is the exception that caused it: a path's PathExplosion, or the
OverflowError of an |X_T|**p beyond the float range.  Failures are
excluded from the averages and counted; once they reach 1% of the
requested paths the estimate is refused (EstimationError) rather than
silently biased.
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
    """Worker: the record of each seed of a block, in seed order.

    The record is kernel.run_block's: a pair's (fine state, coarse state,
    fine steps, coarse steps), a path's (terminal state, step count), or
    the PathExplosion that stopped the seed.  The path function `name` is
    looked up at call time.  While it is still the library's own, the
    whole block goes to the kernel in one call, on _kernel_args, and its
    list is returned as it comes; a rebound name is called once per seed
    as name(*head, seed, **options), with NoiseSource(seed) for
    simulate_path, so its caller sees every seed, and each result is read
    into the same record by kernel._seeded, the per-seed loop of a block
    the kernel declines.
    """
    name, head, options, seeds = args
    simulate = globals()[name]
    # imported by the first block, not by import tamsde, which loads
    # neither the kernel nor numpy
    from . import kernel
    if simulate is _OWN[name]:
        model, config, pair = _kernel_args(name, head, options)
        return kernel.run_block(model, config, seeds, pair)
    if name == "simulate_path":
        def run(seed):
            traj = simulate(*head, NoiseSource(seed), **options)
            return float(traj.values[-1]), traj.step_count
    else:
        def run(seed):
            cs = simulate(*head, seed, **options)
            return (cs.fine_terminal, cs.coarse_terminal, cs.fine_steps,
                    cs.coarse_steps)
    return kernel._seeded(seeds, run)


def _run_cell(name, head, options, n_paths, base_seed, n_jobs):
    """Outcomes of seeds base_seed..base_seed+n_paths-1, in path order."""
    _integer(n_paths, "n_paths", 1)
    _integer(base_seed, "base_seed", 0)
    # more workers than CPUs cannot speed up a CPU-bound cell, and a pool
    # under fork starts all of them at its first submit
    n_jobs = min(_integer(n_jobs, "n_jobs", 1), os.cpu_count() or 1)
    # checked here as well as in each block, so a malformed argument stops
    # the cell before any worker starts
    _kernel_args(name, head, options)
    seeds = range(base_seed, base_seed + n_paths)
    if n_jobs <= 1 or n_paths < 2 * n_jobs:
        return _run_block((name, head, options, seeds))
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
    blocks = [(name, head, options, seeds[i:i + chunk])
              for i in range(0, n_paths, chunk)]
    try:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return [o for block in pool.map(_run_block, blocks) for o in block]
    except BrokenProcessPool as exc:
        raise EstimationError(
            f"a worker process died before the cell finished ({exc})") from None


def _survivors(outcomes, n_paths, what):
    """Finished outcomes and the failure count; the one 1% gate.

    A failure is the exception that ended its seed.
    """
    ok = [o for o in outcomes if not isinstance(o, Exception)]
    n_failures = len(outcomes) - len(ok)
    if n_failures * 100 >= n_paths:
        raise EstimationError(
            f"{n_failures} of {n_paths} paths exploded; the {what} would "
            "not be trustworthy")
    return ok, n_failures


def _mean_and_stderr(values, n_ok):
    mean = math.fsum(values) / n_ok
    if n_ok < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n_ok - 1)
    return mean, math.sqrt(var / n_ok)


def _aggregate_mse(k, delta, n_paths, outcomes):
    ok, n_failures = _survivors(outcomes, n_paths,
                                f"estimate at level k={k}")
    n_ok = len(ok)
    # d = x_f - x_c; d * d, the bits of CoupledSample.squared_diff
    mse, std_error = _mean_and_stderr([(d := o[0] - o[1]) * d for o in ok],
                                      n_ok)
    mean_fine = math.fsum(o[2] for o in ok) / n_ok
    mean_coarse = math.fsum(o[3] for o in ok) / n_ok
    log2_mse = math.log2(mse) if mse > 0.0 else float("-inf")
    return MseRow(k=k, delta=delta, n_paths=n_paths, mse=mse,
                  log2_mse=log2_mse, std_error=std_error,
                  mean_fine_steps=mean_fine, mean_coarse_steps=mean_coarse,
                  n_failures=n_failures)


def estimate_mse(model, h0, l0, k, n_paths, t_end, base_seed, n_jobs=1,
                 max_steps=DEFAULT_MAX_STEPS):
    """Strong-error row at level k for the adaptive scheme.

    Couples base steps 2**-(k+1) and 2**-k on one Brownian path per
    sample, using seeds base_seed..base_seed+n_paths-1.
    """
    outcomes = _run_cell("simulate_coupled_pair", (model, h0, l0, k, t_end),
                         {"max_steps": max_steps}, n_paths, base_seed, n_jobs)
    return _aggregate_mse(k, 2.0 ** (-k), n_paths, outcomes)


def estimate_tm_mse(model, k, n_paths, t_end, base_seed, n_jobs=1,
                    max_steps=DEFAULT_MAX_STEPS):
    """Strong-error row at level k for the fixed-step baseline."""
    outcomes = _run_cell("simulate_coupled_tm_pair", (model, k, t_end),
                         {"max_steps": max_steps}, n_paths, base_seed, n_jobs)
    return _aggregate_mse(k, 2.0 ** (-k), n_paths, outcomes)


def _abs_power(outcome, p):
    # a failed path stays failed, and a finite terminal state whose p-th
    # power overflows fails with that OverflowError
    if isinstance(outcome, Exception):
        return outcome
    try:
        return abs(outcome[0]) ** p
    except OverflowError as exc:
        return exc


def _moment_order(p):
    """p as a float; InputError unless it is a finite real number > 0."""
    p = _finite(p, "moment order p")
    if not p > 0.0:
        raise InputError(f"moment order p must be > 0, got {p}")
    return p


def estimate_moment(model, config, p, n_paths, base_seed, n_jobs=1):
    """Monte Carlo estimate of E|X_{t_end}|**p under the adaptive scheme."""
    p = _moment_order(p)
    outcomes = _run_cell("simulate_path", (model, config), {}, n_paths,
                         base_seed, n_jobs)
    vals, n_failures = _survivors([_abs_power(o, p) for o in outcomes],
                                  n_paths, "moment estimate")
    mean, std_error = _mean_and_stderr(vals, len(vals))
    return MomentEstimate(mean_abs_p=mean, std_error=std_error,
                          n_failures=n_failures)


def mean_step_count(model, config, n_paths, base_seed, n_jobs=1):
    """Monte Carlo mean of the adaptive scheme's step count on [0, t_end]."""
    outcomes = _run_cell("simulate_path", (model, config), {}, n_paths,
                         base_seed, n_jobs)
    ok, _ = _survivors(outcomes, n_paths, "step-count mean")
    return math.fsum(o[1] for o in ok) / len(ok)


def tm_step_count(t_end, delta):
    """Deterministic step count t_end/delta of the fixed-step baseline."""
    return _check_horizon(t_end, "t_end") / _check_delta(delta)
