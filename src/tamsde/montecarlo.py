"""Monte Carlo estimators for strong error, moments and step counts.

The strong-error probe at level k couples the base steps 2**-(k+1) and
2**-k on one Brownian path per sample and averages the squared terminal
difference.  Path m always uses seed base_seed + m, so results are
reproducible, independent of worker count, and unaffected by adding more
paths or more levels elsewhere.

All reductions go through math.fsum (exact summation), which makes every
aggregate independent of chunking and scheduling order; a worker pool can
only change how fast the answer arrives, never its bytes.

Paths that raise PathExplosion (or whose |X_T|**p overflows) are excluded
from the averages and counted; once failures reach 1% of the requested
paths the estimate is refused (EstimationError) rather than silently
biased.
"""

import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

# the three path functions are looked up by name in _run_block
from .driver import NoiseSource, simulate_coupled_pair, simulate_coupled_tm_pair
from .errors import EstimationError, InputError, PathExplosion
from .scheme import DEFAULT_MAX_STEPS, simulate_path

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


def _run_block(args):
    """Worker: one outcome per seed of a block, None for an exploded path.

    Calls the path function `name`, looked up at call time, as
    name(*head, seed, **options); simulate_path gets NoiseSource(seed).
    A pair yields (squared_diff, fine_steps, coarse_steps), a path
    (terminal state, step_count).
    """
    name, head, options, seeds = args
    simulate = globals()[name]
    out = []
    for seed in seeds:
        try:
            if name == "simulate_path":
                traj = simulate(*head, NoiseSource(seed), **options)
                out.append((float(traj.values[-1]), traj.step_count))
            else:
                cs = simulate(*head, seed, **options)
                out.append((cs.squared_diff, cs.fine_steps, cs.coarse_steps))
        except PathExplosion:
            out.append(None)
    return out


def _run_cell(name, head, options, n_paths, base_seed, n_jobs):
    """Outcomes of seeds base_seed..base_seed+n_paths-1, in path order."""
    if isinstance(n_paths, bool) or not isinstance(n_paths, int) or n_paths < 1:
        raise InputError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    if isinstance(base_seed, bool) or not isinstance(base_seed, int) or base_seed < 0:
        raise InputError(f"base_seed must be a non-negative integer, got {base_seed!r}")
    seeds = range(base_seed, base_seed + n_paths)
    if n_jobs <= 1 or n_paths < 2 * n_jobs:
        return _run_block((name, head, options, seeds))
    try:
        pickle.dumps(head)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise InputError(
            f"the model cannot be sent to {n_jobs} worker processes ({exc}); "
            "use module-level coefficient functions or n_jobs=1") from None
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
    """Finished outcomes and the failure count; the one 1% gate."""
    ok = [o for o in outcomes if o is not None]
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
    mse, std_error = _mean_and_stderr([o[0] for o in ok], n_ok)
    mean_fine = math.fsum(o[1] for o in ok) / n_ok
    mean_coarse = math.fsum(o[2] for o in ok) / n_ok
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
    # a finite terminal state whose p-th power overflows counts as a failure
    try:
        return abs(outcome[0]) ** p
    except OverflowError:
        return None


def estimate_moment(model, config, p, n_paths, base_seed, n_jobs=1):
    """Monte Carlo estimate of E|X_{t_end}|**p under the adaptive scheme."""
    if not p > 0.0:
        raise InputError(f"moment order p must be > 0, got {p}")
    outcomes = _run_cell("simulate_path", (model, config), {}, n_paths,
                         base_seed, n_jobs)
    vals, n_failures = _survivors(
        [None if o is None else _abs_power(o, p) for o in outcomes],
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
    if not t_end > 0.0:
        raise InputError(f"t_end must be > 0, got {t_end}")
    if not 0.0 < delta < 1.0:
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    return t_end / delta
