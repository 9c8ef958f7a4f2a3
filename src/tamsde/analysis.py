"""Convergence-rate regression and work-versus-accuracy comparison.

The strong order is read off a least-squares line through
(k, log2 mse_k): halving the base step multiplies the root-mean-square
error by 2**slope/2, so the empirical rate is -slope/2.  The line also
yields an effective Hoelder exponent -slope - 1 for the diffusion
derivative, which is what the rate theory predicts the slope responds to.

compare_schemes puts the adaptive scheme and the fixed-step baseline on a
common axis: expected number of steps (log2), so the curves answer "which
scheme buys more accuracy per unit of work".
"""

import math
from dataclasses import dataclass

from .errors import InputError, RegressionError
from .montecarlo import estimate_mse, estimate_tm_mse, tm_step_count
from .scheme import DEFAULT_MAX_STEPS

__all__ = [
    "RateFit",
    "ComparisonRow",
    "fit_convergence_rate",
    "compare_schemes",
]

# Seed strides keeping Monte Carlo cells disjoint (see cell_seed): paths
# within a cell use consecutive seeds (base..base+n-1).
SEED_STRIDE_K = 2 ** 32
SEED_STRIDE_T = 2 ** 40
SEED_STRIDE_SCHEME = 2 ** 50


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (k, log2_mse) and derived exponents."""

    slope: float
    intercept: float
    empirical_rate: float
    alpha_prime: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class ComparisonRow:
    """One point of a work-versus-accuracy curve."""

    scheme: str
    t_end: float
    k: int
    log2_nt: float
    log2_mse: float
    n_failures: int = 0


def cell_seed(base_seed, n_paths, index, t_idx, baseline=False):
    """First seed of one Monte Carlo cell; path m of the cell uses + m.

    index is the level k (rate, compare) or the moment-order index
    (moments), t_idx the horizon index, and baseline selects the
    fixed-step scheme of compare.  Cells stay disjoint only while a cell
    holds at most 2**32 paths, index < 256 and t_idx < 1024, so anything
    else raises InputError, as does a base_seed that is not a non-negative
    integer (path seeds must be).
    """
    if (isinstance(base_seed, bool) or not isinstance(base_seed, int)
            or base_seed < 0):
        raise InputError(
            f"seed must be a non-negative integer, got {base_seed!r}")
    for what, value, limit in (
            ("paths per cell", n_paths, SEED_STRIDE_K + 1),
            ("level or moment-order index", index,
             SEED_STRIDE_T // SEED_STRIDE_K),
            ("horizon index", t_idx, SEED_STRIDE_SCHEME // SEED_STRIDE_T)):
        if (isinstance(value, bool) or not isinstance(value, int)
                or not 0 <= value < limit):
            raise InputError(
                f"{what} must be an integer in [0, {limit}) to keep seed "
                f"cells disjoint, got {value!r}")
    return (base_seed + index * SEED_STRIDE_K + t_idx * SEED_STRIDE_T
            + (SEED_STRIDE_SCHEME if baseline else 0))


def fit_convergence_rate(rows):
    """Fit log2 mse against the level k over a list of MseRow.

    Raises RegressionError when any mse is zero or non-finite (its log is
    not usable) and InputError when fewer than two distinct levels are
    present.
    """
    if len({row.k for row in rows}) < 2:
        raise InputError(
            "rate regression needs at least two distinct levels k, got "
            f"{sorted({row.k for row in rows})}")
    for row in rows:
        if not (row.mse > 0.0 and math.isfinite(row.mse)):
            raise RegressionError(
                f"mse at level k={row.k} is {row.mse!r}; "
                "log-scale regression is undefined")
    xs = [float(row.k) for row in rows]
    ys = [row.log2_mse for row in rows]
    n = len(rows)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2
                       for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        # All responses identical: a flat line explains them exactly.
        r_squared = 1.0
    return RateFit(slope=slope, intercept=intercept,
                   empirical_rate=-slope / 2.0,
                   alpha_prime=-slope - 1.0,
                   r_squared=r_squared, n_points=n)


def compare_schemes(model, h0, l0, ks, n_paths, t_values, base_seed,
                    n_jobs=1, max_steps=DEFAULT_MAX_STEPS):
    """Error-versus-work curves for both schemes over levels and horizons.

    For each horizon in t_values and each level in ks, one coupled
    strong-error estimate is produced per scheme.  The work axis is
    log2 of the expected coarse-leg step count: the empirical mean for
    the adaptive scheme, t_end/delta for the fixed-step baseline.

    Every (scheme, horizon, level) cell draws from a disjoint seed block
    derived from base_seed by cell_seed, so single cells can be reproduced
    in isolation and results do not depend on evaluation order.  Each
    row carries its cell's failure count.
    """
    ks = list(ks)
    t_values = list(t_values)
    if not ks:
        raise InputError("at least one level k is required")
    if not t_values:
        raise InputError("at least one horizon t_end is required")
    # every cell's seed is checked before the first cell runs
    cells = [(t_end, k, cell_seed(base_seed, n_paths, k, t_idx),
              cell_seed(base_seed, n_paths, k, t_idx, baseline=True))
             for t_idx, t_end in enumerate(t_values) for k in ks]
    rows = []
    for t_end, k, tam_seed, tm_seed in cells:
        tam = estimate_mse(model, h0, l0, k, n_paths, t_end, tam_seed,
                           n_jobs=n_jobs, max_steps=max_steps)
        rows.append(ComparisonRow(
            scheme="tam", t_end=t_end, k=k,
            log2_nt=math.log2(tam.mean_coarse_steps),
            log2_mse=tam.log2_mse, n_failures=tam.n_failures))
        tm = estimate_tm_mse(model, k, n_paths, t_end, tm_seed,
                             n_jobs=n_jobs, max_steps=max_steps)
        rows.append(ComparisonRow(
            scheme="tm", t_end=t_end, k=k,
            log2_nt=math.log2(tm_step_count(t_end, 2.0 ** (-k))),
            log2_mse=tm.log2_mse, n_failures=tm.n_failures))
    return rows
