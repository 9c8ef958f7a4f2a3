"""Command line experiment runner.

Four subcommands cover the study workflow:

  rate                strong-error table over levels k plus a fitted
                      convergence rate (rate.csv, rate.json)
  moments             E|X_T|**p across horizons (moments.csv)
  compare             error-versus-work curves for the adaptive scheme
                      and the fixed-step baseline (compare.csv)
  verify-assumptions  grid sweep of the dissipativity and one-sided
                      Lipschitz margins (assumptions.json)

Data goes to files under --out; progress and failure counts go to
standard error.  All floats are written with round-trip precision, so a
rerun with identical flags and seed reproduces every output byte.

Seed layout: every cell's first seed comes from analysis.cell_seed, so
enlarging the level range or horizon list never perturbs existing cells,
and a run whose cells could overlap exits with status 2 before any cell
runs.
"""

import argparse
import csv
import functools
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass

from .analysis import (_comparison_cells, cell_seed, compare_schemes,
                       fit_convergence_rate)
from .errors import Error, EstimationError, InputError
from .model import (_integer, check_dissipativity, check_one_sided_lipschitz,
                    get_model)
from .montecarlo import _moment_order, estimate_moment, estimate_mse
from .scheme import SchemeConfig, _check_horizon, _require_l0

__all__ = ["ExperimentConfig", "run_experiment", "main"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, one per CLI invocation."""

    kind: str
    model: str
    k_min: int = 1
    k_max: int = 5
    n_paths: int = 10_000
    t_values: tuple = (1.0,)
    p_values: tuple = (2.0,)
    h0: float = 1.0
    l0: float = 2.0
    seed: int = 0
    out_dir: str = "."
    threads: int = 1
    grid: str = "-50:50:10000"

    def __post_init__(self):
        # a str first, since an unhashable kind cannot be looked up
        if not isinstance(self.kind, str) or self.kind not in _RUNNERS:
            raise InputError(f"unknown experiment kind {self.kind!r}")
        # every kind checks these, so no run seeds its sample from the OS
        # or fails on an unusable field with a traceback
        _integer(self.seed, "seed", 0)
        _parse_grid(self.grid)
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise InputError(
                f"out_dir must be a str or path-like, got {self.out_dir!r}")
        _integer(self.k_min, "k-min")
        _integer(self.k_max, "k-max")
        if self.k_min < 1 or self.k_max < self.k_min:
            raise InputError(
                f"invalid level range: need 1 <= k-min <= k-max, got "
                f"k-min={self.k_min} k-max={self.k_max}")
        _integer(self.n_paths, "n_paths", 2)
        # every horizon and moment order is checked before any cell runs
        for name, what, check in (
                ("t_values", "T", lambda t_end: _check_horizon(t_end, "T")),
                ("p_values", "p", _moment_order)):
            values = getattr(self, name)
            try:
                values = tuple(values)
            except TypeError:
                raise InputError(
                    f"{what} must be a sequence of numbers, got {values!r}"
                ) from None
            if not values:
                raise InputError(f"{what} needs at least one value")
            object.__setattr__(self, name, tuple(map(check, values)))
        # rate fits one horizon; a second would be dropped without a word
        if self.kind == "rate" and len(self.t_values) > 1:
            raise InputError(
                f"rate takes one horizon T, got {len(self.t_values)}")
        # a one-level rate would run its cell and then fail the fit
        if self.kind == "rate" and self.k_max == self.k_min:
            raise InputError("rate regression needs at least two distinct "
                             f"levels k, got [{self.k_min}]")
        _integer(self.threads, "threads", 1)


def _fmt(value):
    """Round-trip text for one CSV cell."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _open_new(path, **kwargs):
    """path opened for writing as a new file: a file already there is
    unlinked first, since a truncated file is flushed to disk when it is
    closed (ext4), which made a rerun into the same --out ~8 times slower.
    Without that flush a system crash soon after the run can leave the
    file missing or empty.  A symlink at path is replaced, not followed,
    and a directory there raises an OSError."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", **kwargs)


def _write_csv(path, header, rows):
    with _open_new(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _finite(obj):
    """obj with every NaN or infinite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _write_json(path, obj):
    """obj as strict JSON: a NaN or infinite float is written as null."""
    with _open_new(path) as fh:
        json.dump(_finite(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _check_clock(config, model):
    """h0 and l0 as every adaptive cell checks them, before the first."""
    _require_l0(model, SchemeConfig(2.0 ** -config.k_min, config.t_values[0],
                                    config.h0, config.l0))


def _make_out_dir(config):
    """Make out_dir; each subcommand calls this once all its checks have
    passed, so a run they stop leaves no directory behind, and before its
    first cell, so an unusable directory stops the run before any work."""
    os.makedirs(config.out_dir, exist_ok=True)


# the most grid points: 100 times the default grid's.  A run builds every
# point and twice as many pairs, some 340 bytes a point, so a grid beyond
# this would exhaust memory before it checked anything.
_MAX_GRID = 10 ** 6


def _parse_grid(text):
    if not isinstance(text, str):
        raise InputError(f"grid must be a string lo:hi:n, got {text!r}")
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(
            f"grid must look like lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InputError(f"grid must look like lo:hi:n, got {text!r}") from None
    # a finite span hi - lo has finite ends; an infinite one, as in
    # -1e308:1e308, would make every grid point NaN
    if not (lo < hi and math.isfinite(hi - lo) and 2 <= n <= _MAX_GRID):
        raise InputError(
            f"grid needs finite lo < hi with a finite span hi - lo and "
            f"2 <= n <= {_MAX_GRID}, got {text!r}")
    return lo, hi, n


def _grid_points(lo, hi, n):
    span = hi - lo
    return [lo + span * (i / (n - 1)) for i in range(n)]


def _run_rate(config, model):
    ks = range(config.k_min, config.k_max + 1)
    # every cell's seed is checked before the first cell runs
    seeds = [cell_seed(config.seed, config.n_paths, k, 0) for k in ks]
    _check_clock(config, model)
    _make_out_dir(config)
    rows = []
    for k, seed in zip(ks, seeds):
        row = estimate_mse(model, config.h0, config.l0, k, config.n_paths,
                           config.t_values[0], seed, n_jobs=config.threads)
        rows.append(row)
        print(f"[rate] k={k} log2_mse={row.log2_mse:.4f} "
              f"failures={row.n_failures}", file=sys.stderr)
    fit = fit_convergence_rate(rows)
    _write_csv(
        os.path.join(config.out_dir, "rate.csv"),
        ["k", "delta", "n_paths", "mse", "log2_mse", "std_error",
         "mean_fine_steps", "mean_coarse_steps"],
        [(r.k, r.delta, r.n_paths, r.mse, r.log2_mse, r.std_error,
          r.mean_fine_steps, r.mean_coarse_steps) for r in rows])
    summary = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "empirical_rate": fit.empirical_rate,
        "alpha_prime": fit.alpha_prime,
        "r_squared": fit.r_squared,
        "theoretical_rate": (1.0 + model.regularity.alpha) / 2.0,
    }
    _write_json(os.path.join(config.out_dir, "rate.json"), summary)
    print(f"[rate] empirical_rate={fit.empirical_rate:.4f} "
          f"r_squared={fit.r_squared:.4f}", file=sys.stderr)


def _run_moments(config, model):
    delta = 2.0 ** (-config.k_min)
    # every cell's seed is checked before the first cell runs
    cells = [(t_end, p, cell_seed(config.seed, config.n_paths, p_idx, t_idx))
             for t_idx, t_end in enumerate(config.t_values)
             for p_idx, p in enumerate(config.p_values)]
    _check_clock(config, model)
    _make_out_dir(config)
    out_rows = []
    for t_end, p, seed in cells:
        scheme_config = SchemeConfig(delta=delta, t_end=t_end,
                                     h0=config.h0, l0=config.l0)
        est = estimate_moment(model, scheme_config, p, config.n_paths, seed,
                              n_jobs=config.threads)
        out_rows.append((float(t_end), float(p), est.mean_abs_p,
                         est.std_error))
        print(f"[moments] T={t_end} p={p} mean={est.mean_abs_p:.6g} "
              f"failures={est.n_failures}", file=sys.stderr)
    _write_csv(os.path.join(config.out_dir, "moments.csv"),
               ["T", "p", "mean_abs_p", "std_error"], out_rows)


def _run_compare(config, model):
    ks = list(range(config.k_min, config.k_max + 1))
    # every cell's seed is checked before the directory is made
    _comparison_cells(ks, config.n_paths, config.t_values, config.seed)
    _check_clock(config, model)
    _make_out_dir(config)
    rows = compare_schemes(model, config.h0, config.l0, ks, config.n_paths,
                           list(config.t_values), config.seed,
                           n_jobs=config.threads)
    _write_csv(os.path.join(config.out_dir, "compare.csv"),
               ["scheme", "T", "k", "log2_NT", "log2_mse"],
               [(r.scheme, float(r.t_end), r.k, r.log2_nt, r.log2_mse)
                for r in rows])
    for r in rows:
        print(f"[compare] scheme={r.scheme} T={r.t_end} k={r.k} "
              f"log2_mse={r.log2_mse:.4f} failures={r.n_failures}",
              file=sys.stderr)


def _run_verify_assumptions(config, model):
    lo, hi, n = _parse_grid(config.grid)
    _make_out_dir(config)
    xs = _grid_points(lo, hi, n)
    diss = check_dissipativity(model, xs)
    # Pair sample for the two-point condition: every consecutive grid pair
    # plus as many seeded random pairs, so both near-diagonal and far-apart
    # pairs are covered.
    pairs = [(xs[i], xs[i + 1]) for i in range(n - 1)]
    rng = random.Random(config.seed)
    for _ in range(n):
        pairs.append((xs[rng.randrange(n)], xs[rng.randrange(n)]))
    osl = check_one_sided_lipschitz(model, pairs)
    report = {
        "model": model.name,
        "grid": {"lo": lo, "hi": hi, "n": n},
        "dissipativity": asdict(diss),
        "one_sided_lipschitz": asdict(osl),
    }
    _write_json(os.path.join(config.out_dir, "assumptions.json"), report)
    print(f"[verify-assumptions] dissipativity holds={diss.holds} "
          f"one_sided_lipschitz holds={osl.holds}", file=sys.stderr)


# each experiment kind and the function that runs it
_RUNNERS = {"rate": _run_rate, "moments": _run_moments,
            "compare": _run_compare,
            "verify-assumptions": _run_verify_assumptions}


def run_experiment(config):
    """Execute one configured experiment, writing files under out_dir."""
    _RUNNERS[config.kind](config, get_model(config.model))


def _add_common(parser):
    # a flag left out is absent from the parsed namespace (argument_default
    # SUPPRESS), so ExperimentConfig supplies its default; only defaults
    # that differ from ExperimentConfig's are given here.  Each flag's dest
    # is its ExperimentConfig field, and a metavar keeps the flag's name in
    # the help
    parser.add_argument("--model", required=True,
                        help="builtin model name or path to a model JSON file")
    parser.add_argument("--paths", type=int, dest="n_paths", metavar="PATHS",
                        help="Monte Carlo paths per cell")
    parser.add_argument("--h0", type=float,
                        help="step-size scale of the adaptive rule")
    parser.add_argument("--l0", type=float,
                        help="state-growth exponent of the adaptive rule")
    parser.add_argument("--seed", type=int,
                        help="base seed; all cells derive from it")
    parser.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory (created if missing)")
    # left out, the processor count at the run (_config_from_args), not at
    # the parser's build: the parser is built once per process
    parser.add_argument("--threads", type=int, default=None,
                        help="worker budget for path simulation")


@functools.lru_cache(maxsize=None)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tamsde",
        description="Adaptive tamed Milstein experiments for scalar SDEs")
    sub = parser.add_subparsers(dest="kind", required=True)

    def subcommand(name, **kwargs):
        return sub.add_parser(name, argument_default=argparse.SUPPRESS,
                              **kwargs)

    rate = subcommand("rate", help="strong-error table and fitted rate")
    _add_common(rate)
    rate.add_argument("--k-min", type=int)
    rate.add_argument("--k-max", type=int)
    rate.add_argument("--T", type=float, nargs=1, dest="t_values",
                      metavar="T", help="time horizon")

    moments = subcommand("moments", help="E|X_T|**p across horizons")
    _add_common(moments)
    moments.add_argument("--k", type=int, default=4,
                         help="level fixing the base step 2**-k")
    moments.add_argument("--T", type=float, nargs="+", dest="t_values",
                         metavar="T", help="time horizons")
    moments.add_argument("--p", type=float, nargs="+", dest="p_values",
                         metavar="P", help="moment orders")

    compare = subcommand(
        "compare", help="error-versus-work curves for both schemes")
    _add_common(compare)
    compare.add_argument("--k-min", type=int)
    compare.add_argument("--k-max", type=int)
    compare.add_argument("--T", type=float, nargs="+", dest="t_values",
                         metavar="T", help="time horizons")

    verify = subcommand(
        "verify-assumptions",
        help="sweep the dissipativity and one-sided Lipschitz margins")
    verify.add_argument("--model", required=True)
    verify.add_argument("--grid", help="state grid as lo:hi:n")
    verify.add_argument("--seed", type=int,
                        help="seed for the random pair sample")
    verify.add_argument("--out", dest="out_dir", metavar="OUT")

    # moments and compare default to fewer paths than ExperimentConfig
    for costly in (moments, compare):
        costly.set_defaults(n_paths=1_000)
    return parser


def _config_from_args(args):
    fields = dict(vars(args))
    if fields.get("threads", 1) is None:
        fields["threads"] = os.cpu_count() or 1
    if "k" in fields:  # moments runs the single level k
        fields["k_min"] = fields["k_max"] = fields.pop("k")
    return ExperimentConfig(**fields)


def _fold_grid_value(argv):
    # argparse lexes "-50:50:10000" as an option flag; fold it into
    # --grid= form so a leading minus in the range survives parsing
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_fold_grid_value(list(argv)))
    try:
        run_experiment(_config_from_args(args))
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 3
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
