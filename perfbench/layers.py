"""Layer probe: per-call costs of each tamsde layer, timed from outside.

Two parts, both seeded from the benchmark seed and identical on every
workload, so a change to one layer shows on every traced run:

* microbenchmarks of the calls that run millions of times per job and
  so get no spans: coefficient evaluation, the adaptive clock, the state
  updates and the Philox noise source.  Each times a loop over inputs
  drawn from the models' own paths, after a warm-up, and reports the
  median over repeats in ns per call, Python call included;
* traced probe cells: the first paths of the workloads' most expensive
  cells (k=5 of rate-rough and compare-smooth, T=100 of moments-long),
  run through the same span wrappers as the traced job.
"""

import math
import random
import statistics
from time import perf_counter, perf_counter_ns

from tamsde import (NoiseSource, SchemeConfig, adaptive_step, compare_schemes,
                    estimate_moment, estimate_mse, evaluate_coefficients,
                    get_model, simulate_path, tam_step, tm_step)

from tracing import Tracer, children, descendants, leg_steps
from workloads import SEED_STRIDE_K, SEED_STRIDE_T, cli_seed

REPEATS = 7
STATES = 1000           # states per model for the per-call loops
NOISE_DRAWS = 8192
NOISE_SOURCES = 200
PAIRS = 200             # model2 k=5 adaptive pairs (rate-rough's top cell)
COMPARE_PAIRS = 200     # model1 k=5 pairs per scheme (compare-smooth's)
LONG_PATHS = 40         # model1 T=100 paths (moments-long's longest cell)
POOL_PATHS = 4          # smallest cell that still starts the 2-worker pool

# the microbenchmark level: delta = 2**-5, the workloads' finest coarse leg
DELTA = 2.0 ** -5
# only compare-smooth runs the fixed-step baseline, on model1
TM_MODELS = ("model1",)


def _median_ns(loop, n_calls):
    loop()  # warm-up: first-call and cache effects stay out of the figure
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        loop()
        times.append((perf_counter_ns() - t0) / n_calls)
    return statistics.median(times)


def visited_states(model, seed, n):
    """n states drawn from the adaptive paths of `model` (delta 2**-4, T=5)."""
    config = SchemeConfig(delta=2.0 ** -4, t_end=5.0)
    xs = []
    path_seed = seed
    while len(xs) < 4 * n:
        xs.extend(simulate_path(model, config, NoiseSource(path_seed))
                  .values.tolist())
        path_seed += 1
    return random.Random(seed).sample(xs, n)


def _model_costs(name, seed):
    model = get_model(name)
    xs = visited_states(model, seed, STATES)
    rng = random.Random(seed + 1)
    config = SchemeConfig(delta=DELTA, t_end=5.0)
    steps = [adaptive_step(model, config, x) for x in xs]
    dws = [rng.gauss(0.0, math.sqrt(dt)) for dt in steps]
    tam_args = list(zip(xs, steps, dws))
    tm_args = list(zip(xs, [rng.gauss(0.0, math.sqrt(DELTA)) for _ in xs]))

    def coef():
        for x in xs:
            evaluate_coefficients(model, x)

    def clock():
        for x in xs:
            adaptive_step(model, config, x)

    def tam():
        for x, dt, dw in tam_args:
            tam_step(model, x, DELTA, dt, dw)

    def tm():
        for x, dw in tm_args:
            tm_step(model, x, DELTA, dw)

    n = len(xs)
    costs = {
        f"model.coef_ns.{name}": _median_ns(coef, n),
        f"scheme.clock_ns.{name}": _median_ns(clock, n),
        f"scheme.tam_update_ns.{name}": _median_ns(tam, n),
    }
    if name in TM_MODELS:
        costs[f"scheme.tm_update_ns.{name}"] = _median_ns(tm, n)
    return costs


def _noise_costs(seed):
    duration = DELTA

    def draws():
        source = NoiseSource(seed)
        draw = source.gaussian_increment
        for _ in range(1024):  # Philox set-up and the first block
            draw(duration)
        t0 = perf_counter_ns()
        for _ in range(NOISE_DRAWS):
            draw(duration)
        return (perf_counter_ns() - t0) / NOISE_DRAWS

    def inits():
        for i in range(NOISE_SOURCES):
            NoiseSource(seed + i).gaussian_increment(duration)

    draws()
    return {
        "driver.noise_ns": statistics.median(draws() for _ in range(REPEATS)),
        "driver.noise_init_us": _median_ns(inits, NOISE_SOURCES) / 1e3,
    }


def _pool_overhead(seed):
    model = get_model("model2")

    def cell(n_jobs):
        t0 = perf_counter()
        estimate_mse(model, 1.0, 2.0, 1, POOL_PATHS, 5.0, seed, n_jobs=n_jobs)
        return perf_counter() - t0

    cell(1)
    return statistics.median(cell(2) - cell(1) for _ in range(3))


def _percentiles(values, prefix, ps=(50, 90, 99, 100)):
    # nearest rank, so integer counts stay integers and repeat exactly
    ordered = sorted(values)
    out = {}
    for p in ps:
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        out[f"{prefix}.{'max' if p == 100 else f'p{p}'}"] = ordered[rank - 1]
    return out


def _traced_cells(base):
    """Run the probe cells under a Tracer; return their spans by cell name."""
    model1, model2 = get_model("model1"), get_model("model2")
    tracer = Tracer()
    with tracer:
        with tracer.span("pairs"):
            estimate_mse(model2, 1.0, 2.0, 5, PAIRS, 5.0,
                         base + 5 * SEED_STRIDE_K)
        with tracer.span("compare_schemes"):
            compare_schemes(model1, 1.0, 2.0, [5], COMPARE_PAIRS, [5.0],
                            base)
        with tracer.span("paths"):
            estimate_moment(model1, SchemeConfig(delta=2.0 ** -4, t_end=100.0),
                            2.0, LONG_PATHS, base + 2 * SEED_STRIDE_T)
    spans = tracer.spans
    kids = children(spans)
    return {spans[root].name: [spans[i] for i in descendants(kids, root)]
            for root, span in enumerate(spans) if span.parent < 0}


def probe(seed):
    """Layer metrics and the exact counts they rest on, for one seed.

    The probe cells take the CLI seed of the seed's first job.  Returns
    (metrics, counts): metrics maps name to value; counts holds the
    deterministic step and failure counts that must repeat exactly.
    """
    base = cli_seed(seed, 0)
    metrics = {}
    counts = {}
    cells = _traced_cells(base)

    pairs = [s for s in cells["pairs"] if s.name == "simulate_coupled_pair"]
    ok = [s for s in pairs if "failed_leg" not in (s.attrs or {})]
    metrics["driver.tam_pair_ns_per_leg_step"] = (
        1e9 * sum(s.seconds for s in ok) / sum(leg_steps(s) for s in ok))
    metrics.update(_percentiles([1e3 * s.seconds for s in pairs],
                                "driver.pair_ms", ps=(50, 99)))
    counts.update(_percentiles([s.attrs["fine"] for s in ok],
                               "driver.fine_steps"))
    counts.update(_percentiles([s.attrs["coarse"] for s in ok],
                               "driver.coarse_steps"))
    for leg in ("fine", "coarse"):
        counts[f"driver.failed_pairs.{leg}"] = sum(
            1 for s in pairs if (s.attrs or {}).get("failed_leg") == leg)

    compare = cells["compare_schemes"]
    tm_pairs = [s for s in compare if s.name == "simulate_coupled_tm_pair"]
    metrics["driver.tm_pair_ns_per_leg_step"] = (
        1e9 * sum(s.seconds for s in tm_pairs)
        / sum(leg_steps(s) for s in tm_pairs))
    metrics["analysis.tm_share"] = (
        sum(s.seconds for s in compare if s.name == "estimate_tm_mse")
        / compare[0].seconds)

    paths = [s for s in cells["paths"] if s.name == "simulate_path"]
    steps = [leg_steps(s) for s in paths]
    metrics["scheme.path_ns_per_step"] = (
        1e9 * sum(s.seconds for s in paths) / sum(steps))
    counts.update(_percentiles(steps, "scheme.steps_per_path"))

    for name in ("model1", "model2"):
        metrics.update(_model_costs(name, base))
    metrics.update(_noise_costs(base))
    metrics["montecarlo.pool_overhead_s"] = _pool_overhead(base)
    return metrics, counts
