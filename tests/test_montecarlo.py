"""Monte Carlo aggregation: MSE rows, moments, step counts, failures."""

import array
import concurrent.futures
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tamsde.montecarlo
from tamsde import (EstimationError, InputError, MseRow, PathExplosion,
                    PowerTerm, SchemeConfig, estimate_moment, estimate_mse,
                    estimate_tm_mse, get_model, kernel, mean_step_count,
                    simulate_coupled_pair, tm_step_count)
from tamsde.montecarlo import _aggregate_mse, _run_cell

from test_kernel import SRC, as_block, lib, model1_as_json  # lib: a fixture
from test_scheme import make_term_model

M1 = get_model("model1")
M2 = get_model("model2")
GBM = get_model("gbm")

BROWNIAN = make_term_model("brownian", [], [PowerTerm(coeff=1.0)], x0=0.0)
FLAT_HALF = make_term_model("flat_half", [], [], x0=0.5)
# model1 as a JSON model, whose blocks the kernel declines and runs on the
# reference loops
with tempfile.TemporaryDirectory() as _tmp:
    M1_JSON = model1_as_json(pathlib.Path(_tmp))


def _exit_process(x):
    # a drift that kills the worker process evaluating it
    os._exit(3)


@pytest.fixture
def two_cpus(monkeypatch):
    # a cell starts at most one worker a CPU; a test that needs a pool of
    # two real workers keeps it on a host with one CPU
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


class TestEstimateMse:
    def test_two_paths_equal_hand_average(self):
        row = estimate_mse(M1, 1.0, 2.0, 2, 2, 1.0, 500)
        a = simulate_coupled_pair(M1, 1.0, 2.0, 2, 1.0, 500)
        b = simulate_coupled_pair(M1, 1.0, 2.0, 2, 1.0, 501)
        assert row.mse == math.fsum([a.squared_diff, b.squared_diff]) / 2
        assert row.mean_fine_steps == (a.fine_steps + b.fine_steps) / 2
        assert row.mean_coarse_steps == (a.coarse_steps + b.coarse_steps) / 2
        assert row.n_paths == 2 and row.n_failures == 0
        assert row.delta == 0.25
        assert row.log2_mse == math.log2(row.mse)

    def test_consecutive_seed_convention(self):
        # the tail of a longer run must equal a shorter run started at the
        # tail's base seed, path for path
        long_row = estimate_mse(M1, 1.0, 2.0, 2, 10, 1.0, 100)
        manual = [simulate_coupled_pair(M1, 1.0, 2.0, 2, 1.0, 100 + m).squared_diff
                  for m in range(10)]
        assert long_row.mse == math.fsum(manual) / 10

    def test_pure_brownian_mse_vanishes(self):
        row = estimate_mse(BROWNIAN, 1.0, 2.0, 3, 20, 1.0, 0)
        assert row.mse <= 1e-24
        assert row.log2_mse < -79.0  # log2 of a <= 1e-24 number

    def test_determinism(self):
        a = estimate_mse(M1, 1.0, 2.0, 2, 30, 1.0, 42)
        b = estimate_mse(M1, 1.0, 2.0, 2, 30, 1.0, 42)
        assert a == b

    def test_std_error_shrinks_with_paths(self):
        # 16x the paths should shrink the standard error about 4x
        small = estimate_mse(M1, 1.0, 2.0, 2, 200, 1.0, 7)
        large = estimate_mse(M1, 1.0, 2.0, 2, 3200, 1.0, 7)
        ratio = small.std_error / large.std_error
        assert 3.5 <= ratio <= 4.6

    def test_fine_steps_exceed_coarse(self):
        for k in (1, 3):
            row = estimate_mse(M1, 1.0, 2.0, k, 20, 1.0, 9)
            assert row.mean_fine_steps > row.mean_coarse_steps

    def test_worker_pool_matches_serial(self, two_cpus):
        serial = estimate_mse(M1, 1.0, 2.0, 2, 40, 1.0, 11, n_jobs=1)
        pooled = estimate_mse(M1, 1.0, 2.0, 2, 40, 1.0, 11, n_jobs=2)
        assert serial == pooled

    def test_unpicklable_model_rejected_before_the_pool(self, two_cpus):
        lam = M1.replace(drift=lambda x: 0.1 * (x - x * x * x))
        with pytest.raises(InputError, match="worker processes"):
            estimate_mse(lam, 1.0, 2.0, 2, 40, 1.0, 11, n_jobs=2)

    def test_dead_worker_is_an_estimation_error(self, two_cpus):
        dying = M1.replace(drift=_exit_process)
        with pytest.raises(EstimationError, match="worker process died"):
            estimate_mse(dying, 1.0, 2.0, 2, 40, 1.0, 11, n_jobs=2)

    def test_all_paths_exploding_raises(self):
        hot = make_term_model("hot", [PowerTerm(coeff=1e150, power=3)], [],
                              x0=1e80, l=3.0, p0=24.0)
        with pytest.raises(EstimationError, match="exploded"):
            estimate_mse(hot, 1.0, 4.0, 1, 5, 1e300, 0, max_steps=1000)

    def test_input_validation(self):
        with pytest.raises(InputError):
            estimate_mse(M1, 1.0, 2.0, 2, 0, 1.0, 0)
        with pytest.raises(InputError):
            estimate_mse(M1, 1.0, 2.0, 2, 10, 1.0, -1)
        with pytest.raises(InputError):
            estimate_mse(M1, 1.0, 2.0, 2, True, 1.0, 0)


# each path function by its name in tamsde.montecarlo, with a cell that
# calls it on seeds 40..69
CELLS = {
    "simulate_coupled_pair": lambda: estimate_mse(M1, 1.0, 2.0, 2, 30, 1.0,
                                                  40),
    "simulate_coupled_tm_pair": lambda: estimate_tm_mse(M1, 2, 30, 1.0, 40),
    "simulate_path": lambda: estimate_moment(M1, SchemeConfig(0.25, 1.0), 2.0,
                                             30, 40),
}


@pytest.fixture
def blocks(monkeypatch):
    """Each kernel.run_block call, as its number of seeds and True when C
    ran the block, which no call of a Python loop shows."""
    seen, loops = [], []
    for module, name in ((tamsde.driver, "_merge"),
                         (tamsde.scheme, "_path_loop")):
        def counted(*args, _loop=getattr(module, name), **kwargs):
            loops.append(args)
            return _loop(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    run_block = kernel.run_block

    def recorded(*args):
        ran = len(loops)
        out = run_block(*args)
        seen.append((len(args[2]), len(loops) == ran))
        return out

    monkeypatch.setattr(kernel, "run_block", recorded)
    return seen


def rebind(monkeypatch, name):
    """Rebind the path function name in tamsde.montecarlo to a wrapper
    that records each call's seed; returns the list of seeds."""
    seeds = []
    original = getattr(tamsde.montecarlo, name)

    def counting(*args, **kwargs):
        last = args[-1]  # a pair's seed, or a path's NoiseSource
        seeds.append(last.seed if name == "simulate_path" else last)
        return original(*args, **kwargs)

    monkeypatch.setattr(tamsde.montecarlo, name, counting)
    return seeds


class TestBlockRoute:
    # a cell's block goes to the kernel in one call while the path
    # function's name is the library's own; a rebound name (a tracer's
    # wrapper, a test's forced explosion) is called once per seed instead,
    # and each pair it runs is a block of one
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_rebound_name_is_called_once_per_seed(self, monkeypatch, blocks,
                                                   name):
        taken = kernel.library() is not None
        unbound = CELLS[name]()
        assert blocks == [(30, taken)]
        blocks.clear()
        seeds = rebind(monkeypatch, name)
        assert CELLS[name]() == unbound
        assert seeds == list(range(40, 70))
        assert blocks == ([] if name == "simulate_path" else [(1, taken)] * 30)

    @pytest.mark.parametrize("call", [
        lambda: estimate_mse(M1, 1.0, 2.0, 0, 10, 1.0, 0),
        lambda: estimate_mse(M1, 0.0, 2.0, 2, 10, 1.0, 0),
        lambda: estimate_mse(M1, 1.0, 1.5, 2, 10, 1.0, 0),
        lambda: estimate_mse(make_term_model("hot", [], [], l=6.0), 1.0, 2.0,
                             2, 10, 1.0, 0),
        lambda: estimate_tm_mse(M1, 2, 10, math.inf, 0),
        lambda: estimate_tm_mse(M1, 2, 10, 1.0, 0, max_steps=0),
        lambda: estimate_moment(make_term_model("hot", [], [], l=6.0),
                                SchemeConfig(0.25, 1.0), 2.0, 10, 0)],
        ids=["k", "h0", "l0", "l0-below-model-minimum", "t_end",
             "max_steps", "path-l0-below-model-minimum"])
    def test_same_input_errors_on_both_routes(self, monkeypatch, call):
        with pytest.raises(InputError) as block_route:
            call()
        for name in CELLS:
            rebind(monkeypatch, name)
        with pytest.raises(InputError) as seed_route:
            call()
        assert str(block_route.value) == str(seed_route.value)

    @pytest.mark.parametrize("call", [
        lambda: estimate_mse(M1, 1.0, 2.0, 0, 10, 1.0, 0, n_jobs=2),
        lambda: estimate_mse(M1, 1.0, 1.0, 2, 10, 1.0, 0, n_jobs=2),
        lambda: estimate_tm_mse(M1, 2, 10, math.inf, 0, n_jobs=2),
        lambda: estimate_tm_mse(M1, 2, 10, 1.0, 0, n_jobs=2, max_steps=0)],
        ids=["k", "l0", "t_end", "max_steps"])
    def test_input_errors_start_no_worker_pool(self, monkeypatch, two_cpus,
                                               call):
        # the cell's arguments are checked in the calling process, so a
        # malformed one is raised before a pool is made.  _run_cell imports
        # the pool class from concurrent.futures when it first needs one, so
        # it is counted there
        started = []

        class Counting(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Counting)
        with pytest.raises(InputError):
            call()
        assert started == []
        estimate_tm_mse(M1, 2, 10, 1.0, 0, n_jobs=2)
        assert started == [{"max_workers": 2}]

    def test_pooled_cell_while_run_block_is_rebound(self, blocks, two_cpus):
        # the pool's task is sent to the workers by its name in montecarlo,
        # not as the current kernel.run_block, which a caller may rebind
        assert estimate_tm_mse(M1, 2, 40, 1.0, 3, n_jobs=2) == (
            estimate_tm_mse(M1, 2, 40, 1.0, 3))

    def test_seeds_past_two_to_the_64_run_in_one_block(self, monkeypatch,
                                                       blocks):
        # the kernel steps a block's first seed word by word, so a cell
        # across 2**64 is one block and equals its seeds run one by one
        base = 2 ** 64 - 3
        unbound = estimate_mse(M1, 1.0, 2.0, 2, 6, 1.0, base)
        assert blocks == [(6, kernel.library() is not None)]
        seeds = rebind(monkeypatch, "simulate_coupled_pair")
        assert estimate_mse(M1, 1.0, 2.0, 2, 6, 1.0, base) == unbound
        assert seeds == list(range(base, base + 6))


# a cell whose simulate_coupled_pair is rebound to force two of its 400
# seeds to explode, run serially and on two workers in a fresh interpreter
# that starts pools by the method argv[1] names; it prints whether the
# rows are equal, the failures, and whether the wrapper in this process saw
# every seed of both cells
REBOUND_CELL = """
import multiprocessing
import os
import sys

import tamsde.montecarlo
from tamsde import PathExplosion, estimate_mse, get_model

os.cpu_count = lambda: 2
multiprocessing.set_start_method(sys.argv[1])
original = tamsde.montecarlo.simulate_coupled_pair
seen = []


def forced(*args, **kwargs):
    seen.append(args[-1])
    if args[-1] in (7, 300):
        raise PathExplosion("forced")
    return original(*args, **kwargs)


tamsde.montecarlo.simulate_coupled_pair = forced
serial, pooled = (estimate_mse(get_model("model1"), 1.0, 2.0, 2, 400, 1.0, 0,
                               n_jobs) for n_jobs in (1, 2))
print(pooled == serial, serial.n_failures, seen == [*range(400)] * 2)
"""


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_rebound_cell_is_the_serial_cell_under_every_start_method(method):
    # the rebinding lives in the calling process, so a rebound name runs
    # there at any n_jobs: workers that a pool starts by forkserver or
    # spawn import a fresh tamsde and would never see it, and forked ones
    # would call it where the caller cannot count
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    proc = subprocess.run([sys.executable, "-c", REBOUND_CELL, method],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout.split()) == (
        0, ["True", "2", "True"]), proc.stderr


def block_key(block):
    """A Block as comparable values: its states by .hex(), its step counts
    with their types, and each failure by its index and its
    PathExplosion's type, leg, time, state, steps and message."""
    states, steps, failures = block
    return ([[v.hex() for v in column] for column in states],
            [[(type(v), v) for v in column] for column in steps],
            [(i, type(exc), exc.leg, exc.time.hex(), exc.state.hex(),
              exc.steps, str(exc)) for i, exc in failures])


# a block of seeds 40..69 of each path function, with the number of seeds
# a small step budget stops; a fixed-step pair's step counts do not depend
# on the seed, so its budget stops every seed or none.  The kernel declines
# the JSON model's blocks, so there both routes run one seed at a time
# through kernel._seeded, the reference loops under the rebound names.
RECORD_BLOCKS = [
    ("simulate_coupled_pair", (M2, 1.0, 2.0, 2, 1.0), {"max_steps": 19}, 8),
    ("simulate_coupled_tm_pair", (M1, 2, 1.0), {"max_steps": 5}, 30),
    ("simulate_coupled_tm_pair", (M1, 2, 1.0), {"max_steps": 8}, 0),
    ("simulate_path", (M2, SchemeConfig(0.25, 1.0, max_steps=10)), {}, 5),
    ("simulate_coupled_pair", (M1_JSON, 1.0, 2.0, 2, 5.0),
     {"max_steps": 50}, 4),
    ("simulate_path", (M1_JSON, SchemeConfig(0.25, 5.0, max_steps=25)), {},
     2),
]
RECORD_IDS = ["pair", "tm-pair-stopped", "tm-pair-finished", "path",
              "declined-pair", "declined-path"]


class TestRecords:
    # both routes of _run_cell give the kernel's columns, and a failure
    # keeps its seed's index and its PathExplosion, also across the
    # process pool, whose blocks' columns are joined in seed order
    @pytest.mark.parametrize("name, head, options, n_stopped", RECORD_BLOCKS,
                             ids=RECORD_IDS)
    def test_both_routes_give_equal_records(self, monkeypatch, name, head,
                                            options, n_stopped):
        unbound, _ = _run_cell(name, head, options, 30, 40, 1)
        seeds = rebind(monkeypatch, name)
        rebound, _ = _run_cell(name, head, options, 30, 40, 1)
        assert seeds == list(range(40, 70))
        assert block_key(rebound) == block_key(unbound)
        assert len(unbound.failures) == n_stopped

    @pytest.mark.parametrize("name, head, options, n_stopped", RECORD_BLOCKS,
                             ids=RECORD_IDS)
    def test_pooled_records_equal_serial(self, name, head, options,
                                         n_stopped):
        serial, _ = _run_cell(name, head, options, 30, 40, 1)
        pooled, _ = _run_cell(name, head, options, 30, 40, 2)
        assert block_key(pooled) == block_key(serial)
        assert len(pooled.failures) == n_stopped

    @pytest.mark.parametrize("name, head, options, n_stopped", RECORD_BLOCKS,
                             ids=RECORD_IDS)
    def test_every_route_gives_array_columns(self, monkeypatch, two_cpus,
                                             name, head, options, n_stopped):
        # a C block of each runner, a declined block, a 2-worker pooled
        # cell and the rebound per-seed route all give each column as an
        # array: 'd' for states and 'q' for step counts
        routes = [_run_cell(name, head, options, 30, 40, n_jobs)[0]
                  for n_jobs in (1, 2)]
        rebind(monkeypatch, name)
        routes.append(_run_cell(name, head, options, 30, 40, 1)[0])
        for states, steps, failures in routes:
            assert len(failures) == n_stopped
            assert [(type(c), c.typecode) for c in states] == (
                [(array.array, "d")] * len(states))
            assert [(type(c), c.typecode) for c in steps] == (
                [(array.array, "q")] * len(steps))
            assert len(states) == len(steps) == (
                1 if name == "simulate_path" else 2)


    def test_declined_cells_pooled_equal_serial(self, tmp_path):
        # a JSON model's blocks run on the Python loops in the kernel
        # module, in the workers as in the calling process
        model, config = model1_as_json(tmp_path), SchemeConfig(0.25, 2.0)

        def rows(n_jobs):
            return (estimate_mse(model, 1.0, 2.0, 2, 12, 2.0, 5, n_jobs),
                    estimate_moment(model, config, 2.0, 12, 5, n_jobs))

        assert rows(2) == rows(1)


class TestAggregation:
    # _aggregate_mse consumes a cell's Block: the columns of each seed's
    # fine and coarse states and step counts, and a failure's index and
    # PathExplosion (as_block builds one from per-seed outcomes)

    def test_failures_below_threshold_recorded(self):
        outcomes = as_block([(2.0, 1.0, 10, 5)] * 199
                            + [PathExplosion("stopped")], 2)
        row = _aggregate_mse(3, 0.125, 200, outcomes)
        assert row.n_failures == 1
        assert row.n_paths == 200
        assert row.mse == 1.0  # survivors only

    def test_failures_at_threshold_raise(self):
        outcomes = as_block([(2.0, 1.0, 10, 5)] * 198
                            + [PathExplosion("stopped")] * 2, 2)
        with pytest.raises(EstimationError, match="2 of 200"):
            _aggregate_mse(3, 0.125, 200, outcomes)

    def test_zero_mse_maps_to_minus_inf(self):
        row = _aggregate_mse(1, 0.5, 3, as_block([(0.5, 0.5, 4, 2)] * 3, 2))
        assert row.mse == 0.0 and row.log2_mse == -math.inf
        assert row.std_error == 0.0

    def test_mean_and_std_error(self):
        # exact differences 1 and -3, so squares 1 and 9
        outcomes = as_block([(2.0, 1.0, 10, 5), (-1.0, 2.0, 12, 6)], 2)
        row = _aggregate_mse(2, 0.25, 2, outcomes)
        assert row.mse == 5.0
        # sample variance 32, se = sqrt(32/2) = 4
        assert row.std_error == 4.0
        assert row.mean_fine_steps == 11.0
        assert row.mean_coarse_steps == 5.5

    def test_failures_anywhere_in_the_columns(self):
        # a failure's entries are left out wherever it falls in the cell
        ok = [(2.0, 1.0, 10, 5), (-1.0, 2.0, 12, 6)]
        stop = PathExplosion("stopped")
        want = _aggregate_mse(2, 0.25, 300, as_block(ok, 2))
        for outcomes in ([stop, *ok], [ok[0], stop, ok[1]], [*ok, stop]):
            row = _aggregate_mse(2, 0.25, 300, as_block(outcomes, 2))
            assert row.replace(n_failures=0) == want
            assert row.n_failures == 1


# the paths of the cells of the memory test, and the bytes a path each may
# hold at its peak, reduced in C and in Python: its block's columns, and
# in Python one value a path for the mean
MEMORY_PATHS = 2 * 10 ** 4
MEMORY_CELLS = {
    "adaptive": (lambda n: estimate_mse(M1, 1.0, 2.0, 1, n, 1.0, 0), 46, 72),
    "fixed": (lambda n: estimate_tm_mse(M1, 1, n, 1.0, 0), 46, 72),
    "path": (lambda n: estimate_moment(M1, SchemeConfig(0.25, 1.0), 2.0, n,
                                       0), 30, 48),
}


@pytest.mark.parametrize("name", sorted(MEMORY_CELLS))
def test_cell_memory_per_path(name):
    # a cell's outcome is columns, not a tuple a seed: a pair path holds
    # its two states, two step counts, stop time and status, and, reduced
    # in Python, its squared difference
    cell, in_c, in_python = MEMORY_CELLS[name]
    cell(100)  # the kernel is loaded, or its build tried, before counting
    per_path = in_python if kernel.library() is None else in_c
    tracemalloc.start()
    try:
        cell(MEMORY_PATHS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= per_path * MEMORY_PATHS


def reduced(states, steps, p):
    """_reduce's outcome on states and steps as arrays, in C and in
    Python: the n_ok each gated, and its sums, each float as its .hex(),
    or the type and arguments of the error it raised.  The gate refuses
    only a cell with no value kept, as _gate does any cell."""
    states = tuple(array.array("d", column) for column in states)
    steps = tuple(array.array("q", column) for column in steps)
    out = []
    for lib in (kernel.library(), None):
        gated = []

        def gate(n_ok):
            gated.append(n_ok)
            if n_ok == 0:
                raise EstimationError("no value kept")
        try:
            sums = tamsde.montecarlo._reduce(lib, states, steps, p, gate)
        except (EstimationError, OverflowError, ValueError) as exc:
            out.append((gated, type(exc), exc.args))
        else:
            out.append((gated, [v.hex() if isinstance(v, float) else v
                                for v in sums]))
    return out


# a seed's outcome in a pair cell: a failed seed's nan states and 0 steps,
# or finite states, from equal ones to ones whose difference squares past
# the float range, and step counts
PAIR_SEEDS = st.one_of(
    st.just((math.nan, math.nan, 0, 0)),
    st.tuples(st.floats(-1e200, 1e200), st.floats(-1e200, 1e200),
              st.integers(0, 2 ** 40), st.integers(0, 2 ** 40)),
    st.floats(-10.0, 10.0).map(lambda x: (x, x, 7, 3)))


class TestReductionInC:
    # a cell of a model C runs is reduced in C (kernel.cell_sums), with
    # the Python reduction's bits, gate and errors

    @pytest.fixture(autouse=True)
    def _kernel(self, lib):
        pass

    @settings(max_examples=300, deadline=None)
    @given(seeds=st.lists(PAIR_SEEDS, min_size=1, max_size=30))
    @example(seeds=[(math.nan, math.nan, 0, 0), (1.0, 0.5, 3, 2)])  # n_ok 1
    @example(seeds=[(2.0, 1.0, 10, 5), (-1.0, 2.0, 12, 6)])  # n_ok 2
    @example(seeds=[(0.3, 0.3, 5, 3)] * 3)  # zero variance
    @example(seeds=[(1e100, 0.0, 1, 1), (0.0, 0.0, 1, 1)])  # ** overflows
    @example(seeds=[(math.sqrt(1.7e308), 0.0, 1, 1)] * 2)  # fsum overflows
    def test_pair_cells(self, seeds):
        x_f, x_c, n_f, n_c = zip(*seeds)
        c, python = reduced((x_f, x_c), (n_f, n_c), None)
        assert c == python

    @settings(max_examples=300, deadline=None)
    @given(states=st.lists(st.one_of(st.just(math.nan), st.floats()),
                           min_size=1, max_size=30),
           p=st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5, 200.0]))
    @example(states=[math.nan, 2.0], p=2.0)  # n_ok 1
    @example(states=[1e200, 0.0], p=1.0)  # ** overflows
    @example(states=[1.7e308, 1.7e308], p=1.0)  # fsum overflows
    @example(states=[1e200, 0.5, -3.0], p=2.0)  # a power overflows
    def test_path_cells(self, states, p):
        c, python = reduced((states,), (), p)
        assert c == python

    def test_cells_of_built_in_models_reduce_in_c(self, monkeypatch):
        calls = []

        def recorded(lib, states, steps, p=None):
            calls.append(p)
            return cell_sums(lib, states, steps, p)

        cell_sums = kernel.cell_sums
        monkeypatch.setattr(kernel, "cell_sums", recorded)
        row = estimate_mse(M2, 1.0, 2.0, 2, 40, 1.0, 3)
        assert row == _aggregate_mse(
            2, 0.25, 40, _run_cell("simulate_coupled_pair",
                                   (M2, 1.0, 2.0, 2, 1.0),
                                   {"max_steps": 10 ** 8}, 40, 3, 1)[0])
        estimate_tm_mse(M1, 2, 40, 1.0, 3)
        estimate_moment(GBM, SchemeConfig(0.25, 1.0), 3.0, 40, 3)
        assert calls == [None, None, 3.0]


class TestTmMse:
    def test_row_shape(self):
        row = estimate_tm_mse(M1, 2, 25, 1.0, 77)
        assert row.k == 2 and row.delta == 0.25 and row.n_paths == 25
        # deterministic grids: every path takes exactly T/delta steps
        assert row.mean_fine_steps == 8.0
        assert row.mean_coarse_steps == 4.0

    def test_determinism(self):
        assert estimate_tm_mse(M1, 3, 20, 1.0, 5) == estimate_tm_mse(
            M1, 3, 20, 1.0, 5)

    def test_worker_pool_matches_serial(self, two_cpus):
        serial = estimate_tm_mse(M1, 2, 40, 1.0, 3, n_jobs=1)
        pooled = estimate_tm_mse(M1, 2, 40, 1.0, 3, n_jobs=2)
        assert serial == pooled

    @pytest.mark.parametrize("cpus, n_jobs, want", [
        (2, 5000, [2]), (4, 3, [3]), (None, 8, []), (1, 2, [])],
        ids=["capped", "under", "unknown-cpus", "one-cpu"])
    def test_workers_never_exceed_the_cpus(self, monkeypatch, cpus, n_jobs,
                                           want):
        # a fork pool starts all its workers at the first submit, so the
        # count is capped at the host's CPUs (1 when unknown), and one
        # worker is a serial cell; the fake pool starts no process
        started = []

        class Fake:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Fake)
        row = estimate_tm_mse(M1, 2, 40, 1.0, 3, n_jobs=n_jobs)
        assert started == want
        assert row == estimate_tm_mse(M1, 2, 40, 1.0, 3, n_jobs=1)

    def test_zero_budget_is_an_input_error(self):
        # a budget no pair can keep is a malformed argument, not ten
        # exploded paths
        with pytest.raises(InputError, match="max_steps"):
            estimate_tm_mse(M1, 2, 10, 1.0, 0, max_steps=0)


class TestEstimateMoment:
    def test_flat_model_exact(self):
        # 8 identical dyadic values: mean exactly 0.25, spread exactly 0
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        est = estimate_moment(FLAT_HALF, cfg, 2.0, 8, 0)
        assert est.mean_abs_p == 0.25
        assert est.std_error == 0.0
        assert est.n_failures == 0

    def test_gbm_second_moment_matches_closed_form(self):
        # E|X_T|^2 = x0^2 exp((2a+b^2) T) for GBM
        cfg = SchemeConfig(delta=2.0 ** -8, t_end=1.0)
        est = estimate_moment(GBM, cfg, 2.0, 400, 123)
        exact = math.exp(2 * 0.05 + 0.2 ** 2)
        assert abs(est.mean_abs_p - exact) <= 4 * est.std_error

    def test_p_validation(self):
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        with pytest.raises(InputError, match="p"):
            estimate_moment(M1, cfg, 0.0, 4, 0)

    def test_determinism(self):
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        assert estimate_moment(M1, cfg, 2.0, 30, 9) == estimate_moment(
            M1, cfg, 2.0, 30, 9)

    def test_nonfinite_terminal_state_counts_as_failure(self):
        # every path overflows on its only step; the estimate must refuse,
        # not report mean_abs_p = inf with no failures
        hot = make_term_model("hot", [PowerTerm(coeff=1e150, power=3)], [],
                              x0=1e80, l=3.0, p0=24.0)
        cfg = SchemeConfig(delta=0.5, t_end=5e-324, l0=4.0)
        with pytest.raises(EstimationError, match="3 of 3 paths exploded"):
            estimate_moment(hot, cfg, 2.0, 3, 0)

    def test_overflowing_power_counts_as_failure(self):
        # a finite terminal state whose p-th power leaves the float range
        # is a failed path, not an OverflowError that ends the estimate
        huge = make_term_model("huge", [], [], x0=1e200)
        cfg = SchemeConfig(delta=0.5, t_end=5e-324)
        with pytest.raises(EstimationError, match="3 of 3 paths exploded"):
            estimate_moment(huge, cfg, 2.0, 3, 0)

    def test_worker_pool_matches_serial(self, two_cpus):
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        serial = estimate_moment(M1, cfg, 2.0, 40, 17, n_jobs=1)
        pooled = estimate_moment(M1, cfg, 2.0, 40, 17, n_jobs=2)
        assert serial == pooled


class TestStepCounts:
    def test_flat_model_exact_count(self):
        cfg = SchemeConfig(delta=0.25, t_end=1.0)
        flat0 = make_term_model("flat0", [], [], x0=0.0)
        assert mean_step_count(flat0, cfg, 10, 0) == 4.0

    def test_tm_step_count(self):
        assert tm_step_count(5.0, 0.0625) == 80.0
        assert tm_step_count(1.0, 0.5) == 2.0

    def test_tm_step_count_validation(self):
        with pytest.raises(InputError):
            tm_step_count(0.0, 0.5)
        with pytest.raises(InputError):
            tm_step_count(1.0, 1.5)
        with pytest.raises(InputError, match="t_end must be finite"):
            tm_step_count(math.inf, 0.5)

    def test_adaptive_count_grows_as_delta_shrinks(self):
        cfg_c = SchemeConfig(delta=0.25, t_end=1.0)
        cfg_f = SchemeConfig(delta=0.125, t_end=1.0)
        n_c = mean_step_count(M1, cfg_c, 50, 3)
        n_f = mean_step_count(M1, cfg_f, 50, 3)
        assert 1.8 <= n_f / n_c <= 2.2
