"""The compiled kernel: parity with the Python loops, dispatch, cache.

driver._merge is the reference for pairs: for every built-in model and
both schemes the kernel must give the same CoupledSample, bit for bit,
and raise the same PathExplosion.  scheme._path_loop is the reference for
single paths, which a kept path (simulate_path) runs itself.  A block of
seeds (kernel.run_block), of any size, must give each seed the outcome
its own pair or path gives there, its PathExplosion included.  numpy's
Philox(SeedSequence(seed)) and Generator.standard_normal are the
reference for the kernel's own seeding and draws.  These tests skip only
when no C compiler is on PATH; with one, a kernel that fails to build or
load fails them.
"""

import concurrent.futures
import contextlib
import ctypes
import functools
import itertools
import json
import math
import multiprocessing
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tamsde
from tamsde import (InputError, NoiseSource, PathExplosion, get_model, kernel,
                    load_model_file, simulate_coupled_pair,
                    simulate_coupled_tm_pair, simulate_path)
from tamsde.analysis import cell_seed
from tamsde.driver import _merge, _sample
from tamsde.scheme import SchemeConfig, _due, _path_loop, _tam_leg, _tm_leg

MODELS = ("model1", "model2", "gbm")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(tamsde.__file__)))


@pytest.fixture
def lib():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    loaded = kernel.library()
    assert loaded is not None, "a C compiler is on PATH but the kernel did not load"
    return loaded


@pytest.fixture
def merges(monkeypatch):
    """The calls that reach the Python loop, as a list."""
    seen = []

    def recorded(fine, coarse, x0, t_end, noise, max_steps):
        seen.append((x0, t_end))
        return _merge(fine, coarse, x0, t_end, noise, max_steps)

    monkeypatch.setattr(tamsde.driver, "_merge", recorded)
    return seen


@pytest.fixture
def numpy_made(monkeypatch):
    """The numpy SeedSequence, Philox and Generator objects made, by class
    name, as a list."""
    seen = []
    for name in ("SeedSequence", "Philox", "Generator"):
        def recorded(*args, _made=getattr(np.random, name), **kwargs):
            seen.append(_made.__name__)
            return _made(*args, **kwargs)

        monkeypatch.setattr(np.random, name, recorded)
    return seen


def reference(model, clock, k, t_end, seed, max_steps=10 ** 8, noise=None):
    """The pair as the Python loop runs it, on noise or NoiseSource(seed)."""
    if clock is None:
        legs = (_tm_leg(model, 2.0 ** -(k + 1)), _tm_leg(model, 2.0 ** -k))
    else:
        legs = (_tam_leg(model, 2.0 ** -(k + 1), *clock),
                _tam_leg(model, 2.0 ** -k, *clock))
    return _sample(*_merge(*legs, model.x0, t_end,
                           noise or NoiseSource(seed), max_steps))


class CountingNoise(NoiseSource):
    """A NoiseSource that counts its draws."""

    draws = 0

    def gaussian_increment(self, duration):
        self.draws += 1
        return super().gaussian_increment(duration)


def pair(model, clock, k, t_end, seed, max_steps=10 ** 8):
    """The pair through the public entry points."""
    if clock is None:
        return simulate_coupled_tm_pair(model, k, t_end, seed, max_steps)
    return simulate_coupled_pair(model, *clock, k, t_end, seed, max_steps)


def explosion(exc):
    """A PathExplosion's attributes and message."""
    return exc.leg, repr(exc.time), repr(exc.state), exc.steps, str(exc)


def outcome(run, *args):
    """repr of the sample, or the explosion's attributes and message."""
    try:
        return repr(run(*args))
    except PathExplosion as exc:
        return explosion(exc)


CLOCKS = [(1.0, 2.0), (1.0, 3.0), None]


class TestParity:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("clock", CLOCKS, ids=["l0=2", "l0=3", "fixed"])
    @pytest.mark.parametrize("name", MODELS)
    def test_samples_identical(self, lib, merges, name, clock, k):
        model = get_model(name)
        for seed in range(100):
            assert (outcome(pair, model, clock, k, 1.0, seed)
                    == outcome(reference, model, clock, k, 1.0, seed))
        assert merges == []

    @pytest.mark.parametrize("clock", CLOCKS, ids=["l0=2", "l0=3", "fixed"])
    def test_no_numpy_generator_made(self, lib, merges, numpy_made, clock):
        for seed in (0, 2 ** 50 + 3):
            pair(get_model("model1"), clock, 2, 1.0, seed)
        assert merges == [] and numpy_made == []

    @pytest.mark.parametrize("name, clock, x0, t_end, max_steps", [
        ("model1", (1.0, 2.0), None, 5.0, 3),
        ("model2", (1.0, 3.0), None, 5.0, 40),
        ("gbm", None, None, 5.0, 4),
        ("model1", (1.0, 2.0), 1e200, 5.0, 10 ** 8),
        ("model1", None, 1e200, 5.0, 10 ** 8),
        ("model1", None, 1e200, 1e-300, 10 ** 8),
    ], ids=["budget-adaptive", "budget-l0=3", "budget-fixed",
            "non-finite-adaptive", "non-finite-fixed",
            "non-finite-at-horizon"])
    def test_explosions_identical(self, lib, merges, name, clock, x0, t_end,
                                  max_steps):
        model = get_model(name)
        if x0 is not None:
            model = model.replace(x0=x0)
        for seed in range(5):
            got = outcome(pair, model, clock, 2, t_end, seed, max_steps)
            assert isinstance(got, tuple)
            assert got == outcome(reference, model, clock, 2, t_end, seed,
                                  max_steps)
        assert merges == []

    @pytest.mark.parametrize("max_steps", [10 ** 8, 50],
                             ids=["done", "stopped"])
    @pytest.mark.parametrize("clock, k", [((1.0, 2.0), 4), (None, 5)],
                             ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("name", MODELS)
    def test_long_pairs_identical(self, lib, merges, name, clock, k,
                                  max_steps):
        # at T=20 every finished pair here draws more than one 1024 block
        # of _merge's source
        model = get_model(name)
        for seed in (0, 2):
            assert (outcome(pair, model, clock, k, 20.0, seed, max_steps)
                    == outcome(reference, model, clock, k, 20.0, seed,
                               max_steps))
        assert merges == []


@pytest.fixture
def engines(monkeypatch):
    """A "python" for each path the Python loop runs through its module,
    as a list."""
    seen = []

    def recorded(model, config, noise, **keep):
        seen.append("python")
        return _path_loop(model, config, noise, **keep)

    monkeypatch.setattr(tamsde.scheme, "_path_loop", recorded)
    return seen


def path_result(run, model, config, noise):
    """The path's arrays (bytes, dtype, shape, writable) and step count, or
    its explosion."""
    try:
        traj = run(model, config, noise)
    except PathExplosion as exc:
        return explosion(exc)
    return tuple((a.tobytes(), a.dtype, a.shape, a.flags.writeable)
                 for a in (traj.times, traj.values, traj.increments)) + (
        type(traj.step_count), traj.step_count)


def source_state(noise):
    """The source's clock and its next draw."""
    return repr(noise.current_time), noise.gaussian_increment(0.5)


def path_outcome(run, model, config, noise):
    return path_result(run, model, config, noise), source_state(noise)


def path_config(k, t_end, l0=2.0, max_steps=10 ** 8):
    return SchemeConfig(2.0 ** -k, t_end, l0=l0, max_steps=max_steps)


class TestPathParity:
    @pytest.mark.parametrize("k, t_end", [(1, 1.0), (3, 5.0), (5, 2.0)])
    @pytest.mark.parametrize("l0", [2.0, 3.0])
    @pytest.mark.parametrize("name", MODELS)
    def test_paths_identical(self, name, l0, k, t_end):
        model = get_model(name)
        config = path_config(k, t_end, l0)
        for seed in range(20):
            assert (path_outcome(simulate_path, model, config,
                                 NoiseSource(seed))
                    == path_outcome(_path_loop, model, config,
                                    NoiseSource(seed)))

    @pytest.mark.parametrize("name, x0, k, t_end, max_steps", [
        ("model1", None, 3, 5.0, 3),
        ("model2", None, 1, 5.0, 8),
        ("gbm", None, 5, 1.0, 7),
        ("model1", 1e200, 2, 5.0, 10 ** 8),
        # the first step, DBL_MIN long, ends before the horizon
        ("model1", 1e200, 2, 1e-300, 10 ** 8),
        # a horizon below DBL_MIN clamps the first step to it, so the path
        # ends non-finite at t_end
        ("model1", 1e200, 1, 1e-310, 10 ** 8),
    ], ids=["budget-model1", "budget-model2", "budget-gbm", "non-finite",
            "non-finite-at-first-step", "non-finite-at-horizon"])
    def test_explosions_identical(self, name, x0, k, t_end, max_steps):
        model = get_model(name)
        if x0 is not None:
            model = model.replace(x0=x0)
        config = path_config(k, t_end, max_steps=max_steps)
        for seed in range(5):
            got = path_outcome(simulate_path, model, config,
                               NoiseSource(seed))
            assert got[0][0] is None  # the PathExplosion's leg
            assert got == path_outcome(_path_loop, model, config,
                                       NoiseSource(seed))

    def test_one_source_for_two_paths(self):
        # the second path draws on where the first left the source
        model, config = get_model("model2"), path_config(4, 20.0)
        ran, oracle = NoiseSource(3), NoiseSource(3)
        for _ in range(2):
            assert (path_result(simulate_path, model, config, ran)
                    == path_result(_path_loop, model, config, oracle))
        assert source_state(ran) == source_state(oracle)

    @pytest.mark.parametrize("draws", [3, 1024],
                             ids=["part-read-block", "fully-read-block"])
    def test_source_with_drawn_normals(self, draws):
        model, config = get_model("model1"), path_config(3, 5.0)
        sources = NoiseSource(8), NoiseSource(8)
        for source in sources:
            for _ in range(draws):
                source.gaussian_increment(0.25)
        assert (path_outcome(simulate_path, model, config, sources[0])
                == path_outcome(_path_loop, model, config, sources[1]))

    def test_other_sources_and_models_take_the_python_loop(self, tmp_path,
                                                           engines):
        config = path_config(3, 5.0)
        cases = [(get_model("gbm"), CountingNoise), (model1_as_json(tmp_path),
                                                     NoiseSource)]
        for model, source in cases:
            assert (path_outcome(simulate_path, model, config, source(4))
                    == path_outcome(_path_loop, model, config, source(4)))
        assert engines == ["python", "python"]

    def test_python_loops_draw_on_numpys_philox(self, lib, numpy_made):
        # with the kernel loaded, the references the kernel is tested
        # against draw on numpy's own generator, not on the kernel's port
        model = get_model("model1")
        reference(model, (1.0, 2.0), 2, 1.0, 4)
        _path_loop(model, path_config(2, 1.0), NoiseSource(4))
        assert numpy_made == ["Philox", "Generator"] * 2


def model1_as_json(tmp_path):
    path = tmp_path / "model1.json"
    path.write_text(json.dumps({
        "name": "model1-terms", "x0": 0.1,
        "drift": [{"coeff": 0.1, "power": 1}, {"coeff": -0.1, "power": 3}],
        "diffusion": [{"coeff": 0.1, "power": 1}],
        "regularity": {"alpha": 1.0, "l": 1.0, "gamma": 0.65, "eta": 0.0,
                       "lambda_os": 0.105, "p0": 12.0}}))
    return load_model_file(path)


class TestDispatch:
    def test_json_and_lambda_models_take_the_python_loop(self, tmp_path,
                                                        merges):
        lam = get_model("model1").replace(
            drift=lambda x: 0.1 * (x - x * x * x))
        for model in (model1_as_json(tmp_path), lam):
            for clock in ((1.0, 2.0), None):
                assert (outcome(pair, model, clock, 2, 1.0, 3)
                        == outcome(reference, model, clock, 2, 1.0, 3))
        assert len(merges) == 4

    @pytest.mark.parametrize("change", [
        dict(max_steps=2 ** 63), dict(max_steps=1e8), dict(h0=1),
        dict(t_end=1), dict(x0=np.float64(0.1))],
        ids=["max_steps-2**63", "float-max_steps", "int-h0", "int-t_end",
             "numpy-x0"])
    def test_arguments_of_other_real_types_take_the_kernel(self, lib, merges,
                                                           change):
        # the pair is chosen by the model alone: SchemeConfig and SdeModel
        # turn every real argument into the float or int the kernel takes
        args = dict(h0=1.0, t_end=1.0, max_steps=10 ** 8)
        args.update(change)
        model = get_model("model2").replace(x0=args.pop("x0", 0.1))
        clock = (args.pop("h0"), 2.0)
        got = outcome(pair, model, clock, 2, args["t_end"], 7,
                      args["max_steps"])
        assert merges == []
        assert got == outcome(reference, model, clock, 2, args["t_end"], 7,
                              args["max_steps"])

    def test_largest_int64_budget_takes_the_kernel(self, lib, merges):
        model = get_model("model2")
        got = outcome(pair, model, (1.0, 2.0), 2, 1.0, 7, 2 ** 63 - 1)
        assert got == outcome(reference, model, (1.0, 2.0), 2, 1.0, 7)
        assert merges == []


# --- blocks of seeds ---------------------------------------------------------

def hexed(block):
    """A Block's columns with each state as its .hex() and each step count
    with its type, so that equal means bit for bit, and its failures with
    each PathExplosion as explosion()."""
    states, steps, failures = block
    return ([[v.hex() for v in column] for column in states],
            [[(type(v), v) for v in column] for column in steps],
            [(i, explosion(exc)) for i, exc in failures])


def as_block(outcomes, legs):
    """Each seed's outcome, its record (each leg's state, then each leg's
    step count) or its PathExplosion, as a block of those seeds gives it:
    columns, with nan states and 0 steps for a failure, and failures."""
    rows = [(math.nan,) * legs + (0,) * legs
            if isinstance(o, PathExplosion) else o for o in outcomes]
    columns = [list(column) for column in zip(*rows)] or [[]] * (2 * legs)
    return kernel.Block(tuple(columns[:legs]), tuple(columns[legs:]),
                        [(i, o) for i, o in enumerate(outcomes)
                         if isinstance(o, PathExplosion)])


def part(block, start, stop):
    """The Block of the seeds of indices start..stop-1 of block."""
    return kernel.Block(tuple(c[start:stop] for c in block.states),
                        tuple(c[start:stop] for c in block.steps),
                        [(i - start, exc) for i, exc in block.failures
                         if start <= i < stop])


@contextlib.contextmanager
def in_c():
    """Fail a call of either Python loop, driver._merge or
    scheme._path_loop, made inside: what runs there runs in C."""
    def declined(*args, **kwargs):
        raise AssertionError("the kernel declined the block")

    loops = tamsde.driver._merge, tamsde.scheme._path_loop
    tamsde.driver._merge = tamsde.scheme._path_loop = declined
    try:
        yield
    finally:
        tamsde.driver._merge, tamsde.scheme._path_loop = loops


def block(model, clock, k, t_end, seeds, max_steps=10 ** 8):
    """A block of pairs as kernel.run_block runs it, in C."""
    config = SchemeConfig(2.0 ** -(k + 1), t_end, *(clock or ()),
                          max_steps=max_steps)
    with in_c():
        return kernel.run_block(model, config, seeds,
                                (clock is not None, 2.0 ** -k))


def seeded(run, model, clock, k, t_end, seeds, max_steps=10 ** 8):
    """Each seed's pair, run one by one by run (pair or reference), as a
    block gives it (as_block): the terminal states and step counts, or the
    PathExplosion."""
    out = []
    for seed in seeds:
        try:
            sample = run(model, clock, k, t_end, seed, max_steps)
        except PathExplosion as exc:
            out.append(exc)
        else:
            out.append((sample.fine_terminal, sample.coarse_terminal,
                        sample.fine_steps, sample.coarse_steps))
    return as_block(out, 2)


def path_block(model, config, seeds):
    """A block of paths as kernel.run_block runs it, in C."""
    with in_c():
        return kernel.run_block(model, config, seeds)


def path_seeded(run, model, config, seeds):
    """Each seed's path, run one by one by run (_path_loop or
    simulate_path) on NoiseSource(seed), as a block gives it (as_block):
    the terminal state and step count, or the PathExplosion."""
    out = []
    for seed in seeds:
        try:
            traj = run(model, config, NoiseSource(seed))
        except PathExplosion as exc:
            out.append(exc)
        else:
            out.append((float(traj.values[-1]), traj.step_count))
    return as_block(out, 1)


def failed(block):
    return bool(block.failures)


# seed ranges of one to four 32-bit words: across 2**32, up to 2**64,
# across 2**64 and across 2**96
WORD_RANGES = [range(2 ** 32 - 20, 2 ** 32 + 20), range(2 ** 64 - 20, 2 ** 64),
               range(2 ** 64 - 20, 2 ** 64 + 20),
               range(2 ** 96 - 20, 2 ** 96 + 20)]
WORD_IDS = ["across-2**32", "up-to-2**64", "across-2**64", "across-2**96"]


# the seeds a block keeps in flight, in _pair.c: LANES adaptive pairs
# (MODEL2_LANES of model2), or VECTORS vectors of paths or fixed-step
# pairs, of as many elements as ELEMENTS gives for the build of the vector
# layer a kernel runs, by the name kernel.lanes reports: "baseline" and
# "avx2".  On "avx2" a block of adaptive pairs of a model runs on VECTORS
# four-wide vectors too once it has VECTOR_PAIRS[name] seeds (None: never).
with open(kernel._SOURCE) as _source:
    _text = _source.read()
LANES = int(re.search(r"#define LANES (\d+)", _text).group(1))
MODEL2_LANES = int(re.search(r"#define MODEL2_LANES (\d+)", _text).group(1))
VECTORS = int(re.search(r"#define VECTORS (\d+)", _text).group(1))
ELEMENTS = {name.lower(): int(n) for name, n in
            re.findall(r"#define (\w+)_ELEMENTS (\d+)", _text)}
VECTOR_PAIRS = {name.lower(): None if n == "LLONG_MAX" else int(n)
                for name, n in re.findall(
                    r"\[(MODEL1|MODEL2|GBM)\] = (\w+)",
                    re.search(r"vector_pairs\[\] = \{([^}]*)\}",
                              _text).group(1))}
# the block sizes one seed short of a generation of fixed-step pairs, or
# of a block's first fill of paths, and one seed past it, at each width
GENERATION_EDGES = sorted({width * VECTORS + d for width in ELEMENTS.values()
                           for d in (-1, 1)})
# the block sizes one seed short of the vectors' adaptive pairs of a model
# and the least they take
PAIR_EDGES = sorted({n + d for n in VECTOR_PAIRS.values() if n
                     for d in (-1, 0)})


def elements(lib):
    """The elements per vector of the vector layer lib runs on this host."""
    return ELEMENTS[kernel.lanes(lib)]


def pair_width(lib, name, size):
    """The adaptive pairs of the model name that a block of size seeds
    keeps in flight on this host: VECTORS four-wide vectors' seeds, or
    its scalar lanes."""
    least = VECTOR_PAIRS[name]
    if kernel.lanes(lib) == "avx2" and least is not None and size >= least:
        return elements(lib) * VECTORS
    return MODEL2_LANES if name == "model2" else LANES


class TestBlockParity:
    # a block runs each seed as a fresh NoiseSource(seed) would, so its
    # outcomes are the Python loops'
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("clock", CLOCKS, ids=["l0=2", "l0=3", "fixed"])
    @pytest.mark.parametrize("name", MODELS)
    def test_pairs_identical(self, lib, merges, name, clock, k):
        model, seeds = get_model(name), range(100)
        got = hexed(block(model, clock, k, 1.0, seeds))
        assert got == hexed(seeded(pair, model, clock, k, 1.0, seeds))
        assert merges == []
        assert got == hexed(seeded(reference, model, clock, k, 1.0, seeds))

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("l0", [2.0, 3.0])
    @pytest.mark.parametrize("name", MODELS)
    def test_paths_identical(self, lib, name, l0, k):
        model, config = get_model(name), path_config(k, 1.0, l0)
        seeds = range(100)
        got = hexed(path_block(model, config, seeds))
        assert got == hexed(path_seeded(_path_loop, model, config, seeds))

    @pytest.mark.parametrize("name, clock, x0, t_end, max_steps", [
        ("model2", (1.0, 2.0), None, 5.0, 110),
        ("gbm", (1.0, 3.0), None, 5.0, 216),
        ("gbm", None, None, 5.0, 4),
        ("model1", (1.0, 2.0), 1e200, 5.0, 10 ** 8),
        ("model1", None, 1e200, 5.0, 10 ** 8),
        ("model1", None, 1e200, 1e-300, 10 ** 8),
        # h0=150 lets the fine leg of some seeds reach t_end in fewer steps
        # than the coarse leg, whose budget then stops it (COARSE_STOP)
        ("model2", (150.0, 2.0), 2.0, 5.0, 4),
    ], ids=["some-spend-the-budget", "some-spend-the-budget-l0=3",
            "budget-fixed", "non-finite-adaptive", "non-finite-fixed",
            "non-finite-at-horizon", "coarse-budget"])
    def test_pair_explosions_identical(self, lib, name, clock, x0, t_end,
                                       max_steps):
        model = get_model(name)
        if x0 is not None:
            model = model.replace(x0=x0)
        seeds = range(40)
        got = block(model, clock, 2, t_end, seeds, max_steps)
        assert failed(got)
        assert hexed(got) == hexed(seeded(pair, model, clock, 2, t_end,
                                          seeds, max_steps))
        assert hexed(got) == hexed(seeded(reference, model, clock, 2, t_end,
                                          seeds, max_steps))

    @pytest.mark.parametrize("name, x0, k, t_end, max_steps", [
        ("model2", None, 1, 5.0, 25),
        ("gbm", None, 2, 5.0, 108),
        ("model1", None, 3, 5.0, 50),
        ("model1", 1e200, 2, 5.0, 10 ** 8),
        ("model1", 1e200, 2, 1e-300, 10 ** 8),
        ("model1", 1e200, 1, 1e-310, 10 ** 8),
    ], ids=["some-spend-the-budget-model2", "some-spend-the-budget-gbm",
            "some-spend-the-budget-model1", "non-finite",
            "non-finite-at-first-step", "non-finite-at-horizon"])
    def test_path_explosions_identical(self, lib, name, x0, k, t_end,
                                       max_steps):
        model = get_model(name)
        if x0 is not None:
            model = model.replace(x0=x0)
        config, seeds = path_config(k, t_end, max_steps=max_steps), range(40)
        got = path_block(model, config, seeds)
        assert failed(got)
        assert hexed(got) == hexed(path_seeded(_path_loop, model, config,
                                               seeds))

    @pytest.mark.parametrize("seeds", WORD_RANGES, ids=WORD_IDS)
    def test_seeds_of_one_and_two_words(self, lib, seeds):
        # a seed's entropy is its 32-bit words, one below 2**32, two from
        # there to 2**64, and so on; a block steps its first seed's words,
        # carrying into a new word where a seed needs one more
        for name in MODELS:
            model = get_model(name)
            for clock in CLOCKS:
                got = hexed(block(model, clock, 2, 1.0, seeds))
                assert got == hexed(seeded(pair, model, clock, 2, 1.0, seeds))
                assert got == hexed(seeded(reference, model, clock, 2, 1.0,
                                           seeds))
            config = path_config(2, 1.0)
            assert hexed(path_block(model, config, seeds)) == hexed(
                path_seeded(_path_loop, model, config, seeds))

    def test_declined_blocks(self, tmp_path, monkeypatch, merges, engines):
        # a model the kernel does not know, or no kernel at all: the block
        # runs on the Python loops, each seed on NoiseSource(seed), and
        # gives the records those loops give seed by seed.  gbm at k=2, T=5
        # spends these budgets on some seeds, so stops are covered too.
        lam = get_model("gbm").replace(drift=lambda x: 0.05 * x)
        cases = [(model1_as_json(tmp_path), False), (lam, False),
                 (get_model("gbm"), True)]
        all_seeds = range(12), range(2 ** 64 - 6, 2 ** 64 + 6)
        for (model, no_kernel), seeds in itertools.product(cases, all_seeds):
            del merges[:], engines[:]
            with monkeypatch.context() as patch:
                if no_kernel:
                    patch.setattr(kernel, "library", lambda: None)
                for clock, max_steps in (((1.0, 2.0), 300), (None, 10 ** 8),
                                         (None, 39)):
                    config = SchemeConfig(0.125, 5.0, *(clock or ()),
                                          max_steps=max_steps)
                    got = kernel.run_block(model, config, seeds,
                                           (clock is not None, 0.25))
                    assert hexed(got) == hexed(seeded(
                        reference, model, clock, 2, 5.0, seeds, max_steps))
                config = path_config(2, 5.0, max_steps=150)
                got = kernel.run_block(model, config, seeds)
                assert hexed(got) == hexed(path_seeded(_path_loop, model,
                                                       config, seeds))
            assert len(merges) == 3 * len(seeds)
            assert engines == ["python"] * len(seeds)

    @pytest.mark.parametrize("seeds", [range(0, 6, 2), [3, 4], range(-2, 1),
                                       range(-2, -2), (0, 1)],
                             ids=["step-2", "list", "negative", "negative-empty",
                                  "tuple"])
    def test_seeds_must_be_a_range_of_step_one(self, seeds):
        # the kernel steps the first seed by one, so it takes nothing else
        config = SchemeConfig(0.25, 1.0)
        for pair in ((True, 0.5), (False, 0.5), None):
            with pytest.raises(InputError, match="range of step 1"):
                kernel.run_block(get_model("model1"), config, seeds, pair)

    def test_runaway_is_a_kernel_bug(self, monkeypatch):
        # tamsde_block returns -1 when an element of the adaptive vector
        # runner ran past its step budget, which no seed's run does, or
        # lost its stop at t_end: run_block raises either as a fault of the
        # kernel, not as a seed's PathExplosion
        class Runaway:
            def tamsde_block(self, *args):
                return -1

        monkeypatch.setattr(kernel, "library", Runaway)
        with pytest.raises(RuntimeError, match="kernel bug"):
            kernel.run_block(get_model("model1"), SchemeConfig(0.25, 1.0),
                             range(3), (True, 0.5))

    # a block keeps LANES adaptive pairs in flight (MODEL2_LANES of
    # model2) and refills a lane as its seed ends, and VECTORS vectors of
    # paths, refilled alike, or fixed-step pairs, run in generations of
    # that many; so these sizes run no lane (an empty block is []), leave
    # lanes or elements empty, fill them once, refill one, start a second
    # generation, and refill or start many times over, for each count and
    # each width of vector.  On a host with AVX2 a block of model1 or gbm
    # pairs of VECTOR_PAIRS[name] seeds or more runs on VECTORS four-wide
    # vectors, refilled as paths are, and a block of one on a scalar lane,
    # so there this compares the vector runner with the scalar lanes seed
    # by seed; PAIR_EDGES are the sizes on either side of that switch.
    @pytest.mark.parametrize("size", sorted({0, 1, 2, 3, 4, 5, 6, 7, 9, 100,
                                             *GENERATION_EDGES,
                                             *PAIR_EDGES}))
    @pytest.mark.parametrize("clock", [(1.0, 2.0), None, "path"],
                             ids=["adaptive", "fixed", "path"])
    def test_block_is_its_blocks_of_one(self, lib, clock, size):
        for name in MODELS:
            seeds = range(7, 7 + size)
            run = lanes_run(get_model(name), clock, 5.0, 10 ** 8)
            assert hexed(run(seeds)) == hexed(one_by_one(run, seeds))

    @pytest.mark.parametrize("name, clock, first, max_steps, stops", [
        ("gbm", (1.0, 2.0), 0, 300, [1, 9]),
        ("model2", (1.0, 2.0), 19, 250, [1, 9]),
        ("gbm", "path", 0, 150, [1, 9])],
        ids=["pairs", "model2-pairs", "paths"])
    def test_stops_in_inner_lanes(self, lib, name, clock, first, max_steps,
                                  stops):
        # k=2, T=5: the budget stops the block's seeds 1 and 9, so seed
        # 1's lane or element refills while those beside it run on: lane
        # or element 0 and, with more than two, 2; the width is the seeds
        # in flight of the runner that this block takes on this host
        model, seeds = get_model(name), range(first, first + 12)
        run = lanes_run(model, clock, 5.0, max_steps)
        got = run(seeds)
        assert [i for i, _ in got.failures] == stops
        width = (elements(lib) * VECTORS if clock == "path"
                 else pair_width(lib, name, len(seeds)))
        assert 0 < stops[0] < width
        assert hexed(got) == hexed(one_by_one(run, seeds))
        if clock == "path":
            want = path_seeded(_path_loop, model,
                               path_config(2, 5.0, max_steps=max_steps), seeds)
        else:
            want = seeded(reference, model, clock, 2, 5.0, seeds, max_steps)
        assert hexed(got) == hexed(want)

    @pytest.mark.parametrize("seeds", [range(2 ** 32 - 4, 2 ** 32 + 5),
                                       range(2 ** 64 - 4, 2 ** 64 + 5)],
                             ids=["across-2**32", "across-2**64"])
    def test_seed_words_carry_with_lanes_in_flight(self, lib, seeds):
        for name in MODELS:
            for clock in (*CLOCKS, "path"):
                run = lanes_run(get_model(name), clock, 1.0, 10 ** 8)
                assert hexed(run(seeds)) == hexed(one_by_one(run, seeds))

    # a block's paths run W to a vector, W the elements per vector of the
    # vector layer the host runs: element e of the block's vector v holds
    # seed index W v + e until the first refill.  Blocks of one seed and
    # of one short of the first fill leave elements empty, one past it
    # refills one; a stop at index j of the first fill lands on element
    # j % W, with the other elements' paths running on, or stopping too
    @pytest.mark.parametrize("name, x0, k, t_end, max_steps", [
        ("gbm", None, 2, 5.0, 150),
        ("model2", None, 1, 5.0, 25),
        ("model1", 1e200, 2, 5.0, 10 ** 8),
        ("model1", 1e200, 1, 1e-310, 10 ** 8),
    ], ids=["budget-gbm", "budget-model2", "non-finite",
            "non-finite-at-horizon"])
    def test_path_vectors(self, lib, name, x0, k, t_end, max_steps):
        width = elements(lib)
        fill = width * VECTORS
        model = get_model(name)
        if x0 is not None:
            model = model.replace(x0=x0)
        config = path_config(k, t_end, max_steps=max_steps)
        want = path_seeded(_path_loop, model, config, range(100))
        stop = next(i for i, _ in want.failures if i >= 2 * width - 1)
        assert stop + fill + 1 <= 100
        elements_hit = set()
        for size in (1, fill - 1, fill + 1):
            for j in range(min(size, 2 * width)):
                seeds = range(stop - j, stop - j + size)
                got = path_block(model, config, seeds)
                assert j in [i for i, _ in got.failures]
                assert hexed(got) == hexed(part(want, seeds.start,
                                                seeds.stop))
                elements_hit.add(j % width)
        assert elements_hit == set(range(width))

    # on a host with AVX2 a block of VECTOR_PAIRS[name] or more adaptive
    # pairs of model1 or gbm runs W to a vector, W = 4, as paths do:
    # element e of vector v holds seed index W v + e until the first
    # refill.  A stop at index j of the first fill lands on element j % W.
    # A fine leg spends its budget (model1 at k=1, whose fine leg takes 25
    # or 26 steps; gbm), or both legs turn non-finite at the first event,
    # before t_end or at it, where both legs fire and pair_end reports the
    # fine leg.  A coarse leg stops none of these models' pairs in C: it
    # takes fewer steps than the fine leg, and from the same state.  Blocks
    # of 1 take a scalar lane; elsewhere, and on the two-wide build, these
    # blocks check the lanes.
    @pytest.mark.parametrize("name, x0, k, t_end, max_steps", [
        ("model1", None, 1, 5.0, 25),
        ("gbm", None, 2, 5.0, 300),
        ("model1", 1e200, 2, 5.0, 10 ** 8),
        ("model1", 1e200, 2, 1e-310, 10 ** 8),
    ], ids=["budget-model1", "budget-gbm", "non-finite",
            "non-finite-at-horizon"])
    def test_pair_vectors(self, lib, name, x0, k, t_end, max_steps):
        width = elements(lib)
        fill = width * VECTORS
        model = get_model(name)
        if x0 is not None:
            model = model.replace(x0=x0)
        want = seeded(reference, model, (1.0, 2.0), k, t_end, range(100),
                      max_steps)
        assert {o.leg for _, o in want.failures} == {"fine"}
        assert ({o.time == t_end for _, o in want.failures}
                == {x0 is not None and t_end < 1.0})
        stop = next(i for i, _ in want.failures if i >= 2 * width - 1)
        assert stop + 2 * fill + 1 <= 100
        elements_hit = set()
        for size in (1, fill - 1, fill + 1, 2 * fill + 1):
            for j in range(min(size, 2 * width)):
                seeds = range(stop - j, stop - j + size)
                got = block(model, (1.0, 2.0), k, t_end, seeds, max_steps)
                assert j in [i for i, _ in got.failures]
                assert hexed(got) == hexed(part(want, seeds.start,
                                                seeds.stop))
                if pair_width(lib, name, size) == fill:
                    elements_hit.add(j % width)
        assert elements_hit == (set(range(width)) if width == 4 else set())

    # gbm from x0 = 0 stays at 0, so each leg's adaptive step is constant,
    # the coarse one twice the fine one, and some coarse due times fall on
    # fine ones before t_end: at such an event the fine leg fires first,
    # then the coarse leg.  A budget that the fine leg spends there stops
    # the pair before its coarse leg fires; every seed runs alike
    def test_coincident_events(self, lib):
        model = get_model("gbm").replace(x0=0.0)
        k, t_end, size = 2, 5.0, 2 * elements(lib) * VECTORS + 1
        times = []
        for delta in (2.0 ** -(k + 1), 2.0 ** -k):
            propose, _ = _tam_leg(model, delta, 1.0, 2.0)
            step, due = propose(0.0), [0.0]
            while due[-1] < t_end:
                due.append(_due(due[-1], step, t_end))
            times.append(due[1:])
        fine, coarse = times
        shared = [t for t in coarse[:-1] if t in fine]
        assert len(shared) >= 5
        budgets = range(1, len(fine))
        stopped_there = 0
        for max_steps in budgets:
            want = seeded(reference, model, (1.0, 2.0), k, t_end,
                          range(size), max_steps)
            assert hexed(block(model, (1.0, 2.0), k, t_end, range(size),
                               max_steps)) == hexed(want)
            assert [o.leg for _, o in want.failures] == ["fine"] * size
            stopped_there += want.failures[0][1].time in shared
        assert stopped_there == len(shared)

    # a block's fixed-step pairs run in generations of W VECTORS seeds, W
    # to a vector, W the elements per vector of the vector layer the host
    # runs, on one timeline: seed index j of a generation is element j % W
    # of vector j // W.  Blocks of one seed and of one short of a
    # generation leave elements empty, one past it starts a second
    # generation.  No built-in model's fixed-step pairs stop on some seeds
    # and not on others: a state turns non-finite only at the first event,
    # where the drift at x0 overflows, and the budget is the timeline's, so
    # each case stops every seed of a generation, on every element of each
    # vector, at one event, with the same record as the Python loop's.
    # From 1e180, where 1 + delta x**2 is inf, gbm's and model2's exact
    # moves are below 1e-250 ulp of x, so every seed ends DONE with both
    # states x0.
    @pytest.mark.parametrize("name, x0, k, max_steps", [
        ("model1", 1e200, 2, 10 ** 8),
        ("model2", 1e206, 1, 10 ** 8),
        ("gbm", None, 2, 7),
        ("model2", None, 3, 30),
        ("gbm", 1e180, 2, 10 ** 8),
        ("model2", 1e180, 2, 10 ** 8),
    ], ids=["non-finite-model1", "non-finite-model2", "budget-gbm",
            "budget-model2", "frozen-gbm", "frozen-model2"])
    def test_fixed_vectors(self, lib, name, x0, k, max_steps):
        generation = elements(lib) * VECTORS
        n = 13 + generation + 1
        model = get_model(name)
        if x0 is not None:
            model = model.replace(x0=x0)
        want = seeded(reference, model, None, k, 5.0, range(n), max_steps)
        if x0 == 1e180:
            assert list(want.states) == [[x0] * n] * 2
        else:
            assert len(want.failures) == n
            assert len({(o.leg, o.time, o.steps)
                        for _, o in want.failures}) == 1
        for size in (1, generation - 1, generation + 1):
            for first in (0, 5, 13):
                seeds = range(first, first + size)
                got = block(model, None, k, 5.0, seeds, max_steps)
                assert hexed(got) == hexed(part(want, first, first + size))

    # horizons off the coarse grid: the coarse leg's last step is clamped
    # to t_end, and at T = 5.3 the fine leg's too.  A budget of the fine
    # leg's steps but one stops every seed at the event before t_end; the
    # full count is spent at t_end, where no budget is checked.
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("horizon", [lambda k: 5.3,
                                         lambda k: 3.0 * 2.0 ** -(k + 1)],
                             ids=["5.3", "3-fine-steps"])
    @pytest.mark.parametrize("name", MODELS)
    def test_fixed_clamped_horizons(self, lib, name, horizon, k):
        model, seeds, t_end = get_model(name), range(9), horizon(k)
        fine_steps = math.ceil(t_end / 2.0 ** -(k + 1))
        for max_steps in (10 ** 8, fine_steps, fine_steps - 1):
            want = seeded(reference, model, None, k, t_end, seeds, max_steps)
            assert failed(want) == (max_steps < fine_steps)
            # every seed stops alike, so all nine fail or none
            assert ([o.steps for _, o in want.failures]
                    or list(want.steps[0])) == [min(max_steps, fine_steps)] * 9
            assert hexed(block(model, None, k, t_end, seeds,
                               max_steps)) == hexed(want)


    # model2 seeds on which glibc's pow(|x|, 0.5), the vector runners' mu
    # and mu', and a square root of |x| differ in some state: paths at
    # k=3 and fixed-step pairs at k=2, T=5; each seed as a block of one
    @pytest.mark.parametrize("pair, seeds", [
        (None, [1299, 2725]), ((False, 0.25), [2231, 7118, 8388, 13445])],
        ids=["paths", "fixed"])
    def test_vectors_take_libms_pow(self, lib, pair, seeds):
        model, config = get_model("model2"), SchemeConfig(0.125, 5.0)
        for seed in seeds:
            with in_c():
                got = kernel.run_block(model, config, range(seed, seed + 1),
                                       pair)
            assert hexed(got) == hexed(kernel._reference_block(
                model, config, range(seed, seed + 1), pair)), seed


# start values from signed zeros and subnormals to near the float limit
START_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-310, -1e-310]),
    st.floats(-1e300, 1e300, allow_nan=False))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(MODELS), x0=START_VALUES,
       kind=st.sampled_from(["adaptive", "fixed", "path"]),
       h0=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       l0=st.floats(2.0, 4.0), k=st.integers(1, 4),
       t_end=st.sampled_from([0.3, 1.0, 1.3, 5.0]),
       max_steps=st.integers(5, 10 ** 4),
       first=st.sampled_from([0, 7, 2 ** 32 - 2, 2 ** 64 - 3]),
       size=st.integers(1, 6))
def test_blocks_equal_the_reference_loops(lib, name, x0, kind, h0, l0, k,
                                          t_end, max_steps, first, size):
    # drawn blocks of any built-in model from any start, on horizons on
    # and off the legs' grids: the columns C gives equal the Python loops',
    # floats bit for bit, and so do the failures, each seed's explosion by
    # leg, time, state, steps and message
    model = get_model(name).replace(x0=x0)
    config = SchemeConfig(2.0 ** -(k + 1), t_end, h0, l0, max_steps)
    pair = None if kind == "path" else (kind == "adaptive", 2.0 ** -k)
    seeds = range(first, first + size)
    with in_c():
        got = kernel.run_block(model, config, seeds, pair)
    assert hexed(got) == hexed(
        kernel._reference_block(model, config, seeds, pair))


def test_declined_block_paths_store_no_grid(tmp_path):
    # a JSON model's block runs each path on the Python loop, which keeps
    # only the state and the step count: a path of ~4*10**4 steps, whose
    # grid would take ~5 MB, peaks far below that
    model = model1_as_json(tmp_path)
    config = SchemeConfig(2.0 ** -4, 650.0)
    kernel.run_block(model, SchemeConfig(2.0 ** -4, 1.0), range(1))
    tracemalloc.start()
    try:
        _, ((steps,),), _ = kernel.run_block(model, config, range(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps > 4 * 10 ** 4
    assert peak < 2 ** 20


def lanes_run(model, clock, t_end, max_steps):
    """A runner of blocks at k=2: of pairs, with clock as block takes it,
    or of paths when clock is "path"."""
    if clock == "path":
        config = path_config(2, t_end, max_steps=max_steps)
        return lambda seeds: path_block(model, config, seeds)
    return lambda seeds: block(model, clock, 2, t_end, seeds, max_steps)


def one_by_one(run, seeds):
    """The blocks of one seed of seeds, joined into the Block of seeds."""
    blocks = [run(range(s, s + 1)) for s in seeds]
    legs = len(run(range(0)).states)
    return kernel.Block(
        tuple([b.states[j][0] for b in blocks] for j in range(legs)),
        tuple([b.steps[j][0] for b in blocks] for j in range(legs)),
        [(i, exc) for i, b in enumerate(blocks) for _, exc in b.failures])


# sentinel items on each side of an array tamsde_block writes, and the
# byte every one of their bytes holds
BORDER = 4
SENTINEL = 0xA5


def bordered(ctype, n):
    """n items of ctype between BORDER sentinel items on each side, every
    byte SENTINEL, and the address of the first of the n."""
    array = (ctype * (n + 2 * BORDER))()
    ctypes.memset(array, SENTINEL, ctypes.sizeof(array))
    return array, ctypes.addressof(array) + BORDER * ctypes.sizeof(ctype)


# each runner unbudgeted, and on the budgets at k=2, T=5 that stop some of
# seeds 1..7, so some seed of every block of 7 or more: gbm's first
# adaptive pair and path, model2's last adaptive pair and last two paths,
# and every fixed-step pair; of seeds 8..25 they stop some adaptive pairs
# and paths and let others end
RUNS = [
    ("model1", (1.0, 2.0), 10 ** 8), ("gbm", (1.0, 2.0), 300),
    ("model2", (1.0, 2.0), 110),
    ("model1", None, 10 ** 8), ("gbm", None, 7), ("model2", None, 30),
    ("model1", "path", 10 ** 8), ("gbm", "path", 150),
    ("model2", "path", 45),
]
RUN_IDS = ["adaptive", "adaptive-budget-gbm", "adaptive-budget-model2",
           "fixed", "fixed-budget-gbm", "fixed-budget-model2",
           "path", "path-budget-gbm", "path-budget-model2"]


# 13 and 25 pass one and two fills of three four-wide vectors, so records
# come from refilled path elements and later fixed-step generations
@pytest.mark.parametrize("size", [1, 3, 7, 13, 25])
@pytest.mark.parametrize("name, clock, max_steps", RUNS, ids=RUN_IDS)
def test_block_writes_only_its_records(lib, name, clock, max_steps, size):
    # tamsde_block writes each seed's record into the caller's columns x_f,
    # x_c, t, n_f, n_c and status and nothing beside them: the sentinels
    # around each column stay, every inner item, a sentinel before the
    # call, holds what kernel.run_block reads into its columns and
    # failures, and the return is the count of seeds that stopped.  A path
    # passes its x_f and n_f columns as x_c and n_c too.
    model, seeds = get_model(name), range(1, 1 + size)
    if clock == "path":
        config, pair, legs = path_config(2, 5.0, max_steps=max_steps), None, 1
        runner, delta_coarse = 0, 0.0  # PATHS
    else:
        config = SchemeConfig(0.125, 5.0, *(clock or ()), max_steps=max_steps)
        pair, legs = (clock is not None, 0.25), 2
        runner, delta_coarse = (1 if clock else 2), 0.25  # PAIRS or FIXED
    want = (path_block(model, config, seeds) if pair is None
            else block(model, clock, 2, 5.0, seeds, max_steps))
    x_f, t, n_f, status = (bordered(ctypes.c_double, size),
                           bordered(ctypes.c_double, size),
                           bordered(ctypes.c_longlong, size),
                           bordered(ctypes.c_int, size))
    x_c, n_c = ((x_f, n_f) if legs == 1 else
                (bordered(ctypes.c_double, size),
                 bordered(ctypes.c_longlong, size)))
    columns = [x_f, x_c, t, n_f, n_c, status]
    words, n_words = kernel._words(seeds.start)
    seed = ctypes.create_string_buffer(words, len(words) + 4)
    stopped = lib.tamsde_block(
        runner, kernel._MODELS.index(name), config.delta, delta_coarse,
        config.h0, config.l0, model.x0, config.t_end, config.max_steps, seed,
        n_words, size, *(address for _, address in columns))
    for array, _ in columns:
        border = BORDER * ctypes.sizeof(array._type_)
        assert bytes(array)[:border] == bytes([SENTINEL]) * border
        assert bytes(array)[-border:] == bytes([SENTINEL]) * border
    x_f, x_c, t, n_f, n_c, status = (array[BORDER:-BORDER]
                                     for array, _ in columns)
    assert stopped == sum(code != 0 for code in status) == len(want.failures)
    if size >= 7:  # every budget stops some seed of 1..7
        assert (stopped > 0) == (max_steps < 10 ** 8)
    states, counts = [x_f, x_c][:legs], [n_f, n_c][:legs]
    failures = []
    for i, code in enumerate(status):
        if code == 0:  # DONE: the stop time is t_end
            assert t[i] == config.t_end
            continue
        leg = code - 1  # FINE_STOP (1) or COARSE_STOP (2)
        failures.append((i, ("fine", "coarse")[leg] if pair else None,
                         t[i].hex(), states[leg][i].hex(), counts[leg][i]))
        for j in range(legs):
            states[j][i], counts[j][i] = math.nan, 0
    assert hexed(kernel.Block(states, counts, [])) == hexed(
        want._replace(failures=[]))
    assert failures == [(i, exc.leg, exc.time.hex(), exc.state.hex(),
                         exc.steps) for i, exc in want.failures]


@pytest.mark.parametrize("name, clock, max_steps", RUNS, ids=RUN_IDS)
def test_block_halves_on_two_threads_equal_the_block(lib, name, clock,
                                                     max_steps):
    # ctypes releases the GIL for each kernel call, and the only tables
    # the kernel shares between calls are filled once, under pthread_once,
    # so two threads may run the halves of a block at once: each half
    # equals its part of the block run whole, bit for bit, failures and
    # all
    model, seeds = get_model(name), range(2000)
    if clock == "path":
        config, pair = path_config(2, 5.0, max_steps=max_steps), None
    else:
        config = SchemeConfig(0.125, 5.0, *(clock or ()), max_steps=max_steps)
        pair = (clock is not None, 0.25)
    with in_c(), concurrent.futures.ThreadPoolExecutor(2) as pool:
        whole = kernel.run_block(model, config, seeds, pair)
        halves = pool.map(kernel.run_block, [model] * 2, [config] * 2,
                          [seeds[:1000], seeds[1000:]], [pair] * 2)
        for start, half in zip((0, 1000), halves):
            assert hexed(half) == hexed(part(whole, start, start + 1000))
    assert bool(whole.failures) == (max_steps < 10 ** 8)


def ramp(theta, jump):
    """Unit drift and no noise from 0, so a leg's state is its time; past
    theta, |mu'| = jump shrinks the adaptive step by a factor ~jump**2."""
    return get_model("gbm").replace(
        name="ramp", x0=0.0, drift=lambda x: 1.0,
        diffusion=lambda x: 0.0,
        drift_prime=lambda x: jump if x > theta else 0.0,
        diffusion_prime=lambda x: 0.0)


def overshoot():
    """No noise, and a drift toward 1 that a fixed step of 1/2 from 0
    overshoots to 1.5, while steps of 1/4 stay below 1.2, above which the
    drift is infinite."""
    return get_model("gbm").replace(
        name="overshoot", x0=0.0,
        drift=lambda x: 3.0 * (1.0 - x) if x <= 1.2 else math.inf,
        diffusion=lambda x: 0.0, drift_prime=lambda x: -3.0,
        diffusion_prime=lambda x: 0.0)


# Each way the Python loops stop that random searches over the built-in
# models seldom or never reach.  At k=1 the adaptive pair's first events
# fall at 0.0625 (fine), 0.1248 (fine) and 0.125 (coarse), so a ramp past
# 0.06 collapses the fine leg's step and one past 0.1249 the coarse leg's
# alone; a milder jump there spends the coarse leg's budget on tiny
# steps.  The fixed-step coarse leg of overshoot goes to inf at t=1,
# mid-run or as its last step.  Noise-free, every seed stops alike:
# (model, clock or "path", k, t_end, max_steps, (leg, time, state, steps),
# cause).
STOPS = [
    (ramp(0.06, 1e30), (1.0, 2.0), 1, 2.0, 10 ** 8,
     ("fine", 0.0625, 0.0625, 1), "step collapsed below time resolution"),
    (ramp(0.1249, 1e30), (1.0, 2.0), 1, 2.0, 10 ** 8,
     ("coarse", 0.125, 0.125, 1), "step collapsed below time resolution"),
    (ramp(0.1249, 10.0), (1.0, 2.0), 1, 2.0, 3,
     ("coarse", 0.13192588926620394, 0.13192588926620394, 3),
     "exceeded max_steps=3"),
    (overshoot(), None, 1, 2.0, 10 ** 8, ("coarse", 1.0, math.inf, 2),
     "became non-finite"),
    (overshoot(), None, 1, 1.0, 10 ** 8, ("coarse", 1.0, math.inf, 2),
     "became non-finite"),
    (ramp(0.06, 1e30), "path", 2, 2.0, 10 ** 8, (None, 0.0625, 0.0625, 1),
     "step collapsed below time resolution"),
]


@pytest.mark.parametrize("model, clock, k, t_end, max_steps, stop, cause",
                         STOPS, ids=["fine-collapse", "coarse-collapse",
                                     "coarse-budget", "coarse-non-finite",
                                     "coarse-non-finite-at-end",
                                     "path-collapse"])
def test_stops_of_the_python_loops(merges, engines, model, clock, k, t_end,
                                   max_steps, stop, cause):
    # the same PathExplosion from the loop itself, from the public function
    # and from each seed of a declined block
    leg, time, state, steps = stop
    who = f"{leg} leg" if leg else "path"
    want = (leg, repr(time), repr(state), steps,
            f"{who} {cause} at t={time} (state {state}, {steps} steps)")
    seeds = range(3)
    if clock == "path":
        config = path_config(k, t_end, max_steps=max_steps)
        direct = path_seeded(_path_loop, model, config, seeds)
        public = path_seeded(simulate_path, model, config, seeds)
        declined = kernel.run_block(model, config, seeds)
    else:
        config = SchemeConfig(2.0 ** -(k + 1), t_end, *(clock or ()),
                              max_steps=max_steps)
        direct = seeded(reference, model, clock, k, t_end, seeds, max_steps)
        public = seeded(pair, model, clock, k, t_end, seeds, max_steps)
        declined = kernel.run_block(model, config, seeds,
                                    (clock is not None, 2.0 ** -k))
    assert hexed(direct) == hexed(public) == hexed(declined)
    assert hexed(declined)[2] == [(i, want) for i in seeds]
    # the public function's seeds and the block's ran on the Python loops
    if clock == "path":
        assert merges == [] and engines == ["python"] * 6
    else:
        assert len(merges) == 6 and engines == []


def test_block_paths_store_no_trajectory(lib):
    # a gbm path at delta 1/2 and T=50 spends a 10**7-step budget, whose
    # stored trajectory would take ~400 MB of doubling buffers.  Under an
    # address-space limit 200 MB above what the process holds, a Monte
    # Carlo cell of that path counts it as failed, while the same path
    # through simulate_path, which stores it, runs out of memory.
    code = """
import resource
from tamsde import (EstimationError, NoiseSource, SchemeConfig,
                    estimate_moment, get_model, kernel, simulate_path)
kernel.library()
with open("/proc/self/status") as fh:
    held = next(int(line.split()[1]) for line in fh
                if line.startswith("VmSize:")) * 1024
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (held + 200 * 2 ** 20, hard))
model, config = get_model("gbm"), SchemeConfig(0.5, 50.0, max_steps=10 ** 7)
try:
    estimate_moment(model, config, 2.0, 1, 1)
except EstimationError as exc:
    print(exc)
try:
    simulate_path(model, config, NoiseSource(1))
except MemoryError:
    print("stored path: MemoryError")
"""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the address-space size from")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1 of 1 paths exploded; the moment estimate would not be trustworthy",
        "stored path: MemoryError"]


# --- the kernel's Philox against numpy's ------------------------------------

def generator_seeds():
    """Seeds from every stride boundary analysis.cell_seed can give, and
    random ones of 1 to 6 and 8 to 11 32-bit words (up to 2**320)."""
    seeds = set()
    for base in (0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 63 + 12345):
        for index in (0, 1, 254, 255):
            for t_idx in (0, 1, 1022, 1023):
                for baseline in (False, True):
                    first = cell_seed(base, 2 ** 32, index, t_idx, baseline)
                    seeds.update((first, first + 1, first + 2 ** 32 - 1))
    rng = random.Random(20240611)
    for bits in (1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 160, 161, 256,
                 257, 320):
        seeds.update(rng.getrandbits(bits) for _ in range(500))
        seeds.update((2 ** bits - 1, 2 ** bits))
    seeds.update(range(3000))
    return sorted(seeds)


class Philox(ctypes.Structure):
    """The kernel's Philox state, struct philox in _pair.c, as
    tamsde_seed and tamsde_normals take it."""

    _fields_ = [("counter", ctypes.c_uint64 * 4), ("key", ctypes.c_uint64 * 2),
                ("buffer", ctypes.c_uint64 * 4), ("buffer_pos", ctypes.c_int)]


def c_normals(built, rng, n):
    out = np.empty(n)
    built.tamsde_normals(ctypes.byref(rng), ctypes.c_void_p(out.ctypes.data),
                         ctypes.c_longlong(n))
    return out


def c_seeded(built, seed):
    rng = Philox()
    words, n_words = kernel._words(seed)
    built.tamsde_seed(ctypes.byref(rng), words, ctypes.c_size_t(n_words))
    return rng


def uint64_words(value, n):
    """value as n 64-bit words, least significant first."""
    return tuple(value >> (64 * i) & (2 ** 64 - 1) for i in range(n))


def generator_mismatches(built, seeds, n):
    """The seeds whose key, counter or first n normals the library differs
    on from numpy's Philox(SeedSequence(seed))."""
    bad = []
    for seed in seeds:
        rng = c_seeded(built, seed)
        want = np.random.Philox(np.random.SeedSequence(seed))
        state = want.state
        if ((tuple(rng.key), tuple(rng.counter), rng.buffer_pos)
                != (tuple(state["state"]["key"].tolist()),
                    tuple(state["state"]["counter"].tolist()),
                    state["buffer_pos"])
                or c_normals(built, rng, n).tobytes() != np.random.Generator(
                    want).standard_normal(n).tobytes()):
            bad.append(seed)
    return bad


class TestGenerator:
    def test_seeds_and_normals_match_numpy(self, lib):
        seeds = generator_seeds()
        assert len(seeds) >= 10 ** 4
        assert max(seeds) >= 2 ** 128
        assert generator_mismatches(lib, seeds, 8) == []
        # past the first block of 4 outputs and across the 1024-normal blocks
        assert generator_mismatches(lib, seeds[::100], 2100) == []

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    def test_counter_carries(self, lib, words):
        # a counter whose low words are all ones carries into the next word
        # when the next block is made
        counter, key = 2 ** (64 * words) - 1, 2 ** 100 + 9
        want = np.random.Philox(key=key, counter=counter)
        rng = Philox(counter=uint64_words(counter, 4),
                     key=uint64_words(key, 2), buffer_pos=4)
        got = c_normals(lib, rng, 40)
        assert got.tobytes() == np.random.Generator(want).standard_normal(
            40).tobytes()
        assert tuple(rng.counter) == tuple(
            want.state["state"]["counter"].tolist())


# --- the kernel's draw on numpy's rare paths --------------------------------

# numpy's normal is a ziggurat: an output r gives the strip r & 0xff, the
# sign bit 8 and rabs, the 52 bits above it; below ki[strip] it is
# rabs * wi[strip], signed (the fast path), else a wedge or, on strip 0,
# the tail beyond TAIL.  The kernel takes the fast path itself and leaves
# the rest to numpy's function.
TAIL = 3.6541528853610088
RABS = 2 ** 52 - 1
DRAW_KEY, DRAW_COUNTER = 2 ** 100 + 9, 2 ** 70 + 3


def output(strip, rabs, sign):
    return rabs << 9 | sign << 8 | strip


def set_philox(bit_generator, buffer, buffer_pos):
    """bit_generator's buffered outputs and the next one it reads."""
    state = bit_generator.state
    state["buffer"] = np.array(buffer, dtype=np.uint64)
    state["buffer_pos"] = buffer_pos
    bit_generator.state = state


def numpy_normal(r):
    """numpy's normal when its Philox's next output is r, and whether that
    was its fast path: r the one output it drew."""
    bit_generator = np.random.Philox(key=DRAW_KEY, counter=DRAW_COUNTER)
    set_philox(bit_generator, [r, 0, 0, 0], 0)
    z = np.random.Generator(bit_generator).standard_normal()
    state = bit_generator.state
    return z, (state["buffer_pos"] == 1
               and tuple(state["state"]["counter"].tolist()) == uint64_words(
                   DRAW_COUNTER, 4))


@functools.lru_cache(maxsize=None)
def numpy_tables():
    """numpy's ki and wi, found through its Philox: ki[strip] the least
    rabs off the fast path, wi[strip] the normal at rabs 1 (0 where ki is
    at most 1)."""
    ki, wi = [], []
    for strip in range(256):
        lo, hi = 0, 2 ** 52
        while lo < hi:
            mid = (lo + hi) // 2
            if numpy_normal(output(strip, mid, 0))[1]:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
        wi.append(numpy_normal(output(strip, 1, 0))[0] if lo > 1 else 0.0)
    return np.array(ki, dtype=np.uint64), np.array(wi)


def rare_outputs():
    """(case, output, whether numpy's fast path takes it) for each case;
    strip 0 off the fast path is the tail."""
    ki = numpy_tables()[0].tolist()
    cases = []
    for sign in (0, 1):
        cases += [(f"strip 1, sign {sign}", output(1, 12345, sign), False),
                  (f"tail edge, sign {sign}", output(0, ki[0], sign), False),
                  (f"tail top, sign {sign}", output(0, RABS, sign), False),
                  (f"fast, sign {sign}", output(7, 999, sign), True),
                  (f"zero, sign {sign}", output(9, 0, sign), True)]
        for strip in (0, 2, 100, 255):
            cases += [(f"strip {strip} at ki - 1, sign {sign}",
                       output(strip, ki[strip] - 1, sign), True),
                      (f"strip {strip} at ki, sign {sign}",
                       output(strip, ki[strip], sign), False)]
    return cases


def same_draws(built, counter, buffer, buffer_pos, n=12):
    """The kernel's first n normals on a Philox at DRAW_KEY, counter,
    buffer and buffer_pos, after checking them and the state they leave
    against numpy's on the same state."""
    want = np.random.Philox(key=DRAW_KEY, counter=counter)
    set_philox(want, buffer, buffer_pos)
    rng = Philox(counter=uint64_words(counter, 4),
                 key=uint64_words(DRAW_KEY, 2), buffer=tuple(buffer),
                 buffer_pos=buffer_pos)
    got = c_normals(built, rng, n)
    assert got.tobytes() == np.random.Generator(want).standard_normal(
        n).tobytes()
    state = want.state
    assert (tuple(rng.counter), tuple(rng.buffer), rng.buffer_pos) == (
        tuple(state["state"]["counter"].tolist()),
        tuple(state["buffer"].tolist()), state["buffer_pos"])
    return got


class TestRareDraws:
    def test_probed_tables(self):
        ki, wi = numpy_tables()
        # strip 1 always leaves the fast path, strip 0's fast path ends
        # at the tail
        assert ki[1] == 0
        assert ki[0] * wi[0] == TAIL
        assert all(0 < k < 2 ** 52 for i, k in enumerate(ki) if i != 1)

    def test_cases_take_their_paths(self):
        for case, r, fast in rare_outputs():
            z, took = numpy_normal(r)
            assert took == fast, case
            # the tail's normals are TAIL and beyond, the fast path's below
            assert (abs(z) >= TAIL) == (r & 0xff == 0 and not fast), case

    @pytest.mark.parametrize("buffer_pos", [0, 1, 2, 3])
    def test_buffered_outputs(self, lib, buffer_pos):
        # the output at buffer_pos is read first; draws past it make the
        # next blocks
        rest = np.random.Philox(5).random_raw(4).tolist()
        for case, r, fast in rare_outputs():
            buffer = list(rest)
            buffer[buffer_pos] = r
            first = same_draws(lib, DRAW_COUNTER, buffer, buffer_pos)[0]
            if fast:
                assert first == numpy_normal(r)[0], case
            assert (abs(first) >= TAIL) == (r & 0xff == 0 and not fast), case

    def test_first_output_of_a_block(self, lib):
        # the first output of the block made at counter j + 1, for the
        # Philox at counter j with no buffered output left
        first = np.random.Philox(key=DRAW_KEY, counter=0).random_raw(
            4 * 40_000)[::4]
        strip, sign = first & 0xff, first >> 8 & 1
        fast = (first >> 9 & RABS) < numpy_tables()[0][strip]
        picks = {"strip 1": strip == 1,
                 "tail": (strip == 0) & ~fast,
                 "fast, sign 0": fast & (sign == 0),
                 "fast, sign 1": fast & (sign == 1)}
        for case, where in picks.items():
            j = int(np.flatnonzero(where)[0])
            z = same_draws(lib, j, [0, 0, 0, 0], 4)[0]
            assert (abs(z) >= TAIL) == (case == "tail"), case

    def test_volume_meets_tails_and_wedges(self, lib):
        # 2**21 normals on 8 seeds, on the kernel and on numpy, with
        # numpy's tails (beyond TAIL) and accepted wedges (a normal equal
        # to the fast path's formula on an output off the fast path)
        ki, wi = numpy_tables()
        n, tails, wedges = 2 ** 18, 0, 0
        for seed in range(8):
            z = c_normals(lib, c_seeded(lib, seed), n)
            want = np.random.Philox(np.random.SeedSequence(seed))
            raw = np.random.Philox(np.random.SeedSequence(seed)).random_raw(
                n + n // 16)
            assert z.tobytes() == np.random.Generator(want).standard_normal(
                n).tobytes()
            strip, rabs = raw & 0xff, raw >> 9 & RABS
            x = rabs.astype(np.float64) * wi[strip]
            x = np.where(raw >> 8 & 1, -x, x)
            off = (rabs >= ki[strip]) & (strip != 0)
            tails += int(np.count_nonzero(np.abs(z) > TAIL))
            wedges += int(np.count_nonzero(np.isin(z, x[off])))
        assert tails > 100 and wedges > 1000, (tails, wedges)


def c_fsum(built, values):
    """math.fsum of values by the kernel's port (tamsde_fsum), raising its
    error as kernel.py does."""
    column, total = np.array(values, dtype=float), ctypes.c_double()
    code = built.tamsde_fsum(ctypes.c_void_p(column.ctypes.data),
                             ctypes.c_longlong(len(column)),
                             ctypes.byref(total))
    if code:
        raise kernel._ERRORS[code]()
    return total.value


def fsum_outcome(fsum, values):
    """fsum(values) as its .hex(), or the type and arguments of the error
    it raises."""
    try:
        return fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), exc.args


# summands from signed zeros and subnormals to near the float limit, the
# infinities and nan, and values in one binade, which sum exactly
SUMMANDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, math.inf,
                     -math.inf, math.nan, sys.float_info.max,
                     -sys.float_info.max]),
    st.floats(), st.floats(1e307, sys.float_info.max).map(lambda x: -x),
    st.floats(1e307, sys.float_info.max), st.floats(-1.0, 1.0))


@settings(max_examples=2000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(SUMMANDS, max_size=30))
@example(values=[1.7e308, 1.7e308])  # intermediate overflow
@example(values=[math.inf, -math.inf])
@example(values=[math.inf, 1.7e308, 1.7e308, math.nan])  # overflow first
@example(values=[1e-16, 1.0, 1e16])  # half-even across partials
@example(values=[2.0 ** (60 * k) for k in range(-17, 17)])  # 34 partials
@example(values=[-0.0])
def test_fsum_port_is_math_fsum(lib, values):
    # the kernel's port of math.fsum sums any floats to math.fsum's bits,
    # and raises its errors, type and message alike
    assert fsum_outcome(functools.partial(c_fsum, lib), values) == (
        fsum_outcome(math.fsum, values))


# The builds the strict tests make of the kernel's own build line: as it
# is; with the 32-bit halves the product falls back to without the
# compiler's 128-bit integer; with a processor test that finds no AVX2
# (NO_AVX2), so an x86-64 build runs its two-wide layer on SSE2
# intrinsics, as a host without AVX2 does; and with neither the four-wide
# AVX2 vector code nor the x86 intrinsics, the portable two-wide vector
# code a build for arm64, musl or no ELF target runs.  Each with the
# vector code it runs (kernel.lanes).
NO_AVX2 = "-D__builtin_cpu_supports(f)=0"
BUILDS = (("native.so", [], None),
          ("portable.so", ["-U__SIZEOF_INT128__"], None),
          ("no-avx2.so", [NO_AVX2], "baseline"),
          ("baseline.so", ["-U__ELF__"], "baseline"))


def host_lanes():
    """The vector code a build with the four-wide AVX2 code runs here:
    "avx2" on an x86-64 Linux host with glibc whose processor has AVX2,
    "baseline" on any other host, and None when the processor's features
    cannot be read."""
    if not (sys.platform.startswith("linux")
            and platform.machine() == "x86_64"
            and platform.libc_ver()[0] == "glibc"):
        return "baseline"
    try:
        with open("/proc/cpuinfo") as fh:
            info = fh.read()
    except OSError:
        return None
    flags = re.search(r"^flags\s*:(.*)$", info, re.M)
    return None if flags is None else (
        "avx2" if "avx2" in flags.group(1).split() else "baseline")


def test_source_compiles_cleanly_as_c99(tmp_path, monkeypatch):
    # each build of BUILDS under strict pedantic C99 warnings must load
    # with every symbol resolved, export the kernel's functions, report
    # its path lanes, seed and draw numpy's normals on its port, and run
    # blocks of paths, of fixed-step pairs and of adaptive pairs, large
    # enough for the vector runners, as the Python loops do
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    assert set(kernel._EXPORTS) == {"tamsde_block", "tamsde_init",
                                    "tamsde_lanes", "tamsde_sums"}
    for name, undefined, lanes in BUILDS:
        command = kernel._command(cc, kernel._SOURCE, str(tmp_path / name))
        proc = subprocess.run(
            [cc, "-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Werror",
             *undefined, *command[1:]],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        built = kernel._open(str(tmp_path), name)
        assert built is not None
        # its probed tables passed their check: the draws take the fast path
        assert built.tamsde_init() == 1
        if (lanes or host_lanes()) is not None:
            assert kernel.lanes(built) == (lanes or host_lanes()), name
        for gone in ("tamsde_pair", "tamsde_pair_init", "tamsde_pair_run",
                     "tamsde_pair_size", "tamsde_pairs", "tamsde_paths",
                     "tamsde_path", "tamsde_free"):
            assert not hasattr(built, gone)
        assert generator_mismatches(built, generator_seeds()[::20], 1030) == []
        monkeypatch.setattr(kernel, "library", lambda: built)
        for model in map(get_model, MODELS):
            config, seeds = path_config(2, 5.0, max_steps=150), range(7)
            assert hexed(path_block(model, config, seeds)) == hexed(
                path_seeded(_path_loop, model, config, seeds)), name
            assert hexed(block(model, None, 2, 5.0, seeds, 30)) == hexed(
                seeded(reference, model, None, 2, 5.0, seeds, 30)), name
            seeds = range(max(filter(None, VECTOR_PAIRS.values())))
            assert hexed(block(model, (1.0, 2.0), 2, 1.0, seeds)) == hexed(
                seeded(reference, model, (1.0, 2.0), 2, 1.0, seeds)), name


UNDEFINED_BEHAVIOUR_RUNS = """
import functools
import math
import sys
from array import array

from tamsde import get_model, kernel
from tamsde.montecarlo import _reduce
from tamsde.scheme import _path_loop

import test_kernel as t

built = kernel._open(sys.argv[1], sys.argv[2])
assert built is not None
assert built.tamsde_init() == 1
kernel.library = lambda: built
assert t.generator_mismatches(built, t.generator_seeds()[::10], 1030) == []
for name in t.MODELS:
    # finished runs, runs stopped by their budget, and runs from a start
    # that overflows at once (with a budget: the steps of model2 and gbm
    # saturate near DBL_MIN there)
    for x0, max_steps in ((None, 10 ** 8), (None, 5), (1e200, 1000)):
        model = get_model(name)
        if x0 is not None:
            model = model.replace(x0=x0)
        config = t.path_config(2, 1.0, max_steps=max_steps)
        for seed in range(3):
            for clock in t.CLOCKS:
                assert t.outcome(t.pair, model, clock, 2, 1.0, seed,
                                 max_steps) == t.outcome(
                    t.reference, model, clock, 2, 1.0, seed, max_steps)
        # blocks of pairs and of paths, on seeds of one and of two words
        # and on seeds whose words carry into a third, of more seeds than
        # twice the lanes or the vectors' seeds at this host's width, so
        # lanes and elements refill and fixed-step pairs start a second
        # generation, and, on a host with AVX2, enough that model1 and gbm
        # adaptive pairs run on the vectors
        size = max(2 * t.elements(built) * t.VECTORS + 1,
                   *filter(None, t.VECTOR_PAIRS.values()))
        for seeds in (range(2 ** 32 - size // 2, 2 ** 32 + size // 2 + 1),
                      range(2 ** 64 - size // 2, 2 ** 64 + size // 2 + 1)):
            for clock in t.CLOCKS:
                assert t.hexed(t.block(model, clock, 2, 1.0, seeds,
                                       max_steps)) == t.hexed(t.seeded(
                    t.reference, model, clock, 2, 1.0, seeds, max_steps))
            assert t.hexed(t.path_block(model, config, seeds)) == t.hexed(
                t.path_seeded(_path_loop, model, config, seeds))


def reduced(lib, states, steps, p):
    # a cell's sums, each as its .hex(), or the error raised
    try:
        out = _reduce(lib, tuple(array("d", c) for c in states),
                      tuple(array("q", c) for c in steps), p, lambda n: None)
    except (OverflowError, ValueError) as exc:
        return type(exc), exc.args
    return [v.hex() if isinstance(v, float) else v for v in out]


# the cell reductions (tamsde_sums) as Python's: a pair cell with failed
# seeds' nan states, one whose squares keep 34 partials (and whose spread
# overflows), a path cell whose |x| ** p overflows and one whose spread's
# square does
nan = float("nan")
for states, steps, p in (
        (([nan, 2.0, -1.0, nan], [nan, 1.0, 2.0, nan]),
         ([0, 10, 12, 0], [0, 5, 6, 0]), None),
        (([2.0 ** (30 * k) for k in range(-17, 17)], [0.0] * 34),
         ([1] * 34, [1] * 34), None),
        (([1e200, 0.5, -3.0, nan],), (), 2.0),
        (([1e200, 0.0],), (), 1.0)):
    assert reduced(built, states, steps, p) == reduced(None, states, steps, p)
# math.fsum's port (tamsde_fsum) on -inf + inf, an overflow and 34 partials
for values in ([-math.inf, math.inf], [1.7e308, 1.7e308],
               [2.0 ** (60 * k) for k in range(-17, 17)]):
    assert t.fsum_outcome(functools.partial(t.c_fsum, built), values) == (
        t.fsum_outcome(math.fsum, values))
print("clean")
"""


def test_no_undefined_behaviour(tmp_path):
    # each build of BUILDS with the undefined-behaviour sanitizer,
    # aborting at the first report; in a fresh interpreter each build must
    # draw numpy's normals and run pairs and paths as the Python loops do
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    sanitize = ["-fsanitize=undefined", "-fno-sanitize-recover=all"]
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int a, int b) { return a + b; }\n")
    if subprocess.run([cc, *sanitize, "-fPIC", "-shared", "-o",
                       str(tmp_path / "probe.so"), str(probe)],
                      capture_output=True, timeout=120).returncode:
        pytest.skip("cc cannot link the undefined-behaviour sanitizer")
    tests = os.path.dirname(os.path.abspath(__file__))
    for name, undefined, _ in BUILDS:
        command = kernel._command(cc, kernel._SOURCE, str(tmp_path / name))
        proc = subprocess.run([cc, *sanitize, *undefined, *command[1:]],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [sys.executable, "-c", UNDEFINED_BEHAVIOUR_RUNS, str(tmp_path),
             name], capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, tests))))
        assert (proc.returncode, proc.stdout) == (0, "clean\n"), proc.stderr


LOST_STOP_RUNS = """
import sys

from tamsde import get_model, kernel

import test_kernel as t

built = kernel._open(sys.argv[1], sys.argv[2])
assert built is not None
kernel.library = lambda: built
model = get_model("model1")
runs = [lambda: t.path_block(model, t.path_config(2, 1.0, max_steps=2 ** 70),
                             range(25))]
if kernel.lanes(built) == "avx2":
    runs.append(lambda: t.block(model, (1.0, 2.0), 2, 1.0, range(25),
                                2 ** 70))
for run in runs:
    try:
        run()
    except RuntimeError as exc:
        assert "kernel bug" in str(exc), exc
    else:
        raise AssertionError("a block with a lost stop ended without error")
print("bounded")
"""


def test_a_lost_stop_ends_the_block(lib, tmp_path):
    # a build whose stop bits drop each vector's top element, at the width
    # of the vector layer this host runs, and on "avx2" at the two-wide
    # width too, built as NO_AVX2 so that it runs it: that element's path
    # or pair never ends, and stays at t_end.  In a fresh interpreter a
    # block of paths, and on "avx2" one of model1 adaptive pairs, must end
    # with the kernel-bug RuntimeError in seconds, at a budget (2**70,
    # passed as 2**63 - 1) no element could spend first, rather than run on
    width = elements(lib)
    mutants = [(width, [])]
    if kernel.lanes(lib) == "avx2":
        mutants.append((ELEMENTS["baseline"], [NO_AVX2]))
    tests = os.path.dirname(os.path.abspath(__file__))
    for width, defined in mutants:
        bits = rf"(unsigned bits_v{width}\(vmask{width} m\)\s*\{{\s*return )"
        source, n = re.subn(bits + r"([^;]*);",
                            rf"\1(\2) & {(1 << (width - 1)) - 1}u;", _text)
        assert n >= 1
        name = f"lost_stop_v{width}"
        src, so = tmp_path / f"{name}.c", tmp_path / f"{name}.so"
        src.write_text(source)
        command = kernel._command(shutil.which("cc"), str(src), str(so))
        proc = subprocess.run([command[0], *defined, *command[1:]],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [sys.executable, "-c", LOST_STOP_RUNS, str(tmp_path), so.name],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, tests))))
        assert (proc.returncode, proc.stdout) == (0, "bounded\n"), (
            width, proc.stderr)


# --- the build cache, each case in fresh processes --------------------------

PAIRS = """
import numpy as np
from tamsde import get_model, kernel, simulate_coupled_pair, NoiseSource
from tamsde.driver import _merge, _sample
from tamsde.scheme import _tam_leg
m = get_model("model2")
same = all(simulate_coupled_pair(m, 1.0, 2.0, 3, 1.0, s) == _sample(*_merge(
    _tam_leg(m, 2.0 ** -4, 1.0, 2.0), _tam_leg(m, 2.0 ** -3, 1.0, 2.0),
    m.x0, 1.0, NoiseSource(s), 10 ** 8)) for s in range(5))
source = NoiseSource(7)
same = same and [source.gaussian_increment(1.0) for _ in range(1030)] == (
    np.random.Generator(np.random.Philox(7)).standard_normal(1030).tolist())
print("loaded" if kernel.library() is not None else "fallback", same)
"""


@pytest.fixture
def isolated(tmp_path):
    """A runner of code (PAIRS by default: pairs against _merge and a
    source against numpy's stream) in a fresh interpreter whose
    cache directories all lie in tmp_path; it returns the printed words.

    With fake_cc=True a fake `cc` comes first on PATH: it records each
    call, which calls() counts, and fails.
    """
    for d in ("xdg", "home", "tmp", "fake"):
        (tmp_path / d).mkdir()
    fake = tmp_path / "fake" / "cc"
    fake.write_text(f"#!/bin/sh\necho cc >> {tmp_path / 'calls'}\nexit 1\n")
    fake.chmod(0o755)

    def run(fake_cc=False, code=PAIRS, **env):
        path = os.environ.get("PATH", "")
        environ = dict(os.environ, PYTHONPATH=SRC,
                       XDG_CACHE_HOME=str(tmp_path / "xdg"),
                       HOME=str(tmp_path / "home"), TMPDIR=str(tmp_path / "tmp"),
                       PATH=f"{tmp_path / 'fake'}:{path}" if fake_cc else path)
        environ.update(env)
        proc = subprocess.run([sys.executable, "-c", code], env=environ,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, (
            proc.stderr)
        return proc.stdout.split()

    def calls():
        log = tmp_path / "calls"
        return len(log.read_text().splitlines()) if log.exists() else 0

    run.calls = calls
    run.cached = lambda: list((tmp_path / "xdg" / "tamsde").glob("_pair-*.so"))
    return run


# a cell starts at most one worker a CPU: code that needs a pool of two
# keeps it on a host with one CPU
TWO_CPUS = "import os\nos.cpu_count = lambda: 2\n"


class TestCache:
    def test_import_builds_nothing(self, isolated):
        isolated(fake_cc=True, code="import tamsde; tamsde.get_model('model2')")
        assert isolated.calls() == 0

    def test_import_leaves_the_kernel_module_out(self, isolated):
        # importing the kernel, numpy or the process pool costs start-up
        # time, so only the first pair or cell, the first array and the
        # first pooled cell do
        code = ("import sys, tamsde, tamsde.cli\n"
                "print(*(name in sys.modules for name in ('tamsde.kernel', "
                "'numpy', 'concurrent.futures')))")
        assert isolated(fake_cc=True, code=code) == ["False"] * 3

    def test_kept_path_leaves_the_kernel_out(self, isolated):
        # a kept path runs the Python loop on its source for every model,
        # so it neither imports the kernel module nor tries its build
        code = ("import sys\n"
                "from tamsde import (NoiseSource, SchemeConfig, get_model, "
                "simulate_path)\n"
                "traj = simulate_path(get_model('model1'), "
                "SchemeConfig(0.25, 1.0), NoiseSource(3))\n"
                "print(traj.step_count > 0, 'tamsde.kernel' in sys.modules)")
        assert isolated(fake_cc=True, code=code) == ["True", "False"]
        assert isolated.calls() == 0

    def test_cli_run_of_a_built_in_model_imports_no_numpy(self, lib, isolated,
                                                          tmp_path):
        # with the build cached, a rate run of model2 loads it and runs its
        # blocks in C, and nothing on that route needs numpy
        isolated()
        code = ("import contextlib, io, sys\n"
                "from tamsde import cli, kernel\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(['rate', '--model', 'model2', '--paths', "
                f"'20', '--k-min', '1', '--k-max', '2', '--out', "
                f"{str(tmp_path / 'out')!r}])\n"
                "print(code, kernel.library() is not None, "
                "'numpy' in sys.modules)")
        assert isolated(fake_cc=True, code=code) == ["0", "True", "False"]
        assert isolated.calls() == 0

    def test_numpy_parts_found_without_importing_numpy(self):
        # where numpy.get_include() and numpy's own directory put them
        assert kernel._INCLUDE == np.get_include()
        numpy_dir = os.path.dirname(os.path.abspath(np.__file__))
        assert kernel._NUMPY == numpy_dir
        assert os.path.commonpath([kernel._ARCHIVE, numpy_dir]) == numpy_dir

    def test_no_numpy_to_find_loads_nothing(self, isolated):
        # numpy is looked up, not imported, so without one the kernel
        # module still imports and only declines to build
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "from tamsde import kernel\n"
                "print(kernel._NUMPY, kernel.library())")
        assert isolated(fake_cc=True, code=code) == ["None", "None"]
        assert isolated.calls() == 0

    @pytest.mark.parametrize("part", ["_ARCHIVE", "_HEADER"])
    def test_key_covers_the_numpy_parts(self, lib, isolated, tmp_path, part):
        # a build is keyed by the bytes the kernel is compiled against and
        # links, so a numpy part one byte longer misses the cached build
        # and a build is tried
        isolated()
        code = (f"import shutil\n"
                f"from tamsde import kernel\n"
                f"copy = {str(tmp_path / 'part')!r}\n"
                f"shutil.copy(kernel.{part}, copy)\n"
                f"with open(copy, 'ab') as fh:\n"
                f"    fh.write(b'\\n')\n"
                f"kernel.{part} = copy\n" + PAIRS)
        assert isolated(fake_cc=True, code=code) == ["fallback", "True"]
        assert isolated.calls() == 1

    def test_second_process_loads_without_compiling(self, lib, isolated):
        assert isolated() == ["loaded", "True"]
        assert len(isolated.cached()) == 1
        assert isolated(fake_cc=True) == ["loaded", "True"]
        assert isolated.calls() == 0

    def test_failed_build_is_tried_once_and_falls_back(self, isolated):
        assert isolated(fake_cc=True) == ["fallback", "True"]
        assert isolated.calls() == 1

    def test_no_compiler_on_path_falls_back(self, isolated, tmp_path):
        # with no cc anywhere on PATH the build fails as a failing cc does,
        # and the runs take the Python loops with no traceback
        empty = tmp_path / "empty"
        empty.mkdir()
        assert isolated(PATH=str(empty)) == ["fallback", "True"]

    def test_cached_load_imports_no_build_tools(self, lib, isolated):
        # subprocess serves a build only, and the machine type comes from
        # os.uname(), so loading a cached build imports neither module
        isolated()
        code = ("import sys\n"
                "from tamsde import kernel\n"
                "print(kernel.library() is not None, *(name in sys.modules "
                "for name in ('subprocess', 'platform')))")
        assert isolated(fake_cc=True, code=code) == ["True", "False", "False"]
        assert isolated.calls() == 0

    def test_import_loads_no_dataclasses_inspect_or_json(self, isolated):
        # the records are built on model._Record, not on dataclasses: each
        # record's __init__ is generated by one exec of its field names,
        # with no import, where dataclasses imports inspect; and json is
        # imported only to read a model file
        code = ("import sys\n"
                "before = set(sys.modules)\n"
                "{}\n"
                "print(*(name in set(sys.modules) - before for name in {}))")
        assert isolated(code=code.format(
            "import tamsde, tamsde.cli",
            "('dataclasses', 'inspect')")) == ["False", "False"]
        assert isolated(code=code.format(
            "import tamsde; tamsde.get_model('model1')",
            "('json',)")) == ["False"]

    def test_import_loads_only_the_layers_it_runs(self, isolated):
        # the package imports a layer on first use, so a model lookup
        # compiles errors and model alone and the kernel's import loads no
        # layer it does not import itself; cli and kernel import by name,
        # and __all__, a star import and dir() see every layer's names
        code = ("import sys, tamsde\n"
                "def loaded(*names):\n"
                "    print(*(f'tamsde.{n}' in sys.modules for n in names))\n"
                "tamsde.get_model('model2')\n"
                "loaded('scheme', 'driver', 'montecarlo', 'analysis', "
                "'kernel')\n"
                "from tamsde import kernel\n"
                "loaded('montecarlo', 'analysis')\n"
                "from tamsde import cli\n"
                "print(kernel.__name__, cli.__name__)\n"
                "names = {}\n"
                "exec('from tamsde import *', names)\n"
                "print(all(name in names for name in tamsde.__all__), "
                "'__all__' in dir(tamsde))\n"
                "try:\n"
                "    tamsde.no_such_name\n"
                "except AttributeError:\n"
                "    print('AttributeError')")
        assert isolated(fake_cc=True, code=code) == [
            *["False"] * 7, "tamsde.kernel", "tamsde.cli", "True", "True",
            "AttributeError"]
        assert isolated.calls() == 0

    def test_cached_load_asks_for_no_temporary_directory(self, lib, isolated):
        # the cache directories are tried one at a time, so a build cached
        # under XDG_CACHE_HOME loads without tempfile.gettempdir(), whose
        # first call in a process writes and deletes a probe file
        isolated()
        code = ("import tempfile\n"
                "def gettempdir():\n"
                "    raise AssertionError('gettempdir called')\n"
                "tempfile.gettempdir = gettempdir\n"
                "from tamsde import kernel\n"
                "print(kernel.library() is not None)")
        assert isolated(fake_cc=True, code=code) == ["True"]
        assert isolated.calls() == 0

    def test_pooled_cell_tries_one_build(self, isolated):
        # a pooled cell loads the kernel, or tries its build, before its
        # pool starts, so its workers inherit the answer and run no cc
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers inherit the loaded kernel")
        code = (TWO_CPUS + "from tamsde import get_model\n"
                "from tamsde.montecarlo import estimate_mse\n"
                "row = estimate_mse(get_model('model2'), 1.0, 2.0, 1, 40, "
                "1.0, 0, n_jobs=2)\n"
                "print(row.n_paths, row.n_failures)")
        assert isolated(fake_cc=True, code=code) == ["40", "0"]
        assert isolated.calls() == 1

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_cell_of_a_json_model_tries_no_build(self, isolated, tmp_path,
                                                 n_jobs):
        # C runs the built-in models only, so a cell of any other model
        # takes the reference loops without loading the kernel or trying
        # its build, in the calling process and in its workers alike
        model1_as_json(tmp_path)
        code = (TWO_CPUS + "from tamsde import load_model_file\n"
                "from tamsde.montecarlo import estimate_mse\n"
                "model = load_model_file("
                f"{str(tmp_path / 'model1.json')!r})\n"
                "row = estimate_mse(model, 1.0, 2.0, 1, 40, 1.0, 0, "
                f"n_jobs={n_jobs})\n"
                "print(row.n_paths, row.n_failures)")
        assert isolated(fake_cc=True, code=code) == ["40", "0"]
        assert isolated.calls() == 0

    @pytest.mark.parametrize("part", ["_ARCHIVE", "_HEADER"])
    def test_missing_numpy_part_falls_back_without_compiling(self, isolated,
                                                             part):
        code = (f"from tamsde import kernel\n"
                f"kernel.{part} += '.missing'\n" + PAIRS)
        assert isolated(fake_cc=True, code=code) == ["fallback", "True"]
        assert isolated.calls() == 0

    def test_corrupt_cache_is_rebuilt(self, lib, isolated):
        isolated()
        (so,) = isolated.cached()
        so.write_bytes(b"not a shared library")
        assert isolated() == ["loaded", "True"]
        assert so.read_bytes().startswith(b"\x7fELF")

    def test_cache_others_can_write_is_not_loaded(self, lib, isolated):
        isolated()
        (so,) = isolated.cached()
        so.chmod(0o777)
        assert isolated(fake_cc=True) == ["fallback", "True"]
        assert isolated.calls() == 1

    def test_stale_builds_are_pruned(self, lib, isolated):
        # loading marks the build as used; another build is deleted only
        # once unused for kernel._STALE_S, so two versions run side by side
        # keep both of theirs
        isolated()
        (so,) = isolated.cached()
        now = time.time()
        aged = so.with_name("_pair-0000000000000000.so")
        recent = so.with_name("_pair-1111111111111111.so")
        other = so.with_name("other-file.so")
        for path in (aged, recent, other):
            shutil.copy(so, path)
        for path, age in ((so, 10), (aged, 31), (recent, 29), (other, 365)):
            os.utime(path, (now - age * 86400,) * 2)
        assert isolated(fake_cc=True) == ["loaded", "True"]
        assert isolated.calls() == 0
        assert not aged.exists()
        assert recent.exists() and other.exists()
        assert so.stat().st_mtime > now - 60

    def test_unwritable_cache_still_loads_the_build(self, lib, isolated,
                                                    tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache directories would go")
        (tmp_path / "tmp" / f"tamsde-{os.getuid()}").write_text("")
        assert isolated(XDG_CACHE_HOME=str(blocked),
                       HOME=str(blocked)) == ["loaded", "True"]
