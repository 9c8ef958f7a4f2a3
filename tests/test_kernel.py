"""The compiled coupled-pair kernel: parity with _merge, dispatch, cache.

driver._merge is the reference: for every built-in model and both schemes
the kernel must give the same CoupledSample, bit for bit, and raise the
same PathExplosion.  These tests skip only when no C compiler is on PATH;
with one, a kernel that fails to build or load fails them.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tamsde
from tamsde import (NoiseSource, PathExplosion, get_model, kernel,
                    load_model_file, simulate_coupled_pair,
                    simulate_coupled_tm_pair)
from tamsde.driver import _merge
from tamsde.scheme import _tam_leg, _tm_leg

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


def reference(model, clock, k, t_end, seed, max_steps=10 ** 8):
    """The pair as the Python loop runs it."""
    if clock is None:
        legs = (_tm_leg(model, 2.0 ** -(k + 1)), _tm_leg(model, 2.0 ** -k))
    else:
        legs = (_tam_leg(model, 2.0 ** -(k + 1), *clock),
                _tam_leg(model, 2.0 ** -k, *clock))
    return _merge(*legs, model.x0, t_end, NoiseSource(seed), max_steps)


def pair(model, clock, k, t_end, seed, max_steps=10 ** 8):
    """The pair through the public entry points."""
    if clock is None:
        return simulate_coupled_tm_pair(model, k, t_end, seed, max_steps)
    return simulate_coupled_pair(model, *clock, k, t_end, seed, max_steps)


def outcome(run, *args):
    """repr of the sample, or the explosion's attributes and message."""
    try:
        return repr(run(*args))
    except PathExplosion as exc:
        return (exc.leg, repr(exc.time), repr(exc.state), exc.steps, str(exc))


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
            model = dataclasses.replace(model, x0=x0)
        for seed in range(5):
            got = outcome(pair, model, clock, 2, t_end, seed, max_steps)
            assert isinstance(got, tuple)
            assert got == outcome(reference, model, clock, 2, t_end, seed,
                                  max_steps)
        assert merges == []


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
        lam = dataclasses.replace(get_model("model1"),
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
    def test_arguments_outside_c_types_take_the_python_loop(self, merges,
                                                            change):
        args = dict(h0=1.0, t_end=1.0, max_steps=10 ** 8)
        args.update(change)
        model = dataclasses.replace(get_model("model2"),
                                    x0=args.pop("x0", 0.1))
        clock = (args.pop("h0"), 2.0)
        got = outcome(pair, model, clock, 2, args["t_end"], 7,
                      args["max_steps"])
        assert got == outcome(reference, model, clock, 2, args["t_end"], 7,
                              args["max_steps"])
        assert len(merges) == 1

    def test_largest_int64_budget_takes_the_kernel(self, lib, merges):
        model = get_model("model2")
        got = outcome(pair, model, (1.0, 2.0), 2, 1.0, 7, 2 ** 63 - 1)
        assert got == outcome(reference, model, (1.0, 2.0), 2, 1.0, 7)
        assert merges == []


# --- the build cache, each case in fresh processes --------------------------

PAIRS = """
from tamsde import get_model, kernel, simulate_coupled_pair, NoiseSource
from tamsde.driver import _merge
from tamsde.scheme import _tam_leg
m = get_model("model2")
same = all(simulate_coupled_pair(m, 1.0, 2.0, 3, 1.0, s) == _merge(
    _tam_leg(m, 2.0 ** -4, 1.0, 2.0), _tam_leg(m, 2.0 ** -3, 1.0, 2.0),
    m.x0, 1.0, NoiseSource(s), 10 ** 8) for s in range(5))
print("loaded" if kernel.library() is not None else "fallback", same)
"""


@pytest.fixture
def isolated(tmp_path):
    """A runner of code (PAIRS by default) in a fresh interpreter whose
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


class TestCache:
    def test_import_builds_nothing(self, isolated):
        isolated(fake_cc=True, code="import tamsde; tamsde.get_model('model2')")
        assert isolated.calls() == 0

    def test_second_process_loads_without_compiling(self, lib, isolated):
        assert isolated() == ["loaded", "True"]
        assert len(isolated.cached()) == 1
        assert isolated(fake_cc=True) == ["loaded", "True"]
        assert isolated.calls() == 0

    def test_failed_build_is_tried_once_and_falls_back(self, isolated):
        assert isolated(fake_cc=True) == ["fallback", "True"]
        assert isolated.calls() == 1

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

    def test_unwritable_cache_still_loads_the_build(self, lib, isolated,
                                                    tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache directories would go")
        (tmp_path / "tmp" / f"tamsde-{os.getuid()}").write_text("")
        assert isolated(XDG_CACHE_HOME=str(blocked),
                       HOME=str(blocked)) == ["loaded", "True"]
