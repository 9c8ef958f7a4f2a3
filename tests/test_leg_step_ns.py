"""tools/leg_step_ns.py: the block route's ns per leg-step per workload
and the normal draws' ns per normal."""

import importlib.util
import shutil
import types
from pathlib import Path

import pytest

from tamsde import PathExplosion, SchemeConfig, get_model, kernel

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "leg_step_ns.py"
_spec = importlib.util.spec_from_file_location("leg_step_ns", _TOOL)
leg_step_ns = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(leg_step_ns)


# compare runs both pair runners, so it has a row for each; each pair
# runner's row has a second, its seeds as blocks of one
ROWS = {"rate-rough", "compare-smooth/tam", "compare-smooth/tm",
        "rate-rough/1", "compare-smooth/tam/1", "compare-smooth/tm/1",
        "moments-long", "draw/port", "draw/numpy"}


def test_runner_of_a_call():
    config = SchemeConfig(0.25, 1.0)
    model = get_model("model1")
    assert leg_step_ns.runner((model, config, range(3), (True, 0.5))) == "tam"
    assert leg_step_ns.runner((model, config, range(3), (False, 0.5))) == "tm"
    assert leg_step_ns.runner((model, config, range(3))) == "path"
    assert leg_step_ns.runner((model, config, range(3), None)) == "path"


def test_leg_steps_of_columns():
    # each leg's step counts, 0 for a failed seed, and the failure's steps
    stop = PathExplosion("stopped", 1.0, float("inf"), 7, "fine")
    nan = float("nan")
    pairs = kernel.Block(([0.5, nan], [0.25, nan]), ([10, 0], [5, 0]),
                         [(1, stop)])
    paths = kernel.Block(([1.5],), ([4],), [])
    assert leg_step_ns.leg_steps(pairs) == 22
    assert leg_step_ns.leg_steps(paths) == 4


def test_small_run():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    run_block = kernel.run_block
    rows = leg_step_ns.measure(jobs=1, rounds=2, scale=0.02)
    assert kernel.run_block is run_block
    assert set(rows) == ROWS
    # one cell per level of rate; per level of compare, for each of its
    # schemes; per horizon of moments; one per fill of normals; and one a
    # seed in a one-seed row, 2 paths of rate's cells and 4 of compare's
    assert {name: row[2] for name, row in rows.items()} == {
        "rate-rough": 5, "compare-smooth/tam": 5, "compare-smooth/tm": 5,
        "rate-rough/1": 10, "compare-smooth/tam/1": 20,
        "compare-smooth/tm/1": 20, "moments-long": 3,
        "draw/port": leg_step_ns.DRAWS, "draw/numpy": leg_step_ns.DRAWS}
    assert all(ns > 0.0 and steps > 0 for ns, steps, _ in rows.values())


def test_against_its_own_source(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    # a second build of the same source, loaded beside the first: the
    # records of every row are compared on both before any timing
    other = leg_step_ns.other_kernel(kernel._SOURCE, str(tmp_path))
    assert other._name != kernel.library()._name
    library = kernel.library
    rows = leg_step_ns.compare(jobs=1, rounds=2, against=other, scale=0.02)
    assert kernel.library is library
    assert set(rows) == ROWS
    for ns, other_ns, ratio, iqr, wins in rows.values():
        assert ns > 0.0 and other_ns > 0.0 and ratio > 0.0 and iqr >= 0.0
        assert 0 <= wins <= 2


def test_path_lanes_named(monkeypatch, capsys):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    lib = kernel.library()
    assert leg_step_ns.lanes(lib) in ("avx512", "avx2", "baseline")
    assert leg_step_ns.named(lib) == f"{kernel.lanes(lib)}, draw check passed"
    # a kernel whose draw check failed, which draws every normal by numpy's
    # function, says so on the first line
    failed = types.SimpleNamespace(tamsde_init=lambda: 0,
                                   tamsde_lanes=lambda: b"avx2")
    assert leg_step_ns.named(failed) == "avx2, draw check failed"
    monkeypatch.setattr(leg_step_ns, "other_kernel",
                        lambda source, directory: failed)
    monkeypatch.setattr(leg_step_ns, "compare",
                        lambda jobs, rounds, other: {})
    assert leg_step_ns.main(["--against", "other.c"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"vector lanes: {leg_step_ns.named(lib)}; "
        "other: avx2, draw check failed")


def test_prints_ns_with_two_decimals(monkeypatch, capsys):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    # the fastest rows take ~3-5 ns a unit, so one decimal would resolve
    # them only to 2-3%
    monkeypatch.setattr(leg_step_ns, "measure", lambda jobs, rounds: {
        "draw/port": (3.2549, 1048576, 16)})
    monkeypatch.setattr(leg_step_ns, "other_kernel",
                        lambda source, directory: kernel.library())
    monkeypatch.setattr(leg_step_ns, "compare", lambda jobs, rounds, other: {
        "draw/port": (3.2549, 3.3051, 0.98481, 0.0123, 5)})
    assert leg_step_ns.main(["--rounds", "7"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == [
        "draw/port", "3.25", "1048576", "16"]
    assert leg_step_ns.main(["--rounds", "7", "--against", "other.c"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == [
        "draw/port", "3.25", "3.31", "0.985", "0.012", "5/7"]


def test_against_a_source_without_the_kernel(tmp_path, capsys):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    source = tmp_path / "other.c"
    source.write_text("int tamsde_block;\n")
    with pytest.raises(SystemExit) as exit:
        leg_step_ns.main(["--rounds", "2", "--against", str(source)])
    assert exit.value.code == 2
    assert capsys.readouterr().err == (
        f"{source} lacks tamsde_init, tamsde_lanes, tamsde_sums, "
        "tamsde_seed, tamsde_normals\n")


def test_against_a_source_with_other_block_parameters(tmp_path, capsys):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    # the kernel with one parameter of tamsde_block of another type builds
    # and has every function, but this checkout's declaration would pass it
    # the wrong arguments: refused before any call
    text = Path(kernel._SOURCE).read_text()
    assert text.count("long long n, double *x_f") == 1
    source = tmp_path / "other.c"
    source.write_text(text.replace("long long n, double *x_f",
                                   "int n, double *x_f"))
    ours = leg_step_ns.block_parameters(kernel._SOURCE)
    theirs = ours.replace("long long n,", "int n,")
    with pytest.raises(SystemExit) as exit:
        leg_step_ns.main(["--rounds", "2", "--against", str(source)])
    assert exit.value.code == 2
    assert capsys.readouterr().err == (
        f"{source}'s tamsde_block takes ({theirs}), not ({ours})\n")
