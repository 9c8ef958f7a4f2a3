"""Time the kernel's block route per benchmark workload, in ns a leg-step,
and its normal draw, in ns a normal.

    PYTHONPATH=src python tools/leg_step_ns.py

Runs jobs 0-9 of benchmark seed 3 of each workload of
perfbench/workloads.py once through tamsde.cli.main and records every
kernel.run_block call they make: each Monte Carlo cell's model, checked
config, seeds (analysis.cell_seed's) and pair argument.  Then it times
kernel.run_block on those calls, in 7 rounds that alternate the
workloads, and prints for each workload the median over the rounds of its
calls' time per leg-step.  A workload whose calls run more than one of
the kernel's runners gets a row for each, named after it:
"compare-smooth/tam" times its tamed-adaptive pairs and
"compare-smooth/tm" its fixed-step pairs.  Each pair runner's row has a
second, "<row>/1" ("rate-rough/1", "compare-smooth/tam/1" and
"compare-smooth/tm/1"), which times the same seeds as blocks of one seed,
a call each: a lone pair's cost, its call and its seeding included, per
leg-step (a seed's columns do not depend on its block, so the leg-steps
are the row's).  With a call a seed, the one-seed rows take longer than
all the others together: on a 2-core Intel Xeon with AVX-512 they add
~12 s to a run's ~5 s and ~23 s to an --against run's ~11 s, at 7
rounds.  A leg-step is one step of one leg, counted from the columns a
call returns (kernel.Block): a pair counts its fine and coarse steps, a
path its steps and a failed seed the steps of the leg that stopped it,
from its PathExplosion.  The time is the block route's as a Monte Carlo
cell runs it, the ctypes call and the columns and failures it returns
included.

In the same rounds it times the normal draw every runner makes, against
numpy's: DRAWS fills of FILL normals from seed 0, by the kernel's port
of Philox and numpy's normal (tamsde_normals, "draw/port"), which draws
them in the batches a seed's stream refills with (the Philox's next
blocks, on vectors where the host has them, and their normals), and by
Generator(Philox(0)).standard_normal(out=) ("draw/numpy"), and prints
each one's median time per normal.  Each round seeds its generators
afresh and every fill goes to one array, so "draw/numpy", which runs
the same code on both kernels, is a control of the comparison.  The
kernel is tamsde's on PYTHONPATH, so the same tool times another
checkout's kernel through that checkout's src.

    PYTHONPATH=src python tools/leg_step_ns.py --against OTHER/_pair.c

builds another kernel source with this checkout's build line into a
private temporary directory and times the two kernels in one process,
on the same recorded calls, within each round one after the other,
taking turns at going first.  The host's speed drifts between runs by
more than many changes move a row, so this is the comparison to trust.
Every recorded call and fill must give the same columns and failures,
bit for bit, on both kernels, or the tool stops with status 1.  It
prints each row's medians on both kernels and the median over the rounds
of this kernel's time over the other's, its interquartile range and the
rounds this kernel was faster in.  It exits 2 when the source does not
build, its build lacks a function that kernel.py loads or the rows call,
or its tamsde_block's parameter list differs from this checkout's (white
space aside): the tool calls both kernels with this checkout's
arguments, which another list would read wrongly, so time a kernel with
other arguments by separate runs of the tool in each checkout.  An
older kernel, which lacks a function a newer kernel.py loads, is timed
from the older checkout, --against the newer source.  --rounds sets the
rounds (default 7).  Times are printed in ns a unit with two decimals.

The first line names the vector code of a block's paths and fixed-step
pairs each kernel runs on this host (kernel.lanes): "avx512",
eight-wide, "avx2", four-wide, or "baseline", two-wide; which adaptive
pairs it runs, the rule at _pair.c's tamsde_block says.  Beside it, it
says whether each kernel's draw check passed (tamsde_init's return): a
kernel whose check failed leaves every normal to numpy's function, the
same bits at another speed, so its times are not its fast path's.
"""

import argparse
import contextlib
import ctypes
import io
import os
import re
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import numpy as np

from tamsde import PathExplosion, cli, kernel
from tamsde.kernel import lanes

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED = 3
JOBS = 10
ROUNDS = 7
# the normal draws: fills of FILL normals, DRAWS of them a round
FILL = 65536
DRAWS = 16
# room for the kernel's struct philox (88 bytes), which tamsde_seed sets
# whole and tamsde_normals draws its batches on, as a stream's refill
# does; its fields are not read here
PHILOX_ROOM = 256
# the functions of a kernel that kernel.py loads and the rows call
CALLED = kernel._EXPORTS + ("tamsde_seed", "tamsde_normals")


class Mismatch(Exception):
    """The two kernels gave different columns or failures on a row."""


def leg_steps(block):
    """The leg-steps of a kernel.Block: its step counts, which are 0 for a
    failed seed, and each failure's steps."""
    return (sum(map(sum, block.steps))
            + sum(exc.steps for _, exc in block.failures))


def runner(call):
    """The kernel's runner of a recorded kernel.run_block call: "tam" for
    tamed-adaptive pairs, "tm" for fixed-step pairs and "path" for paths."""
    pair = call[3] if len(call) > 3 else None
    return "path" if pair is None else ("tam" if pair[0] else "tm")


def cells(workload, seed, jobs, scale):
    """The kernel.run_block calls of the workload's jobs, by runner, each
    as a list of argument tuples and their leg-steps."""
    calls, steps = {}, {}
    run_block = kernel.run_block

    def recorded(*args):
        block = run_block(*args)
        kind = runner(args)
        calls.setdefault(kind, []).append(args)
        steps[kind] = steps.get(kind, 0) + leg_steps(block)
        return block

    kernel.run_block = recorded
    try:
        for job in range(jobs):
            with tempfile.TemporaryDirectory() as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err, \
                    contextlib.redirect_stdout(io.StringIO()):
                argv = workload.argv(seed, job, 1, scale) + ["--out", out]
                if cli.main(argv):
                    raise SystemExit(f"{workload.name} job {job} failed: "
                                     f"{err.getvalue().strip()}")
    finally:
        kernel.run_block = run_block
    return {kind: (calls[kind], steps[kind]) for kind in calls}


def block_calls(calls):
    """A runner of the recorded kernel.run_block calls, returning their
    Blocks."""
    def run():
        return [kernel.run_block(*call) for call in calls]
    return run


def port_draws(lib, out):
    """A runner of DRAWS fills of out, FILL normals, by lib's port of
    Philox seeded at 0 on each run, returning out."""
    seed = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_char_p,
                            ctypes.c_size_t)(("tamsde_seed", lib))
    normals = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p,
                               ctypes.c_longlong)(("tamsde_normals", lib))
    rng = ctypes.create_string_buffer(PHILOX_ROOM)

    def run():
        seed(rng, *kernel._words(0))
        for _ in range(DRAWS):
            normals(rng, out.ctypes.data, FILL)
        return out
    return run


def numpy_draws(out):
    """A runner of DRAWS fills of out, FILL normals, by a
    Generator(Philox(0)) made on each run, returning out."""
    def run():
        generator = np.random.Generator(np.random.Philox(0))
        for _ in range(DRAWS):
            generator.standard_normal(out=out)
        return out
    return run


@contextlib.contextmanager
def using(lib):
    """kernel.run_block on lib, whichever kernel library() loaded."""
    library = kernel.library
    kernel.library = lambda: lib
    try:
        yield
    finally:
        kernel.library = library


def named(lib):
    """The first line's words for the kernel library lib: its vector lanes
    and whether its draw check passed, "avx512, draw check passed"."""
    check = "passed" if lib.tamsde_init() else "failed"
    return f"{lanes(lib)}, draw check {check}"


def bits(value):
    """value with each float as its .hex(), each numpy array as its bytes
    and each PathExplosion as its fields, so that equal means bit for bit;
    a column, an array, is read as a list, as its nan items are unequal."""
    if isinstance(value, (list, tuple, array)):
        return [bits(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, PathExplosion):
        return [str(value), value.leg, bits(value.time), bits(value.state),
                value.steps]
    return value


def refuse(line):
    """Exit with status 2 and one line on stderr."""
    print(line, file=sys.stderr)
    raise SystemExit(2)


def block_parameters(source):
    """The parameter list of the definition of tamsde_block in the C
    source file, white space collapsed; None when there is none."""
    found = re.search(r"\btamsde_block\s*\(([^)]*)\)\s*\{",
                      Path(source).read_text())
    return found and " ".join(found.group(1).split())


def other_kernel(source, directory):
    """The kernel source built with this checkout's build line in
    directory and loaded, its block function declared and its draw's
    tables filled; exits with status 2 when it does not build or load,
    lacks a function that kernel.py loads or the rows call, or its
    tamsde_block takes other parameters than this checkout's, which the
    block function's declaration would pass it wrongly."""
    target = os.path.join(directory, "other.so")
    proc = subprocess.run(kernel._command("cc", source, target),
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True)
    if proc.returncode:
        refuse(f"{source} does not build: "
               + (proc.stderr.strip().splitlines() or ["cc failed"])[0])
    try:
        lib = ctypes.CDLL(target)
    except OSError as exc:
        refuse(f"{source} does not load: {exc}")
    missing = [f for f in CALLED if not hasattr(lib, f)]
    if missing:
        refuse(f"{source} lacks {', '.join(missing)}")
    theirs, ours = block_parameters(source), block_parameters(kernel._SOURCE)
    if theirs != ours:
        refuse(f"{source}'s tamsde_block takes ({theirs}), not ({ours})")
    kernel._declare(lib)
    lib.tamsde_init()
    return lib


def rows(jobs, scale, libs):
    """The rows, by name, each as a runner, its units and its calls: each
    workload's cells' recorded calls for jobs 0..jobs-1 at scale times its
    path count, and their leg-steps, one row a runner when its calls run
    more than one ("<workload>/<runner>"), and for a pair runner's the
    same seeds as blocks of one seed ("<row>/1"); and the normal draws,
    "draw/port", on each kernel of libs, the one in use, and
    "draw/numpy", and their normals, all into one array."""
    workloads = runpy.run_path(str(_WORKLOADS))["WORKLOADS"]
    runs = {}
    for name, w in workloads.items():
        by_runner = cells(w, SEED, jobs, scale)
        for kind, (calls, steps) in by_runner.items():
            row = name if len(by_runner) == 1 else f"{name}/{kind}"
            runs[row] = block_calls(calls), steps, len(calls)
            if kind != "path":
                alone = [call[:2] + (range(seed, seed + 1),) + call[3:]
                         for call in calls for seed in call[2]]
                runs[f"{row}/1"] = block_calls(alone), steps, len(alone)
    out = np.empty(FILL)
    ports = {lib: port_draws(lib, out) for lib in libs}
    runs["draw/port"] = (lambda: ports[kernel.library()](), DRAWS * FILL,
                         DRAWS)
    runs["draw/numpy"] = numpy_draws(out), DRAWS * FILL, DRAWS
    return runs


def timed(runs, libs, rounds):
    """For each row, by name, one list per kernel of libs of its ns per
    unit in each round.  Within a round each row runs once untimed, then
    on every kernel in turn, and the kernels take turns at going first."""
    names = list(runs)
    ns = {name: [[] for _ in libs] for name in names}
    for i in range(rounds):
        # each round starts one row later, so drift of the host's speed
        # falls on every row alike
        for name in names[i % len(names):] + names[:i % len(names)]:
            run, units, _ = runs[name]
            order = (list(range(len(libs))) if i % 2 == 0
                     else list(reversed(range(len(libs)))))
            # the first run after another row pays for the switch, so the
            # row first runs untimed on the kernel that goes first
            with using(libs[order[0]]):
                run()
            for k in order:
                with using(libs[k]):
                    start = time.perf_counter_ns()
                    run()
                    ns[name][k].append(
                        (time.perf_counter_ns() - start) / units)
    return ns


def measure(jobs, rounds, scale=1.0):
    """For each row of rows(), by name: its median ns per unit over the
    rounds, its units and its calls."""
    libs = [kernel.library()]
    runs = rows(jobs, scale, libs)
    ns = timed(runs, libs, rounds)
    return {name: (statistics.median(ns[name][0]), units, calls)
            for name, (_, units, calls) in runs.items()}


def compare(jobs, rounds, against, scale=1.0):
    """For each row of rows(), by name, on this checkout's kernel and on
    against, another kernel library: the median ns per unit on each, and
    the median over the rounds of this kernel's time over against's, its
    interquartile range and the rounds this kernel was faster in.
    Mismatch when the two kernels' columns or failures differ on a row."""
    libs = [kernel.library(), against]
    runs = rows(jobs, scale, libs)
    for name, (run, _, _) in runs.items():
        first = []
        for lib in libs:
            with using(lib):
                first.append(bits(run()))
        if first[0] != first[1]:
            raise Mismatch(f"the two kernels' blocks differ on {name}")
    out = {}
    for name, (this, other) in timed(runs, libs, rounds).items():
        ratios = [a / b for a, b in zip(this, other)]
        q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                     if len(ratios) > 1 else ratios * 3)
        out[name] = (statistics.median(this), statistics.median(other),
                     statistics.median(ratios), q3 - q1,
                     sum(r < 1.0 for r in ratios))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time the kernel's block route and normal draw.")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--against", metavar="OTHER/_pair.c",
                        help="another kernel source to time against")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if kernel.library() is None:
        print("the kernel cannot be built here", file=sys.stderr)
        return 2
    if args.against is None:
        print(f"vector lanes: {named(kernel.library())}")
        # a unit is a workload's leg-step or a normal
        print(f"{'row':<20} {'ns/unit':>11} {'units':>10} {'calls':>6}")
        for name, (ns, units, calls) in measure(JOBS, args.rounds).items():
            print(f"{name:<20} {ns:>11.2f} {units:>10} {calls:>6}")
        return 0
    with tempfile.TemporaryDirectory(prefix="leg-step-ns-") as directory:
        other = other_kernel(args.against, directory)
        try:
            table = compare(JOBS, args.rounds, other)
        except Mismatch as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"vector lanes: {named(kernel.library())}; "
              f"other: {named(other)}")
    # ratio: this kernel's time over the other's; wins: rounds it was faster
    print(f"{'row':<20} {'ns/unit':>9} {'other':>9} {'ratio':>7} "
          f"{'iqr':>7} {'wins':>7}")
    for name, (ns, other_ns, ratio, iqr, wins) in table.items():
        print(f"{name:<20} {ns:>9.2f} {other_ns:>9.2f} {ratio:>7.3f} "
              f"{iqr:>7.3f} {wins:>3}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
