"""Time the kernel's block route per benchmark workload, in ns a leg-step,
its stored paths, in ns a step, and its normal draw, in ns a normal.

    PYTHONPATH=src python tools/leg_step_ns.py

Runs jobs 0-9 of benchmark seed 3 of each workload of
perfbench/workloads.py once through tamsde.cli.main and records every
kernel.run_block call they make: each Monte Carlo cell's model, checked
config, seeds (analysis.cell_seed's) and pair argument.  Then it times
kernel.run_block on those calls, in 7 rounds that alternate the
workloads, and prints for each workload the median over the rounds of its
calls' time per leg-step.  A leg-step is one step of one leg: a pair
counts its fine and coarse steps, a path its steps and a failed seed the
steps of the leg that stopped it.  The time is the block route's as a
Monte Carlo cell runs it, the ctypes call and the records it returns
included.

In the same rounds it times the route no benchmark workload takes: a
path whose trajectory is kept, simulate_path on a fresh NoiseSource(seed)
for seeds 0-39, of model1 and of model2 at delta 2**-4 and T=100, and
prints each model's median time per step, the source's set-up and the
stored arrays included.  And it times the normal draw the block lanes
make, against numpy's: DRAWS fills of FILL normals from seed 0, by the
kernel's port of Philox (tamsde_normals, "draw/port") and by
Generator(Philox(0)).standard_normal(out=) ("draw/numpy"), and prints
each one's median time per normal.  The kernel is tamsde's on
PYTHONPATH, so the same tool times another checkout's kernel through
that checkout's src.
"""

import contextlib
import ctypes
import io
import runpy
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tamsde import (NoiseSource, PathExplosion, SchemeConfig, cli, get_model,
                    kernel, simulate_path)

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED = 3
JOBS = 10
ROUNDS = 7
# the stored paths: the models, the seeds and the path's SchemeConfig
STORED_MODELS = ("model1", "model2")
STORED_SEEDS = range(40)
STORED_CONFIG = SchemeConfig(2.0 ** -4, 100.0)
# the normal draws: fills of FILL normals, DRAWS of them a round
FILL = 65536
DRAWS = 16
# room for the kernel's struct philox (88 bytes), which tamsde_seed sets
# whole; the draw runs on it without reading its fields here
PHILOX_ROOM = 256


def leg_steps(records):
    """The leg-steps of a block's records."""
    return sum(r.steps if isinstance(r, PathExplosion) else sum(r[len(r) // 2:])
               for r in records)


def cells(workload, seed, jobs, scale):
    """The kernel.run_block calls of the workload's jobs, as argument
    tuples, and their leg-steps."""
    calls, steps = [], 0
    run_block = kernel.run_block

    def recorded(*args):
        nonlocal steps
        records = run_block(*args)
        calls.append(args)
        steps += leg_steps(records)
        return records

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
    return calls, steps


def block_calls(calls):
    """A runner of the recorded kernel.run_block calls."""
    def run():
        for call in calls:
            kernel.run_block(*call)
    return run


def stored_paths(model):
    """A runner of the stored paths of model, and their steps."""
    def run():
        return sum(simulate_path(model, STORED_CONFIG,
                                 NoiseSource(seed)).step_count
                   for seed in STORED_SEEDS)
    return run, run()


def draws():
    """Runners of the normal draws by the kernel's port and by numpy, as
    "draw/<name>", and their normals."""
    lib = kernel.library()
    seed = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_char_p,
                            ctypes.c_size_t)(("tamsde_seed", lib))
    normals = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p,
                               ctypes.c_longlong)(("tamsde_normals", lib))
    out = np.empty(FILL)
    rng = ctypes.create_string_buffer(PHILOX_ROOM)
    seed(rng, *kernel._words(0))
    generator = np.random.Generator(np.random.Philox(0))

    def by_port():
        for _ in range(DRAWS):
            normals(rng, out.ctypes.data, FILL)

    def by_numpy():
        for _ in range(DRAWS):
            generator.standard_normal(out=out)

    return {"draw/port": by_port, "draw/numpy": by_numpy}, DRAWS * FILL


def measure(jobs, rounds, scale=1.0):
    """For each workload, by name: the median ns per leg-step of its cells'
    calls over the rounds, their leg-steps and their number, for jobs
    0..jobs-1 at scale times each workload's path count; and for each
    model of STORED_MODELS, as "stored-path/<model>": the median ns per
    step of its stored paths, their steps and their number; and for the
    normal draws ("draw/port" and "draw/numpy"): the median ns per normal,
    the normals and the fills."""
    workloads = runpy.run_path(str(_WORKLOADS))["WORKLOADS"]
    runs = {}
    for name, w in workloads.items():
        calls, steps = cells(w, SEED, jobs, scale)
        runs[name] = block_calls(calls), steps, len(calls)
    for model in STORED_MODELS:
        run, steps = stored_paths(get_model(model))
        runs[f"stored-path/{model}"] = run, steps, len(STORED_SEEDS)
    fills, normals = draws()
    for name, run in fills.items():
        runs[name] = run, normals, DRAWS
    names = list(runs)
    ns = {name: [] for name in names}
    for i in range(rounds):
        # each round starts one row later, so drift of the host's speed
        # falls on every row alike
        for name in names[i % len(names):] + names[:i % len(names)]:
            run, steps, _ = runs[name]
            start = time.perf_counter_ns()
            run()
            ns[name].append((time.perf_counter_ns() - start) / steps)
    return {name: (statistics.median(ns[name]), runs[name][1],
                   runs[name][2]) for name in names}


def main():
    if kernel.library() is None:
        print("the kernel cannot be built here", file=sys.stderr)
        return 2
    # a unit is a workload's leg-step, a stored path's step or a normal
    print(f"{'row':<20} {'ns/unit':>11} {'units':>10} {'calls':>6}")
    for name, (ns, units, calls) in measure(JOBS, ROUNDS).items():
        print(f"{name:<20} {ns:>11.1f} {units:>10} {calls:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
