"""tamsde benchmark: three CLI workloads, end-to-end and per-layer metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1

Run from anywhere; it uses the checkout that holds this directory and
imports tamsde from its src/ tree (nothing is installed).

--trace 0 prints the end-to-end metrics of the workload, measured with
tracing off; its times are normalized by a reference kernel timed next to
each job (reference.py), and the raw medians are printed as `raw` lines.  --trace 1 prints the per-layer metrics: the workload's jobs
run with spans at the layer boundaries, next to untraced runs at 1 and 2
workers, and the layer probe (layers.py) times each layer's calls.
Every run checks the job's data files; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  An operation is one
run of the CLI job, and it fails when it exits non-zero or its data files
fail a check.  Spans and a full record of the run are written under
perfbench/_work/.  See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from reference import gauge, kernel_seconds, kernel_times, normalized
from workloads import JOB_S, WORKLOADS, check_batch, check_job, rate_leg_steps

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
JOB = os.path.join(HERE, "job.py")

# every run must finish within this many seconds
DEADLINE_S = 170
SETUP_REPEATS = 15

# times are normalized to the reference kernel's nominal speed
# (reference.py); the record keeps the raw figures too
END_TO_END = {
    "norm_wall_s": "s",
    "norm_leg_steps_per_s": "1/s",
    "norm_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_path_share": "share",
}

PER_LAYER = {
    "model.coef_ns.model1": "ns",
    "model.coef_ns.model2": "ns",
    "scheme.clock_ns.model1": "ns",
    "scheme.clock_ns.model2": "ns",
    "scheme.tam_update_ns.model1": "ns",
    "scheme.tam_update_ns.model2": "ns",
    "scheme.tm_update_ns.model1": "ns",
    "scheme.path_ns_per_step": "ns",
    "scheme.steps_per_path.p50": "count",
    "scheme.steps_per_path.p90": "count",
    "scheme.steps_per_path.p99": "count",
    "scheme.steps_per_path.max": "count",
    "driver.noise_ns": "ns",
    "driver.noise_init_us": "us",
    "driver.tam_pair_ns_per_leg_step": "ns",
    "driver.tm_pair_ns_per_leg_step": "ns",
    "driver.pair_ms.p50": "ms",
    "driver.pair_ms.p99": "ms",
    "driver.fine_steps.p50": "count",
    "driver.fine_steps.p90": "count",
    "driver.fine_steps.p99": "count",
    "driver.fine_steps.max": "count",
    "driver.coarse_steps.p50": "count",
    "driver.coarse_steps.p90": "count",
    "driver.coarse_steps.p99": "count",
    "driver.coarse_steps.max": "count",
    "driver.failed_pairs.fine": "count",
    "driver.failed_pairs.coarse": "count",
    "montecarlo.cell_s.max": "s",
    "montecarlo.self_s": "s",
    "montecarlo.scaling_eff": "ratio",
    "montecarlo.pool_overhead_s": "s",
    "montecarlo.useful_ratio": "ratio",
    "analysis.tm_share": "ratio",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
    "leg_steps": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _source_hash():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Worker:
    """One pass: a job.py process that runs the jobs it is sent."""

    def __init__(self, bench, mode, threads):
        self.bench = bench
        self.mode = mode
        self.threads = threads
        self.tag = f"{len(bench.passes)}-{mode}-{threads}w"
        self.dir = os.path.join(bench.dir, self.tag)
        os.makedirs(self.dir)
        self.runs = []
        self.final = None
        self._log = open(os.path.join(self.dir, "stderr.txt"), "w+")
        self._proc = subprocess.Popen(
            [sys.executable, JOB, mode, self.dir], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True)
        bench.passes.append(self)

    def _reply(self):
        # wait for one reply line, within the run's deadline
        ready, _, _ = select.select([self._proc.stdout], [], [],
                                    max(0.0, self.bench.deadline
                                        - perf_counter()))
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            self._log.seek(0)
            log = self._log.read()
            self.kill()
            raise BenchError(f"pass {self.tag} "
                             f"{'died' if ready else 'ran out of time'}:\n"
                             f"{log}")
        return json.loads(line)

    def request(self, message):
        try:
            self._proc.stdin.write(json.dumps(message) + "\n")
            self._proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker has died; _reply reports its stderr
        return self._reply()

    def run_job(self, i):
        w = self.bench.workload
        record = self.request({
            "argv": w.argv(self.bench.seed, i, self.threads, self.bench.scale),
            "out": os.path.join(self.dir, f"job{i}"),
            "data_files": list(w.data_files)})
        if self.mode == "measure":
            shutil.rmtree(record["out_dir"], ignore_errors=True)
        self.runs.append(record)

    def close(self):
        """End the pass: collect its final reply and wait for the process."""
        self._proc.stdin.close()
        self.final = self._reply()
        self._proc.wait()

    def kill(self):
        if self._proc.poll() is None:
            os.killpg(self._proc.pid, signal.SIGKILL)  # and its pool workers
            self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._log.close()


class Bench:
    """One benchmark run of one workload: a fixed batch of distinct jobs."""

    def __init__(self, workload, seed, seconds, scale, trace):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        # every job runs traced and untraced, so each gets half the budget
        self.n_jobs = max(3, round(seconds / (2 * JOB_S)))
        self.deadline = perf_counter() + DEADLINE_S
        self.dir = os.path.join(
            WORK, f"{workload.name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.passes = []

    def run_passes(self, kinds, probe=False):
        """Start one worker per (mode, threads); deal the jobs out in turn.

        The first kind must be the traced pass, whose data files are the
        reference.  With probe, that pass then runs the layer probe.
        Returns the workers and the probe's reply (or None).
        """
        workers = [Worker(self, mode, threads) for mode, threads in kinds]
        try:
            for i in range(self.n_jobs):
                for worker in workers:
                    worker.run_job(i)
            probed = workers[0].request({"probe": self.seed}) if probe \
                else None
            for worker in workers:
                worker.close()
        finally:
            for worker in workers:
                worker.kill()
        return workers, probed


def _run_child(cmd, timeout):
    """Run cmd to completion in its own process group, within timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{out}{err}")
    return out


def setup_seconds(model):
    """Seconds for a fresh interpreter to import tamsde and a model.

    Returns (normalized, raw): medians of SETUP_REPEATS starts, each start
    normalized by the reference kernel timed on both sides of it.
    """
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import tamsde; "
            f"tamsde.get_model({model!r})")
    cmd = [sys.executable, "-c", code]
    _run_child(cmd, 60)  # first import writes the bytecode cache
    kernel_seconds()  # warm-up
    raw, norm = [], []
    before = kernel_times()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        _run_child(cmd, 60)
        raw.append(perf_counter() - t0)
        after = kernel_times()
        norm.append(normalized(raw[-1], gauge(before, after)))
        before = after
    return statistics.median(norm), statistics.median(raw)


def _median(runs, key):
    return statistics.median(r[key] for r in runs)


class Verdict:
    """Output checks and exact-repeat checks over every pass of a run.

    The first pass is traced; its data files are the reference that every
    later run of the same job must reproduce byte for byte.
    """

    def __init__(self, bench):
        self.bench = bench
        self.problems = []
        self.traced = bench.passes[0].runs
        self.ref = [run["hashes"] for run in self.traced]
        self.output_ok = []
        for i, run in enumerate(self.traced):
            found = check_job(bench.workload, run["out_dir"])
            self.problems += [f"job {i}: {p}" for p in found]
            self.output_ok.append(not found)
        if all(self.output_ok):
            found = check_batch(bench.workload,
                                [run["out_dir"] for run in self.traced])
            self.problems += found
            if found:  # a failed band fails every job of the batch
                self.output_ok = [False] * len(self.traced)
        self.attempted = 0
        self.failed = 0
        for p in bench.passes:
            for i, run in enumerate(p.runs):
                self._check_run(p, i, run)

    def _check_run(self, p, i, run):
        self.attempted += 1
        where = f"{p.tag} job {i}"
        bad = []
        if run["code"] != 0:
            bad.append(f"{where}: exit code {run['code']}")
        if None in run["hashes"].values():
            bad.append(f"{where}: data files missing {run['hashes']}")
        elif run["hashes"] != self.ref[i]:
            bad.append(f"{where}: data files differ from the traced run's")
        n = run["stderr_failures"]
        if n is not None and n != self.traced[i]["paths_failed"]:
            bad.append(f"{where}: CLI printed failures={n}, spans saw "
                       f"{self.traced[i]['paths_failed']}")
        if bad or not self.output_ok[i]:
            self.failed += 1
        self.problems += bad

    def check_counts(self, probe_counts=None):
        """Deterministic counts of each job; checks they repeat exactly."""
        counts = {}
        for i, run in enumerate(self.traced):
            for key in ("leg_steps", "paths_attempted", "paths_failed",
                        "failed_legs"):
                counts[f"job{i}.{key}"] = run[key]
            if run["estimator_failures"] != run["paths_failed"]:
                self.problems.append(
                    f"job {i}: estimators report {run['estimator_failures']}"
                    f" failed paths, spans saw {run['paths_failed']}")
            if self.bench.workload.kind == "rate" and self.output_ok[i]:
                from_csv = rate_leg_steps(run["out_dir"],
                                          run["failures_by_k"])
                if from_csv != run["leg_steps"]:
                    self.problems.append(
                        f"job {i}: rate.csv implies {from_csv} leg-steps, "
                        f"spans saw {run['leg_steps']}")
        counts.update(probe_counts or {})
        self._check_against_earlier(counts)
        return counts

    def _check_against_earlier(self, counts):
        # an earlier run of the same code and seed must have seen the same
        # counts; the first run of a (code, seed) pair records them
        bench = self.bench
        path = os.path.join(WORK, "counts",
                            f"{bench.workload.name}-seed{bench.seed}-"
                            f"x{bench.scale}-{_source_hash()[:16]}.json")
        earlier = {}
        if os.path.exists(path):
            with open(path) as fh:
                earlier = json.load(fh)
        for key, value in counts.items():
            if key in earlier and earlier[key] != value:
                self.problems.append(
                    f"{key}={value}, an earlier run of this code and seed "
                    f"saw {earlier[key]}")
        earlier.update({k: v for k, v in counts.items() if k not in earlier})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(earlier, fh, indent=1, sort_keys=True)


def _ok_share(runs):
    """Kept paths over attempted paths, over a pass's jobs."""
    attempted = sum(r["paths_attempted"] for r in runs)
    failed = sum(r["paths_failed"] for r in runs)
    return (attempted - failed) / max(1, attempted)


def end_to_end(bench):
    """A traced pass counts the work; an interleaved untraced pass times it."""
    w = bench.workload
    setup, raw_setup = setup_seconds(w.model)
    (traced, timed), _ = bench.run_passes([("trace", 1), ("measure", 1)])
    verdict = Verdict(bench)
    counts = verdict.check_counts()
    runs = timed.runs
    walls = [normalized(r["wall_s"], r["kernel_s"]) for r in runs]
    metrics = {
        "norm_wall_s": statistics.median(walls),
        "norm_leg_steps_per_s": statistics.median(
            t["leg_steps"] / wall for t, wall in zip(traced.runs, walls)),
        "norm_cpu_s": statistics.median(
            normalized(r["cpu_s"], r["kernel_s"]) for r in runs),
        "setup_s": setup,
        "peak_rss_mb": timed.final["peak_rss_mb"],
        "ok_path_share": _ok_share(traced.runs),
    }
    raw = {
        "wall_s": _median(runs, "wall_s"),
        "cpu_s": _median(runs, "cpu_s"),
        "setup_s": raw_setup,
        "kernel_s": _median(runs, "kernel_s"),
    }
    return verdict, metrics, counts, raw


def per_layer(bench):
    """A traced pass and the probe; untraced passes at 1 and 2 workers."""
    (traced, one, two), probed = bench.run_passes(
        [("trace", 1), ("measure", 1), ("measure", 2)], probe=True)
    verdict = Verdict(bench)
    counts = verdict.check_counts(probed["probe_counts"])
    runs, one, two = traced.runs, one.runs, two.runs
    metrics = dict(probed["probe"])
    metrics.update({k: counts[k] for k in PER_LAYER if k in counts})
    raw = {"kernel_s": _median(one, "kernel_s")}
    metrics.update({
        "montecarlo.cell_s.max": _median(runs, "cell_s_max"),
        "montecarlo.self_s": _median(runs, "montecarlo_self_s"),
        "montecarlo.scaling_eff": statistics.median(
            a["wall_s"] / (2 * b["wall_s"]) for a, b in zip(one, two)),
        "montecarlo.useful_ratio": _ok_share(runs),
        "cli.self_s": _median(runs, "cli_self_s"),
        "trace_overhead_s": statistics.median(
            t["wall_s"] - u["wall_s"] for t, u in zip(runs, one)),
        "leg_steps": sum(r["leg_steps"] for r in runs),
    })
    return verdict, metrics, counts, raw


def _host(bench):
    versions = bench.passes[0].final["versions"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "tamsde": versions["tamsde"],
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "workload": bench.workload.name,
        "seed": bench.seed,
        "jobs": bench.n_jobs,
        "argv_job0": bench.workload.argv(bench.seed, 0, 1, bench.scale),
    }


def run(workload, seed, seconds, trace, scale=1.0):
    """One benchmark run; returns (result line dict, full record dict)."""
    bench = Bench(workload, seed, seconds, scale, trace)
    verdict, metrics, counts, raw = (per_layer if trace else end_to_end)(
        bench)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "host": _host(bench),
        "hashes": {f"job{i}/{name}": digest
                   for i, hashes in enumerate(verdict.ref)
                   for name, digest in hashes.items()},
        "counts": counts,
        "problems": verdict.problems,
        "metrics": metrics,
        "raw": raw,
        "spans_file": bench.passes[0].final["spans_file"],
    }
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(bench.dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="path-count multiplier; the self-test shrinks "
                        "the jobs with it")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--seed must be >= 0, --seconds and --scale > 0")
    return args


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tamsde", "__init__.py")):
        print(f"error: no tamsde sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, record = run(WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("host " + json.dumps(record["host"], sort_keys=True))
    for name, digest in sorted(record["hashes"].items()):
        print(f"sha256 {name} {digest}")
    for name, value in sorted(record["counts"].items()):
        print(f"count {name} {value}")
    for name, value in sorted(record["raw"].items()):
        print(f"raw {name} {value}")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
