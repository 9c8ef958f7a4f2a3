"""The benchmark's workloads: the CLI argv each one runs and its output checks.

Every workload is a closed loop over batch jobs: the benchmark starts the
next run of `tamsde.cli.main` only after the previous one has returned.  The program only ever sees the generated argv; the
benchmark seed picks each job's CLI seed.
"""

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass

# A run of the benchmark is a batch of distinct CLI jobs, because one job's
# cost is set by its rare, very long paths: the median job of a batch is
# steady across seeds where a single larger job is not.  Job i of benchmark
# seed s gets CLI seed (s * JOBS_PER_SEED + i) * SEED_BLOCK, so no two jobs
# share a Monte Carlo path (paths within a cell use base..base+n-1).
JOBS_PER_SEED = 1000
SEED_BLOCK = 10 ** 4

# each workload's path count is sized so that one job takes about this many
# seconds at 1 worker on a 2-core Xeon host
JOB_S = 1.0

# seed offsets the CLI gives each cell (tamsde.analysis.SEED_STRIDE_*); the
# layer probe reuses them to run the first paths of a workload's cells
SEED_STRIDE_K = 2 ** 32
SEED_STRIDE_T = 2 ** 40

_FAILURES = re.compile(r"failures=(\d+)")


def cli_seed(seed, job):
    """CLI --seed of job `job` of benchmark seed `seed`."""
    return (seed * JOBS_PER_SEED + job) * SEED_BLOCK


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # CLI subcommand
    model: str
    paths: int           # Monte Carlo paths per cell at scale 1
    extra: tuple         # remaining CLI flags
    data_files: tuple    # files the job writes under --out

    def argv(self, seed, job, threads, scale=1.0):
        """CLI argv (without --out) of one job of this workload."""
        paths = max(2, round(self.paths * scale))
        return [self.kind, "--model", self.model, "--paths", str(paths),
                *self.extra, "--seed", str(cli_seed(seed, job)),
                "--threads", str(threads)]


# why each workload is there: perfbench/README.md and BENCHMARK.json
_LEVELS = ("--k-min", "1", "--k-max", "5", "--T", "5", "--h0", "1")

WORKLOADS = {w.name: w for w in (
    Workload("rate-rough", "rate", "model2", 100, _LEVELS,
             ("rate.csv", "rate.json")),
    Workload("compare-smooth", "compare", "model1", 200, _LEVELS,
             ("compare.csv",)),
    # model1, not model2: a model2 path over T=100 reaches |x| >= 15 about
    # once in 10**4 paths, and there the adaptive clock takes ~10**8 steps
    # that simulate_path stores (~10 GB) before it gives up
    Workload("moments-long", "moments", "model1", 70,
             ("--k", "4", "--T", "1", "10", "100", "--p", "2", "--h0", "1"),
             ("moments.csv",)),
)}


def file_hashes(out_dir, names):
    """sha256 of each data file the job wrote, by file name."""
    hashes = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
        else:
            hashes[name] = None
    return hashes


def stderr_failures(text):
    """Sum of the CLI's `failures=N` progress counts, None if it has none."""
    counts = [int(n) for n in _FAILURES.findall(text)]
    return sum(counts) if counts else None


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(row, *columns):
    return all(math.isfinite(float(row[c])) for c in columns)


def _rate_job(out_dir):
    rows = _read_csv(os.path.join(out_dir, "rate.csv"))
    problems = []
    if [r["k"] for r in rows] != ["1", "2", "3", "4", "5"]:
        problems.append(f"rate.csv levels {[r['k'] for r in rows]}, want 1..5")
    problems += [f"rate.csv k={r['k']} log2_mse={r['log2_mse']}"
                 for r in rows if not _finite(r, "log2_mse")]
    with open(os.path.join(out_dir, "rate.json")) as fh:
        if not math.isfinite(json.load(fh)["empirical_rate"]):
            problems.append("rate.json empirical_rate is not finite")
    return problems


def _compare_job(out_dir):
    rows = _read_csv(os.path.join(out_dir, "compare.csv"))
    problems = [] if len(rows) == 10 else [
        f"compare.csv has {len(rows)} rows, want 10"]
    return problems + [
        f"compare.csv {r['scheme']} k={r['k']} log2_mse={r['log2_mse']} "
        f"log2_NT={r['log2_NT']}"
        for r in rows if not _finite(r, "log2_mse", "log2_NT")]


def _moments_job(out_dir):
    rows = _read_csv(os.path.join(out_dir, "moments.csv"))
    problems = []
    if [r["T"] for r in rows] != ["1.0", "10.0", "100.0"]:
        problems.append(f"moments.csv horizons {[r['T'] for r in rows]}")
    return problems + [f"moments.csv T={r['T']} mean_abs_p={r['mean_abs_p']}"
                       for r in rows if not _finite(r, "mean_abs_p")]


def _rate_batch(out_dirs):
    # the acceptance gate's model2 band, on the batch: the mean of the jobs'
    # mse per level (equal path counts), then the least-squares rate
    levels = {}
    for out_dir in out_dirs:
        for r in _read_csv(os.path.join(out_dir, "rate.csv")):
            levels.setdefault(int(r["k"]), []).append(float(r["mse"]))
    ks = sorted(levels)
    ys = [math.log2(math.fsum(levels[k]) / len(levels[k])) for k in ks]
    k_mean = math.fsum(ks) / len(ks)
    y_mean = math.fsum(ys) / len(ys)
    slope = (math.fsum((k - k_mean) * (y - y_mean) for k, y in zip(ks, ys))
             / math.fsum((k - k_mean) ** 2 for k in ks))
    rate = -slope / 2
    if not 0.55 <= rate <= 1.1:
        return [f"batch empirical_rate={rate:.4f}, want [0.55, 1.1]"]
    return []


def _moments_batch(out_dirs):
    # long-time stability on the batch mean: by T=100 model1's paths sit in
    # its double well at x = +-1, so E|X_100|^2 stays near 1
    values = [float(r["mean_abs_p"]) for out_dir in out_dirs
              for r in _read_csv(os.path.join(out_dir, "moments.csv"))
              if r["T"] == "100.0"]
    m100 = math.fsum(values) / len(values)
    if not 0.5 <= m100 <= 1.5:
        return [f"batch E|X_100|^2={m100:.4g}, want [0.5, 1.5]"]
    return []


_JOB_CHECKS = {"rate": _rate_job, "compare": _compare_job,
               "moments": _moments_job}
# the rate band is the acceptance gate's, which holds for model2
_BATCH_CHECKS = {("rate", "model2"): _rate_batch,
                 ("moments", "model1"): _moments_batch}


def check_job(workload, out_dir):
    """Checks of one job's data files; a list of problems."""
    missing = [n for n in workload.data_files
               if not os.path.exists(os.path.join(out_dir, n))]
    if missing:
        return [f"missing data files {missing}"]
    try:
        return _JOB_CHECKS[workload.kind](out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_batch(workload, out_dirs):
    """The acceptance gate's statistical bands, on the pooled jobs."""
    check = _BATCH_CHECKS.get((workload.kind, workload.model))
    if check is None:
        return []
    try:
        return check(out_dirs)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"]


def rate_leg_steps(out_dir, failures):
    """Leg-steps of a rate job, rebuilt from rate.csv's mean step columns.

    Each mean is an exact sum over the kept paths divided by their count,
    so mean * kept rounds back to the integer total.  failures maps str(k)
    to the failed paths of that level.
    """
    total = 0
    for r in _read_csv(os.path.join(out_dir, "rate.csv")):
        kept = int(r["n_paths"]) - failures.get(r["k"], 0)
        total += round(float(r["mean_fine_steps"]) * kept)
        total += round(float(r["mean_coarse_steps"]) * kept)
    return total
