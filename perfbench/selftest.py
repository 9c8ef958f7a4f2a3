"""Fast self-test of the benchmark at small sizes.

usage: python3 perfbench/selftest.py

Runs every workload once untraced and once traced with few, small jobs and
asserts that each run ends with a result line whose checks passed, with no
failed operation and with every metric BENCHMARK.json names, in its unit.
It also asserts that run.py and BENCHMARK.json agree on the metric names
and units, and that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.  Takes about a
minute on two cores.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER, WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.25  # a quarter of each job's paths


def _result(argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        assert listed == units, f"{key}: BENCHMARK.json {listed} != {units}"
    return spec


def check_run(spec, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", str(SCALE)]
    proc = _result(argv)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3, result
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
    assert any(line.startswith("sha256 ") for line in proc.stdout.splitlines())
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def check_refuses_without_sources():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _result(["--workload", "rate-rough", "--seed", "0",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok refuses without sources")


def main():
    spec = check_benchmark_json()
    check_refuses_without_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
