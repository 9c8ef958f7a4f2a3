"""Worker process that runs a workload's CLI jobs and records what they cost.

run.py starts one worker per pass and hands the passes' jobs out in turn
(traced job 0, untraced job 0, traced job 1, ...), so every pass samples
the whole run and a few seconds of host slowdown do not land on one pass
alone.  Each pass has its own process, so resource usage and peak memory
belong to its jobs alone.  Two modes:

  measure  untraced, timed runs of jobs, each between two runs of the
           reference kernel (reference.py)
  trace    jobs with spans at the layer boundaries (tracing.py); their data
           files are kept for the output checks.  It also runs the layer
           probe (layers.py) on request.

usage: python3 perfbench/job.py measure|trace WORK_DIR

Protocol: one JSON request per stdin line, one JSON reply per stdout line.

  {"argv": [...], "out": DIR, "data_files": [...]}   run one CLI job
  {"probe": SEED}                                    run the layer probe

At end of input the worker replies once more with its peak memory and
versions (and, when tracing, the file its spans were written to) and exits.
"""

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

from reference import gauge, kernel_seconds, kernel_times
from workloads import file_hashes, stderr_failures

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_tamsde():
    """Import tamsde from this checkout's src/; return the versions in use."""
    sys.path.insert(0, SRC)
    import numpy
    import tamsde
    where = os.path.dirname(os.path.abspath(tamsde.__file__))
    if where != os.path.join(SRC, "tamsde"):
        raise SystemExit(f"tamsde imported from {where}, not from {SRC}")
    return {"tamsde": tamsde.__version__, "numpy": numpy.__version__}


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children reports the largest worker
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _run_cli(argv):
    """tamsde.cli.main(argv) with its output captured; (exit code, stderr).

    stdout is captured too, because this process's stdout carries replies.
    """
    from tamsde.cli import main
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def _job_record(request, run):
    """run(argv) for one job; its record with data-file hashes."""
    out = request["out"]
    record = run(request["argv"] + ["--out", out])
    record["hashes"] = file_hashes(out, request["data_files"])
    record["stderr_failures"] = stderr_failures(record.pop("stderr"))
    record["out_dir"] = out
    return record


def _measured(argv):
    # the reference kernel, timed on both sides of the job, gauges the
    # host's speed during it (reference.py)
    before = kernel_times()
    cpu0 = _cpu_seconds()
    t0 = perf_counter()
    code, err = _run_cli(argv)
    wall = perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    return {"code": code, "stderr": err, "wall_s": wall, "cpu_s": cpu,
            "kernel_s": gauge(before, kernel_times())}


def serve(mode, work_dir, requests, reply):
    """Answer each request; the final reply describes the whole pass."""
    versions = _import_tamsde()
    final = {"versions": versions}
    if mode == "measure":
        kernel_seconds()  # warm-up: numpy's first Philox set-up
        for request in requests:
            reply(_job_record(request, _measured))
    else:
        # tracing and layers import tamsde, so they load after it
        import layers
        from tracing import Tracer, summarize_job
        tracer = Tracer()

        def traced(argv):
            tracer.run += 1
            root = len(tracer.spans)
            with tracer, tracer.span("main"):
                code, err = _run_cli(argv)
            record = summarize_job(tracer.spans, root)
            record.update(code=code, stderr=err)
            return record

        for request in requests:
            if "probe" in request:
                metrics, counts = layers.probe(request["probe"])
                reply({"probe": metrics, "probe_counts": counts})
            else:
                reply(_job_record(request, traced))
        final["spans_file"] = os.path.join(work_dir, "spans.json")
        with open(final["spans_file"], "w") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
    final["peak_rss_mb"] = _peak_rss_mb()
    reply(final)


def main(argv):
    mode, work_dir = argv
    if mode not in ("measure", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    os.makedirs(work_dir, exist_ok=True)
    out = sys.stdout

    def reply(obj):
        out.write(json.dumps(obj) + "\n")
        out.flush()

    serve(mode, work_dir, (json.loads(line) for line in sys.stdin), reply)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
