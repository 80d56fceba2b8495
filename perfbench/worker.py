"""One workload in a process of its own: set up, then measure passes.

Started by run.py, which times set-up from before this process starts.  The
last line of stdout is a JSON object: the monotonic clock when set-up ended
and, unless --setup-only, every pass with its operations' times and errors,
the peak resident set, and for traced passes the per-layer self times and
counts.
"""

import argparse
import gzip
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time


def run_pass(ops, tracer=None):
    from workloads import Mismatch

    if tracer is not None:
        tracer.install()
    results = []
    start = time.perf_counter_ns()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter_ns()
            try:
                op.call()
                error, mismatch = None, False
            except Exception as e:  # an operation's failure is counted, not fatal
                error = f"{type(e).__name__}: {e}"
                mismatch = isinstance(e, Mismatch)
            results.append([op.name, (time.perf_counter_ns() - t0) / 1e9, error, mismatch])
        end = time.perf_counter_ns()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"traced": tracer is not None, "wall": (end - start) / 1e9, "ops": results}, start, end


def measure(workload, seed, seconds, trace, spans_path):
    from tracing import COUNT_METRICS, Tracer, self_times

    ops = list(workload.ops)
    random.Random(seed).shuffle(ops)
    passes, last_spans = [], None
    begin = time.monotonic()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        result, start, end = run_pass(ops, tracer)
        if tracer is not None:
            ns = self_times(tracer.spans, start, end)
            result["self_s"] = {k: v / 1e9 for k, v in ns.items()}
            result["span_sum_s"] = sum(ns.values()) / 1e9
            result["counts"] = {k: tracer.counts[k] for k in COUNT_METRICS}
            last_spans = tracer.spans
        passes.append(result)
        if trace and len(passes) < 2:
            continue
        # stop before a further pass of the usual length would overrun the run
        elapsed = time.monotonic() - begin
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            break
    if last_spans is not None:
        with gzip.open(spans_path, "wt") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "ops": [op.name for op in ops], "spans": last_spans}, fh)
    return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--plant", action="store_true")
    ap.add_argument("--out", required=True, help="directory for work files and spans")
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    try:
        import workloads

        workload = workloads.build(args.workload, root, args.seed, workdir, args.plant)
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            import numpy

            spans_path = os.path.join(args.out, f"spans-{args.workload}-{args.seed}.json.gz")
            result["passes"] = measure(workload, args.seed, args.seconds, args.trace, spans_path)
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["runs"] = {op.name: op.runs for op in workload.ops}
            result["planted"] = workload.planted
            result["numpy"] = numpy.__version__
            if args.trace:
                result["spans"] = spans_path
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
