"""Verifier benchmark: time to verdict on four protocol workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --selfcheck [--workload NAME] --seed N

Run from the root of a checkout.  Each workload runs in its own
single-threaded process (perfbench/worker.py) through overture's public
entry points; set-up is timed in further fresh processes.  With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics
(setup_s, verify_s, peak_rss_mb); with --trace 1, untraced and traced passes
alternate and it holds the per-layer self times and counts instead.  The
line before it is the run record: environment and, per operation, its runs,
median time and failures.  --selfcheck gives one operation per workload a
wrong expectation and shows that the run counts it as failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import COUNT_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("beaver-passive", "beaver-malicious", "package-sweep", "gmw-wide")
# Set-up-only processes, half before and half after the measuring process
# (itself one more sample), so that the median spans the run.
SETUP_SAMPLES = 6
TIME_LIMIT = 170       # seconds for one whole invocation

END_TO_END = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env(seed):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # str hashes follow the seed, so a seed's counts repeat exactly
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(workload, seed, deadline, *extra):
    """Run worker.py to its end; its result, with setup_s measured from
    before the process started."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", OUT, *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(seed), capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def op_record(result):
    """Per operation: runs in one enumeration, median seconds, failures."""
    by_name = {}
    for p in result["passes"]:
        for name, secs, error, _ in p["ops"]:
            rec = by_name.setdefault(name, {"op": name, "runs": result["runs"][name],
                                            "times": [], "failed": 0, "error": None})
            if not p["traced"]:
                rec["times"].append(secs)
            if error:
                rec["failed"] += 1
                rec["error"] = rec["error"] or error
    for rec in by_name.values():
        times = rec.pop("times")
        rec["median_s"] = statistics.median(times) if times else None
    return list(by_name.values())


def run_workload(workload, seed, seconds, trace, deadline):
    def setup_samples(n):
        return [worker(workload, seed, deadline, "--setup-only")["setup_s"] for _ in range(n)]

    samples = 0 if trace else SETUP_SAMPLES // 2
    setups = setup_samples(samples)
    result = worker(workload, seed, deadline, "--seconds", str(seconds), "--trace", str(trace))
    setups += [result["setup_s"]] + setup_samples(samples)
    passes = result["passes"]
    ops = [op for p in passes for op in p["ops"]]
    untraced = [p["wall"] for p in passes if not p["traced"]]
    summary = {
        "correct": not any(mismatch for _, _, _, mismatch in ops),
        "attempted": len(ops),
        "failed": sum(1 for _, _, error, _ in ops if error),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": result["numpy"], "commit": commit(),
        "passes": len(passes), "pass_s": [p["wall"] for p in passes],
        "setup_samples_s": setups, "operations": op_record(result),
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "verify_s": statistics.median(untraced),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        metrics, record["counts_repeat"] = layer_metrics(passes, untraced)
        record["spans"] = os.path.relpath(result["spans"], ROOT)
        traced = [p for p in passes if p["traced"]]
        record["span_sum_vs_wall_s"] = [[p["span_sum_s"], p["wall"]] for p in traced]
    return summary, metrics, record


def layer_metrics(passes, untraced):
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    for name in traced[0]["self_s"]:
        metrics[name] = {"value": statistics.median(p["self_s"][name] for p in traced),
                         "unit": "s"}
    counts = traced[0]["counts"]
    repeat = all(p["counts"] == counts for p in traced)
    if not repeat:
        print("warning: counts differ between traced passes", file=sys.stderr)
    for name in COUNT_METRICS:
        metrics[name] = {"value": counts[name], "unit": "count"}
    t_traced = statistics.median(p["wall"] for p in traced)
    t_plain = statistics.median(untraced)
    metrics["trace.traced_verify_s"] = {"value": t_traced, "unit": "s"}
    metrics["trace.untraced_verify_s"] = {"value": t_plain, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": t_traced - t_plain, "unit": "s"}
    return metrics, repeat


def selfcheck(names, seed, deadline):
    ok = True
    for name in names:
        result = worker(name, seed, deadline, "--seconds", "0", "--plant")
        failed = [(op, error) for p in result["passes"] for op, _, error, mismatch in p["ops"]
                  if error]
        mismatches = [op for p in result["passes"] for op, _, _, mismatch in p["ops"] if mismatch]
        good = [op for op, _ in failed] == [result["planted"]] == mismatches
        ok &= good
        print(f"{name}: planted a wrong expectation in {result['planted']}; "
              f"failed operations: {failed} -> {'caught' if good else 'NOT CAUGHT'}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not (os.path.isfile(os.path.join(ROOT, "src", "overture", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "protocols", "manifest.txt"))):
        print(f"error: no overture sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.selfcheck:
            return selfcheck(names, args.seed, deadline + TIME_LIMIT * (len(names) - 1))
        if args.workload != "all":
            summary, metrics, record = run_workload(args.workload, args.seed, args.seconds,
                                                       args.trace, deadline)
            print(json.dumps({"record": record}))
            print(json.dumps({**summary, "metrics": metrics}))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0}
        every = {}
        for name in names:
            summary, metrics, _ = run_workload(name, args.seed, args.seconds, args.trace,
                                                  time.monotonic() + TIME_LIMIT)
            total["correct"] &= summary["correct"]
            total["attempted"] += summary["attempted"]
            total["failed"] += summary["failed"]
            shown = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in metrics.items())
            print(f"{name}: {shown}  attempted={summary['attempted']} failed={summary['failed']}")
            every.update({f"{name}/{k}": m for k, m in metrics.items()})
        print(json.dumps({**total, "metrics": every}))
        return 0
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
