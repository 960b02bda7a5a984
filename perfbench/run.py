"""dilatekit benchmark: time to a verified report.

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload bessel-all --seed 2 --seconds 25
    python3 perfbench/run.py --workload small-batch --trace 1

Each workload runs in worker processes of its own (``worker.py``) under an
address-space limit, with a timeout, and with BLAS limited to one thread.
Set-up is measured ``SETUP_RUNS`` times, each in a fresh process, from
process start to the point where the first report could start; the
middle one of those processes runs the reports in a closed loop with one
client. Every report passes the correctness gate (``gate.py``) or counts
as failed; so does a report cut off by a crash, a timeout or a memory
error.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
Their timings are given at the speed of a reference machine: every worker
also times a fixed calibration kernel (``worker.calibrate``), and each
timing is divided by the kernel's median time over ``CALIBRATION_REF_S``.
On a shared machine whose speed drifts by tens of percent over minutes,
this keeps runs comparable; the wall-clock values are in the detail line.
With ``--trace 1`` the worker runs every other round traced, and the
metrics are the per-layer ones: per report, the calls, self time and work
counts of each traced function, plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and a JSON record of the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, MAX_AS_MB, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
DEADLINE_S = 170.0  # per workload, for every process it starts
TAIL_BEYOND = 10
# Median time of the worker's calibration kernel on the reference machine
# (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one OpenBLAS thread).
# Timings are reported at that speed: each is scaled by this value over
# the kernel's median time in the same worker.
CALIBRATION_REF_S = 0.006

UNITS = {"report_s_p50": "s", "report_s_tail": "s", "reports_per_s": "1/s",
         "peak_rss_mb": "MB", "setup_s": "s"}


def spawn(workload, seed, seconds, mode, timeout):
    """Run one worker; returns (events, returncode, timed_out, spawn time)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--max-mb", str(MAX_AS_MB)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    if err:
        sys.stderr.write(err)
    events = []
    for line in out.splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:  # a line cut off by a kill
            pass
    return events, proc.returncode, timed_out, t_spawn


def tail(samples):
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it:
    (value, percentile). With too few samples, the maximum and 100."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND  # samples at or below the tail value
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def summarize(events, returncode, timed_out):
    """Count attempts and failures; a worker that did not finish cleanly
    leaves one report unfinished, which counts as failed."""
    reports = [e for e in events if e.get("ev") == "report"]
    done = next((e for e in events if e.get("ev") == "done"), None)
    attempted = len(reports)
    failed = sum(not r["ok"] for r in reports)
    if done is None or returncode != 0 or timed_out:
        attempted += 1
        failed += 1
    return {"attempted": attempted, "failed": failed, "reports": reports,
            "cal": [e["s"] for e in events if e.get("ev") == "cal"],
            "done": done or {}}


def end_to_end(summary, setups):
    """End-to-end metrics at the reference speed. ``setups`` holds one
    (set-up seconds, calibration seconds) pair per worker; the detail
    carries the wall-clock values and the slowdown they were divided by."""
    slowdown = statistics.median(summary["cal"]) / CALIBRATION_REF_S
    times = [r["s"] for r in summary["reports"]]
    tail_s, pct = tail(times)
    wall = {
        "report_s_p50": statistics.median(times),
        "report_s_tail": tail_s,
        "reports_per_s": len(times) / summary["done"]["loop_s"],
        "setup_s": statistics.median(s for s, _ in setups),
    }
    metrics = {
        "report_s_p50": wall["report_s_p50"] / slowdown,
        "report_s_tail": tail_s / slowdown,
        "reports_per_s": wall["reports_per_s"] * slowdown,
        "peak_rss_mb": summary["done"]["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(s * CALIBRATION_REF_S / c
                                     for s, c in setups),
    }
    extra = {"samples": len(times), "tail_percentile": pct,
             "slowdown": slowdown, "wall_clock": wall, "setup_samples": setups}
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, extra


def per_layer(summary):
    split = {True: [], False: []}
    for r in summary["reports"]:
        split[r["traced"]].append(r["s"])
    traced = statistics.median(split[True])
    metrics = dict(summary["done"]["layers"])
    metrics["tracing.report_s_p50"] = traced
    metrics["tracing.overhead_s"] = traced - statistics.median(split[False])
    extra = {"samples_untraced": len(split[False]),
             "samples_traced": len(split[True]),
             "spans": summary["done"].get("spans")}
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}, extra


def layer_unit(name):
    return "s" if name.endswith("_s") or name.endswith("_p50") else "count"


def setup_times(name, seed, count, deadline):
    """(set-up seconds, calibration seconds) of ``count`` fresh workers, or
    None if one fails."""
    out = []
    for _ in range(count):
        events, code, timed_out, t_spawn = spawn(
            name, seed, 0, "setup", deadline - time.monotonic())
        ready = next((e for e in events if e.get("ev") == "ready"), None)
        cal = next((e for e in events if e.get("ev") == "cal"), None)
        if ready is None or cal is None or code != 0 or timed_out:
            return None
        out.append((ready["t"] - t_spawn, cal["s"]))
    return out


def run_workload(name, seed, seconds, trace):
    """Returns (result, extra); result is None when no report finished."""
    deadline = time.monotonic() + DEADLINE_S
    # set-up runs before and after the reports, so they see more than one
    # stretch of the machine's background load
    before = [] if trace else setup_times(name, seed, SETUP_RUNS // 2, deadline)
    if before is None:
        return None, {"error": "set-up failed"}

    events, code, timed_out, t_spawn = spawn(
        name, seed, seconds, "trace" if trace else "run",
        deadline - time.monotonic())
    summary = summarize(events, code, timed_out)
    ready = next((e for e in events if e.get("ev") == "ready"), None)
    if ready is None or not summary["reports"]:
        return None, {"error": "no report finished", "returncode": code,
                      "timed_out": timed_out}
    if not summary["done"]:  # a worker cut off leaves no comparable metrics
        metrics, extra = {}, {}
    elif trace:
        metrics, extra = per_layer(summary)
    else:
        after = setup_times(name, seed, SETUP_RUNS - 1 - len(before), deadline)
        if after is None:
            return None, {"error": "set-up failed"}
        main_setup = (ready["t"] - t_spawn, summary["cal"][0])
        metrics, extra = end_to_end(summary, before + [main_setup] + after)
    extra.update({
        "attempted": summary["attempted"], "failed": summary["failed"],
        "failed_frac": summary["failed"] / summary["attempted"],
        "failures": sorted({r["why"] for r in summary["reports"] if r["why"]}),
        "input_digests": ready["digests"],
        **{k: v for k, v in summary["done"].items()
           if k in ("dilatekit", "numpy", "blas", "blas_version", "blas_threads")},
    })
    result = {"correct": summary["failed"] == 0,
              "attempted": summary["attempted"], "failed": summary["failed"],
              "metrics": metrics}
    return result, extra


def provenance(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dilatekit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "git_commit": commit, "src_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    choices=["all"] + sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dilatekit" / "__init__.py").is_file():
        print(f"no dilatekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    results = {}
    for name in names:
        result, extra = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        print(json.dumps({"workload": name, "provenance": prov, **extra}))
        if result is None:
            print(f"{name}: {extra['error']}", file=sys.stderr)
            return 1
        for metric, m in result["metrics"].items():
            note = (f"  (p{extra['tail_percentile']:.0f} of {extra['samples']} reports)"
                    if metric == "report_s_tail" else "")
            print(f"{name:15s} {metric:48s} {m['value']:.6g} {m['unit']}{note}")
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
