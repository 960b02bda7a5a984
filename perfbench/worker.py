"""Benchmark worker: runs one workload in its own process.

``run.py`` starts this script; it is not meant to be run by hand. The
worker limits its own address space, imports dilatekit from the
checkout's ``src/``, generates the workload's inputs (the set-up), and
then runs reports in a closed loop with one client along the path the
CLI takes: scenario JSON text -> ``scenario_from_dict`` ->
``run_pipeline`` -> ``Report.to_json``. It stops once ``--seconds`` have
passed and a whole round of the workload is done.

It writes one JSON object per line to stdout: ``ready`` when set-up is
done, ``cal`` with the time of the calibration kernel after set-up and
every ``CALIBRATE_EVERY_S`` between reports, one ``report`` per report as
it finishes, and ``done`` at the end.
Mode ``setup`` stops after ``ready``. Mode ``trace`` runs every other
round traced.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from gate import gate, item_key, load_expected
from tracing import Tracer
from workloads import WORKLOADS, build_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
# The calibration kernel runs before the next report once this much time
# has passed since it last ran.
CALIBRATE_EVERY_S = 0.25


def emit(**event) -> None:
    print(json.dumps(event), flush=True)


def blas_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        name = version = None
    threads = None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"numpy": numpy.__version__, "blas": name, "blas_version": version,
            "blas_threads": threads}


def calibrate(repeats: int) -> float:
    """Median time of a fixed calibration kernel over ``repeats`` runs.

    The kernel mixes interpreter loops, elementwise numpy and small matrix
    products, like dilatekit does, but runs no dilatekit code, so a change
    to the program cannot change it. Its time follows the speed the
    machine has at the moment, which on a shared machine drifts by tens of
    percent over minutes; ``run.py`` divides the timings by it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 32, 6)) + 1j * rng.standard_normal((64, 32, 6))
    m0 = rng.standard_normal((12, 12)) + 0j
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(10):
            np.abs(a * a + a).sum(axis=-1)
        m = m0
        for _ in range(300):
            m = m @ m0
            m /= np.abs(m).max()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Loop:
    """Closed loop over the workload's inputs, one report at a time."""

    def __init__(self, workload: str, seed: int):
        import dilatekit.pipeline
        import dilatekit.scenario

        # looked up per call, so patched bindings take effect
        self._scenario = dilatekit.scenario
        self._pipeline = dilatekit.pipeline
        self.inputs = build_inputs(workload, seed)
        self.round_len = WORKLOADS[workload].round_len
        expected = load_expected()
        self.items = [expected["paper_items"][item_key(i.kind, i.command)]
                      for i in self.inputs]
        # For the default seed the inputs themselves are pinned, so a change
        # to the generators fails the gate instead of passing as a speed-up.
        self.recorded = (expected["digests"][workload]
                         if seed == expected["default_seed"] else None)
        self.next = 0
        self.calibration_s = 0.0  # wall time spent calibrating
        self.last_calibration = -math.inf

    def _report(self, text: str, command: str) -> str:
        sc = self._scenario.scenario_from_dict(json.loads(text))
        return self._pipeline.run_pipeline(sc, command).to_json()

    def run(self, seconds: float, tracer=None) -> int:
        """Run whole rounds until ``seconds`` have passed. With a tracer,
        every other round runs traced, so traced and untraced reports see
        the same stretch of the machine's load. Returns the number of
        traced reports."""
        start = time.perf_counter()
        traced = 0
        while True:
            on = tracer is not None and (self.next // self.round_len) % 2 == 1
            if on:
                tracer.install()
            try:
                for _ in range(self.round_len):
                    self._one(tracer if on else None)
            finally:
                if on:
                    tracer.uninstall()
            traced += self.round_len if on else 0
            if (time.perf_counter() - start >= seconds
                    and (tracer is None or traced)):
                return traced

    def _one(self, tracer) -> None:
        now = time.perf_counter()
        if now - self.last_calibration >= CALIBRATE_EVERY_S:
            emit(ev="cal", s=calibrate(1))
            self.last_calibration = time.perf_counter()
            self.calibration_s += self.last_calibration - now
        j = self.next % len(self.inputs)
        inp = self.inputs[j]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self._report(inp.text, inp.command)
            else:
                with tracer.span("report"):
                    out = self._report(inp.text, inp.command)
            elapsed = time.perf_counter() - t0
            why = gate(json.loads(out), self.items[j], inp.digest)
        except Exception as exc:  # a failed report must not end the run
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            why = f"raised {type(exc).__name__}: {exc}"
        if why is None and self.recorded and inp.digest != self.recorded[j]:
            why = "input digest differs from the recorded one"
        emit(ev="report", i=self.next, s=elapsed, ok=why is None, why=why,
             traced=tracer is not None)
        self.next += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--max-mb", type=int, required=True)
    args = ap.parse_args(argv)

    limit = args.max_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    sys.path.insert(0, str(SRC))
    import dilatekit

    imported = Path(dilatekit.__file__).resolve().parent
    if imported != (SRC / "dilatekit").resolve():
        print(f"imported dilatekit from {imported}, not from {SRC}",
              file=sys.stderr)
        return 3

    loop = Loop(args.workload, args.seed)
    emit(ev="ready", t=time.monotonic(),
         digests=[i.digest for i in loop.inputs])
    if args.mode == "setup":
        emit(ev="cal", s=calibrate(5))
        return 0

    done = {"dilatekit": str(imported), **blas_info()}
    if args.mode == "run":
        start = time.perf_counter()
        loop.run(args.seconds)
        done["loop_s"] = time.perf_counter() - start - loop.calibration_s
    else:
        tracer = Tracer()
        done["layers"] = tracer.per_report(loop.run(args.seconds, tracer))
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        done["spans"] = str(spans.relative_to(ROOT))
    done["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(ev="done", **done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
