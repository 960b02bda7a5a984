"""Report-equality sweep: every report of the benchmark inputs and of the
golden scenarios, as sorted-key JSON without ``elapsed_seconds``.

    python3 tests/report_sweep.py --seeds 1-10 > after.jsonl
    python3 tests/report_sweep.py --root ../parent --seeds 1-10 > before.jsonl
    cmp before.jsonl after.jsonl
    python3 tests/report_sweep.py --workloads positive-chain --seeds 1-1000 \
        --no-golden --gate

Each output line is one report, keyed by where its input came from:

* every distinct input of each workload at each seed, as
  ``perfbench/workloads.build_inputs`` generates it, with its command;
* every golden scenario under ``scenarios/`` with every pipeline command,
  at the scenario's own eps and at ``1e-13``. A command that rejects its
  input writes the error instead of a report.

With ``--gate`` it writes nothing but one line per workload input that
fails the benchmark's correctness gate (``perfbench/gate.py``), then the
count. ``--root`` selects the checkout whose ``src/`` and ``perfbench/``
are imported, so that two revisions can be compared. The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

GOLDEN_EPS = (None, 1e-13)


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def timeless(report) -> str:
    out = report.to_dict()
    out.pop("elapsed_seconds")
    return json.dumps(out, sort_keys=True)


def workload_reports(names, seeds, run_pipeline, scenario_from_dict):
    """(key, input, report) for every distinct input, in workload order."""
    from workloads import build_inputs

    seen = set()
    for name in names:
        for seed in seeds:
            for index, inp in enumerate(build_inputs(name, seed)):
                if (inp.digest, inp.command) in seen:
                    continue
                seen.add((inp.digest, inp.command))
                sc = scenario_from_dict(json.loads(inp.text))
                yield (f"{name}/{seed}/{index}", inp,
                       run_pipeline(sc, inp.command))


def main() -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=here,
                    help="checkout to import src/ and perfbench/ from")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-2"),
                    help="benchmark seeds, N or LO-HI (default 1-2)")
    ap.add_argument("--workloads", default="",
                    help="comma-separated workload names (default: all)")
    ap.add_argument("--no-golden", action="store_true",
                    help="skip the golden scenarios")
    ap.add_argument("--gate", action="store_true",
                    help="print only the inputs that fail the gate")
    args = ap.parse_args()
    # one BLAS thread, as the benchmark's workers run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    from dilatekit.pipeline import COMMANDS, INPUT_ERRORS, run_pipeline
    from dilatekit.scenario import load_scenario, scenario_from_dict
    from gate import gate, item_key, load_expected
    from workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    reports = workload_reports(names, args.seeds, run_pipeline,
                               scenario_from_dict)
    if args.gate:
        expected = load_expected()["paper_items"]
        failed = 0
        for key, inp, report in reports:
            why = gate(report.to_dict(), expected[item_key(inp.kind, inp.command)],
                       inp.digest)
            if why is not None:
                failed += 1
                bad = [c.paper_item for c in report.checks if not c.passed]
                print(f"{key} {inp.kind} gen seed {inp.gen_seed}: {why}; "
                      f"failed {bad}")
        print(f"{failed} failing inputs")
        return 0

    for key, _, report in reports:
        print(key, timeless(report))
    if args.no_golden:
        return 0
    for path in sorted((root / "scenarios").glob("*.json")):
        sc = load_scenario(path)
        for command in COMMANDS:
            for eps in GOLDEN_EPS:
                key = f"golden/{path.name}/{command}/{eps}"
                try:
                    print(key, timeless(run_pipeline(sc, command, eps=eps)))
                except INPUT_ERRORS as exc:
                    print(key, f"{type(exc).__name__}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
