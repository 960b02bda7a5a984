"""Write ``expected.json``: the reference the correctness gate compares with.

It records, from the code checked out at the time:

* the ordered check codes (``paper_item``) that ``run_pipeline`` emits for
  each scenario kind and command the workloads use;
* the scenario digest of every input of every workload at the default
  seed.

The file was recorded at the commit that introduced the benchmark. Do not
re-record it to make a later change pass: a change that alters the check
list or the generated inputs is a change of behaviour, not a speed-up.

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from gate import EXPECTED_PATH, item_key
from workloads import DEFAULT_SEED, WORKLOADS, build_inputs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    from dilatekit.pipeline import run_pipeline
    from dilatekit.scenario import scenario_from_dict

    items, digests, seen = {}, {}, set()
    for name, workload in WORKLOADS.items():
        inputs = build_inputs(name, DEFAULT_SEED)
        digests[name] = [i.digest for i in inputs]
        for entry, inp in zip(workload.entries, inputs):
            shape = (entry.kind, entry.command, repr(sorted(entry.params.items())))
            if shape in seen:
                continue
            seen.add(shape)
            report = run_pipeline(scenario_from_dict(json.loads(inp.text)),
                                  inp.command)
            if not report.passed:
                raise SystemExit(f"{name}: {shape} does not pass")
            codes = [c.paper_item for c in report.checks]
            key = item_key(entry.kind, entry.command)
            if items.setdefault(key, codes) != codes:
                raise SystemExit(f"{key}: check codes depend on parameters")
    EXPECTED_PATH.write_text(json.dumps(
        {"default_seed": DEFAULT_SEED, "paper_items": items, "digests": digests},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
