"""Machine-readable verification records.

Every verifier in the package emits a list of :class:`CheckRecord`; the
pipeline aggregates them into a :class:`Report`. The ``paper_item`` field
carries the stable short code of the law being tested (the codes are
documented in the README), so failures are identifiable without parsing
the human-readable name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List


@dataclass
class CheckRecord:
    name: str
    paper_item: str
    max_residual: float
    threshold: float
    passed: bool
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_item": self.paper_item,
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "pass": self.passed,
            "notes": self.notes,
        }


def check(name: str, paper_item: str, residual: float, threshold: float,
          notes: str = "") -> CheckRecord:
    """Record a residual-based check; passes iff residual <= threshold."""
    residual = float(residual)
    ok = math.isfinite(residual) and residual <= threshold
    return CheckRecord(name=name, paper_item=paper_item, max_residual=residual,
                       threshold=threshold, passed=ok, notes=notes)


def flag(name: str, paper_item: str, ok: bool, notes: str = "") -> CheckRecord:
    """Record a boolean check; the residual is 0 or inf by convention."""
    return CheckRecord(name=name, paper_item=paper_item,
                       max_residual=0.0 if ok else math.inf,
                       threshold=0.0, passed=bool(ok), notes=notes)


def failure(name: str, paper_item: str, residual: float, threshold: float,
            notes: str) -> CheckRecord:
    """Record a check whose object could not be built; it always fails. An
    unmeasured (infinite) residual gets threshold 0, as in :func:`flag`."""
    residual = float(residual)
    return CheckRecord(name=name, paper_item=paper_item, max_residual=residual,
                       threshold=threshold if math.isfinite(residual) else 0.0,
                       passed=False, notes=notes)


@dataclass
class Report:
    digest: str
    command: str
    checks: List[CheckRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "digest": self.digest,
            "command": self.command,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"scenario {self.digest[:16]}  command {self.command}"]
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = (f"  [{status}] {c.name.ljust(width)}  "
                    f"residual {c.max_residual:.3e} <= {c.threshold:.1e}  "
                    f"({c.paper_item})")
            if c.notes:
                line += f"  -- {c.notes}"
            lines.append(line)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall {verdict}  ({len(self.checks)} checks, "
                     f"{self.elapsed_seconds:.2f}s)")
        return "\n".join(lines)
