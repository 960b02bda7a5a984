"""Correctness gate applied to every benchmark report.

A report counts as correct only if its verdict is pass, it describes the
input it was given, it carries exactly the ordered list of check codes
the reference commit emits for that scenario kind and command, and every
residual is within its threshold. Residual values themselves are not
compared: a later change may replace them with certified upper bounds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def item_key(kind: str, command: str) -> str:
    return f"{kind}/{command}"


def gate(report: dict, expected_items: list, digest: str) -> Optional[str]:
    """Return None for a correct report, else the first reason it is not."""
    if report.get("pass") is not True:
        return "verdict is not pass"
    if report.get("digest") != digest:
        return "report digest differs from the input's scenario digest"
    checks = report.get("checks", [])
    items = [c.get("paper_item") for c in checks]
    if items != expected_items:
        return f"check codes {items} differ from the recorded {expected_items}"
    for c in checks:
        if c.get("pass") is not True:
            return f"check {c.get('paper_item')} failed"
        resid, thresh = c.get("max_residual"), c.get("threshold")
        if not (isinstance(resid, (int, float)) and isinstance(thresh, (int, float))
                and math.isfinite(resid) and resid <= thresh):
            return f"check {c.get('paper_item')} residual {resid} over {thresh}"
    return None
