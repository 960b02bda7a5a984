"""Reports on the golden scenarios match the committed fixture exactly.

``tests/golden_reports.json`` holds one report per golden scenario and
pipeline command, as ``Report.to_dict()`` without ``elapsed_seconds``,
or the input error the command raises on that payload.
Any change to a check code, verdict, residual or note shows up here as a
diff of that file. Regenerate it with
``PYTHONPATH=src python tests/test_golden_reports.py``
and review the diff before committing it.

The README check-code table must list every code those reports carry and
every code a package error records when it ends a stage.
"""

import json
import re
from pathlib import Path

import pytest

from dilatekit import errors
from dilatekit.pipeline import COMMANDS, INPUT_ERRORS, run_pipeline
from dilatekit.scenario import load_scenario

GOLDEN = Path(__file__).resolve().parents[1] / "scenarios"
FIXTURE = Path(__file__).resolve().parent / "golden_reports.json"
README = Path(__file__).resolve().parents[1] / "README.md"
CASES = [(path.name, command) for path in sorted(GOLDEN.glob("*.json"))
         for command in COMMANDS]


def report_dict(scenario: str, command: str) -> dict:
    try:
        report = run_pipeline(load_scenario(GOLDEN / scenario), command)
    except INPUT_ERRORS as exc:
        return {"input_error": f"{type(exc).__name__}: {exc}"}
    out = report.to_dict()
    out.pop("elapsed_seconds")
    return out


def _key(scenario: str, command: str) -> str:
    return f"{scenario} {command}"


def test_fixture_covers_every_golden_and_command():
    expected = json.loads(FIXTURE.read_text())
    assert sorted(expected) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("scenario,command", CASES)
def test_report_matches_fixture(scenario, command):
    expected = json.loads(FIXTURE.read_text())[_key(scenario, command)]
    actual = report_dict(scenario, command)
    assert (json.dumps(actual, sort_keys=True)
            == json.dumps(expected, sort_keys=True))


def _readme_codes() -> list:
    """(first, last) per code of the README check-code table: last is ''
    for a single code, and first ends in '*' for a family."""
    table = README.read_text().split("Check codes:\n\n")[1].split("\n\n")[0]
    rows = table.splitlines()[2:]
    return [code for row in rows
            for code in re.findall(r"`([^`]+)`(?:\.\.`([^`]+)`)?",
                                   row.split("|")[1])]


def _listed(code: str, table: list) -> bool:
    # a range's ends share their family prefix, so every code between them
    # in string order has it too
    return any(code.startswith(first[:-1]) if first.endswith("*")
               else first <= code <= (last or first) for first, last in table)


def test_readme_lists_every_check_code():
    table = _readme_codes()
    raised = {cls.failed_check[1] for cls in vars(errors).values()
              if isinstance(cls, type) and issubclass(cls, errors.DilationError)}
    reported = {check["paper_item"]
                for report in json.loads(FIXTURE.read_text()).values()
                for check in report.get("checks", [])}
    assert {"dilation.closure", "pipeline.error", "basis(d1)"} <= raised | reported
    assert sorted(c for c in raised | reported if not _listed(c, table)) == []
    assert not _listed("dilation.identities", table)


if __name__ == "__main__":
    reports = {_key(*case): report_dict(*case) for case in CASES}
    FIXTURE.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
