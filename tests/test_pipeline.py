"""The pipeline builds each dilation once and verifies it once per run."""

from collections import Counter
from pathlib import Path

import pytest

from dilatekit import banach, framing, hilbert, pipeline
from dilatekit.pipeline import run_pipeline
from dilatekit.scenario import load_scenario

GOLDEN = Path(__file__).resolve().parents[1] / "scenarios"

# every binding the pipeline reaches these functions through
BINDINGS = {
    "build_minimal_dilation": (banach,),
    "verify_dilation": (banach,),
    "build_hilbert_dilation": (hilbert,),
    "verify_framing": (framing, pipeline),
}


def _count_calls(monkeypatch, scenario: str, command: str) -> Counter:
    calls = Counter()
    for name, modules in BINDINGS.items():
        original = getattr(modules[0], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
    report = run_pipeline(load_scenario(GOLDEN / scenario), command)
    assert report.passed
    return calls


@pytest.mark.parametrize("scenario,command,expected", [
    # one verification inside the build, one of the restriction
    ("z2_bessel.json", "all", {"build_minimal_dilation": 1,
                               "verify_dilation": 2,
                               "build_hilbert_dilation": 1}),
    ("z2_framing_swap.json", "all", {"verify_dilation": 1,
                                     "verify_framing": 1}),
    ("z2_framing_swap.json", "dilate-framing", {"verify_framing": 1}),
])
def test_each_dilation_built_and_verified_once(monkeypatch, scenario, command,
                                               expected):
    calls = _count_calls(monkeypatch, scenario, command)
    assert {name: calls[name] for name in expected} == expected
