"""The pipeline builds each dilation once, verifies it once per run, and
keeps the record of every law it checked, failed or not."""

import dataclasses
import itertools
import math
from collections import Counter
from pathlib import Path

import pytest

from dilatekit import (algebra, banach, framing, hilbert, imprimitivity, linalg,
                       ovm, pipeline, scenario)
from dilatekit.pipeline import run_pipeline
from dilatekit.scenario import load_scenario

GOLDEN = Path(__file__).resolve().parents[1] / "scenarios"
MODULES = (algebra, banach, framing, hilbert, imprimitivity, linalg, ovm,
           pipeline, scenario)

# counted function -> the module that defines it; every module of the
# package that holds a binding to it is patched
COUNTED = {
    "build_minimal_dilation": banach,
    "verify_dilation": banach,
    "restrict_probability": banach,
    "build_hilbert_dilation": hilbert,
    "verify_hilbert_dilation": hilbert,
    "verify_framing": framing,
    "verify_basis_dilation": framing,
    "framing_ovm": ovm,
}

BANACH_CODES = ["dilation(dim)"] + [f"dilation({law})" for law in "abcdefgh"]
HILBERT_CODES = [f"hilbert({law})" for law in range(1, 8)]


def _count_calls(monkeypatch, scenario: str, command: str) -> Counter:
    calls = Counter()
    for name, home in COUNTED.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    report = run_pipeline(load_scenario(GOLDEN / scenario), command)
    assert report.passed
    return calls


@pytest.mark.parametrize("scenario,command,expected", [
    # one verification of the minimal dilation, one of the restriction
    ("z2_bessel.json", "all", {"build_minimal_dilation": 1,
                               "verify_dilation": 2,
                               "restrict_probability": 1,
                               "build_hilbert_dilation": 1,
                               "verify_hilbert_dilation": 1}),
    ("z2_framing_swap.json", "all", {"verify_dilation": 1,
                                     "restrict_probability": 0,
                                     "verify_hilbert_dilation": 0,
                                     "verify_framing": 1,
                                     "verify_basis_dilation": 1,
                                     "framing_ovm": 1}),
    ("z2_framing_swap.json", "dilate-framing", {"verify_framing": 1,
                                                "verify_basis_dilation": 1,
                                                "framing_ovm": 1}),
    ("z2_bessel.json", "dilate-banach", {"build_minimal_dilation": 1,
                                         "verify_dilation": 1}),
    ("z2_framing_swap.json", "validate", {"verify_framing": 1,
                                          "framing_ovm": 1}),
    ("z2_framing_swap.json", "dilate-banach", {"verify_dilation": 1,
                                               "framing_ovm": 1}),
    ("z2_framing_swap.json", "dilate-hilbert", {"verify_hilbert_dilation": 1,
                                                "framing_ovm": 1}),
])
def test_each_dilation_built_and_verified_once(monkeypatch, scenario, command,
                                               expected):
    calls = _count_calls(monkeypatch, scenario, command)
    assert {name: calls[name] for name in expected} == expected


def _double_q(ds):
    return dataclasses.replace(ds, Q=2.0 * ds.Q)


def _drop_rho_1(ds):
    rho_atoms = ds.rho_atoms.copy()
    rho_atoms[1] = 0.0
    return dataclasses.replace(ds, rho_atoms=rho_atoms)


@pytest.mark.parametrize("corrupt,failing", [
    # Q rho(E) T = 2 phi(E): only the factorization breaks
    (_double_q, {"dilation(a)": None}),
    # rho(Omega) misses block 1, so (e) is off by exactly 1
    (_drop_rho_1, {"dilation(a)": None, "dilation(e)": 1.0,
                   "dilation(g)": None}),
], ids=["Q doubled", "rho_1 zeroed"])
def test_corrupted_minimal_dilation_keeps_every_record(monkeypatch, corrupt,
                                                       failing):
    build = banach.build_minimal_dilation
    monkeypatch.setattr(banach, "build_minimal_dilation",
                        lambda *args: corrupt(build(*args)))
    report = run_pipeline(load_scenario(GOLDEN / "z2_bessel.json"),
                          "dilate-banach")
    records = [r for r in report.checks if r.paper_item.startswith("dilation")]
    assert [r.paper_item for r in records] == BANACH_CODES
    assert {r.paper_item for r in records if not r.passed} == set(failing)
    for r in records:
        assert math.isfinite(r.max_residual)
        if failing.get(r.paper_item) is not None:
            assert r.max_residual == failing[r.paper_item]


def test_non_unitary_lift_keeps_every_record(monkeypatch):
    # atom 1's eigenvalues read doubled: U~ stretches block 0 -> 1 by sqrt 2
    eig = hilbert.hermitian_eig
    atom = itertools.count()

    def skewed(a, tol):
        evals, evecs = eig(a, tol)
        return (2.0 * evals if next(atom) == 1 else evals), evecs

    monkeypatch.setattr(hilbert, "hermitian_eig", skewed)
    report = run_pipeline(load_scenario(GOLDEN / "z2_bessel.json"),
                          "dilate-hilbert")
    by_code = {r.paper_item: r for r in report.checks}
    assert [r.paper_item for r in report.checks] == HILBERT_CODES
    assert not by_code["hilbert(2)"].passed
    assert by_code["hilbert(2)"].max_residual == pytest.approx(1.0)


def test_failure_record_keeps_the_measured_residual():
    # dilate-banach z3_regular_bessel.json --eps 1e-17: V_s leaves the
    # dilation space by float rounding, above the absurd tolerance
    report = run_pipeline(load_scenario(GOLDEN / "z3_regular_bessel.json"),
                          "dilate-banach", eps=1e-17)
    [record] = [r for r in report.checks if not r.passed]
    assert record.paper_item == "dilation.closure"
    assert 1e-17 < record.max_residual < 1e-14
    assert f"residual {record.max_residual:.3e}" in record.notes
