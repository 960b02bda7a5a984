"""The pipeline builds each dilation once, verifies it once per run, and
keeps the record of every law it checked, failed or not; a corrupted
input fails exactly the laws that read it."""

import dataclasses
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dilatekit import (algebra, banach, framing, hilbert, imprimitivity, linalg,
                       ovm, pipeline, scenario)
from dilatekit.linalg import max_abs
from dilatekit.pipeline import run_pipeline
from dilatekit.report import failure
from dilatekit.scenario import gen_example, load_scenario, scenario_from_dict

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
    # one verification of the minimal dilation, one of the Hilbert dilation,
    # whose pi(Omega) is I exactly, so it is not restricted
    ("z2_bessel.json", "all", {"build_minimal_dilation": 1,
                               "verify_dilation": 2,
                               "restrict_probability": 0,
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


CHAIN_CODES = (["restriction(probability)", "restriction(Q-range)"]
               + [f"induced({law})" for law in range(5)] + ["minimality"])


def test_chain_names_the_failed_laws_it_rests_on():
    # at eps 1e-15 rounding fails dilation(a) and four hilbert laws; every
    # record of the induced-norm chain built on those dilations says so
    sc = gen_example("positive-random", {"m": 5, "d": 3}, 2)
    report = run_pipeline(sc, "all", eps=1e-15)
    after = ("after failed dilation(a), hilbert(1), hilbert(2), hilbert(3), "
             "hilbert(5)")
    chain = [r for r in report.checks if r.paper_item in CHAIN_CODES]
    assert [r.paper_item for r in chain] == CHAIN_CODES
    assert all(r.notes.endswith(after) for r in chain)
    assert not any("after failed" in r.notes for r in report.checks
                   if r.paper_item not in CHAIN_CODES)


def test_failure_record_keeps_the_measured_residual():
    # dilate-banach z3_regular_bessel.json --eps 1e-17: V_s leaves the
    # dilation space by float rounding, above the absurd tolerance
    report = run_pipeline(load_scenario(GOLDEN / "z3_regular_bessel.json"),
                          "dilate-banach", eps=1e-17)
    [record] = [r for r in report.checks if not r.passed]
    assert record.paper_item == "dilation.closure"
    assert 1e-17 < record.max_residual < 1e-14
    assert f"residual {record.max_residual:.3e}" in record.notes


def test_failure_record_carries_its_threshold():
    # ClosureViolation compared 1.24e-16 against eps_residual = 1e-17
    report = run_pipeline(load_scenario(GOLDEN / "z3_regular_bessel.json"),
                          "dilate-banach", eps=1e-17)
    [record] = [r for r in report.checks if not r.passed]
    assert record.paper_item == "dilation.closure"
    assert record.threshold == 1e-17
    assert failure("n", "c", math.inf, 1e-9, "unmeasured").threshold == 0.0


# -- fault rows: one corrupted input per law, and the exact codes that fail --

DELTA = 1e-6


def _wrap(monkeypatch, module, name, call):
    """Route the pipeline's calls of module.name through
    call(original, *args, **kwargs)."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: call(original, *args, **kwargs))


def _noise(shape):
    rng = np.random.default_rng(0)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _bumped(obj, field):
    """obj with DELTA times fixed complex noise added to one field."""
    value = getattr(obj, field)
    return dataclasses.replace(obj, **{field: value + DELTA * _noise(value.shape)})


def _scaled(obj, field):
    return dataclasses.replace(obj, **{field: (1 + DELTA) * getattr(obj, field)})


def _shrunk(obj, field):
    return dataclasses.replace(obj, **{field: (1 - DELTA) * getattr(obj, field)})


def _traded(obj, field):
    """obj whose first two atoms in ``field`` trade DELTA diag(1, -1): their
    sum is unchanged, and so is covariance under a swap of the atoms."""
    value = np.array(getattr(obj, field), copy=True)
    trade = DELTA * np.diag([1.0, -1.0] + [0.0] * (value.shape[1] - 2))
    value[0] += trade
    value[1] -= trade
    return dataclasses.replace(obj, **{field: value})


def _built(field, corrupt):
    """Corrupt one field of what a builder returns."""
    return lambda original, *args: corrupt(original(*args), field)


def _induced(corrupt_target, corrupt_minimal):
    """Corrupt what induced_norm_from_injective is handed, nothing else."""
    def call(original, ds, system, tol, minimal):
        return original(corrupt_target(ds), system, tol,
                        minimal=corrupt_minimal(minimal))
    return call


def _keep(obj):
    return obj


def _kernel_push(original, ds, system, tol, minimal):
    # T of the target gains a component on ker phi({0}): the generator
    # images of atom 0 leave the span that R can factor. The rank test is
    # relative (eps_rank) and induced(0) absolute (eps_residual); with the
    # default eps_rank any push above eps_residual at this scale is caught
    # first as induced.injective, so this call widens eps_rank to let the
    # push through to induced(0).
    block = minimal.carrier.blocks[0]
    off_range = np.eye(block.shape[0]) - block @ block.conj().T
    push = ds.rho_atoms[0] @ _noise(ds.T.shape) @ off_range
    return original(dataclasses.replace(ds, T=ds.T + DELTA * push), system,
                    dataclasses.replace(tol, eps_rank=1e-6), minimal=minimal)


def _negated(obj):
    """obj with its multiplier negated."""
    return dataclasses.replace(obj, multiplier=dataclasses.replace(
        obj.multiplier, omega=-obj.multiplier.omega))


def _negated_multiplier(original, *args):
    return _negated(original(*args))


def _negated_framing_multiplier(original, db, fs, tol):
    return original(db, dataclasses.replace(fs, theta=_negated(fs.theta)), tol)


def _turned(obj, field):
    """obj with entry 1 of ``field`` turned by the phase 1j."""
    value = np.array(getattr(obj, field), copy=True)
    value[1] *= 1j
    return dataclasses.replace(obj, **{field: value})


def _first_q_column(original, minimal, system, tol):
    return original(dataclasses.replace(minimal, Q=minimal.Q[:, :1]), system,
                    tol)


def _shrunk_R(original, *args, **kwargs):
    # only minimality reads R after induced(*) were checked with it
    induced = original(*args, **kwargs)
    induced.R = 0.99 * induced.R
    return induced


FAULT_ROWS = {
    # Q rho(E) T = (1 + DELTA) phi(E); (c) is linear in T and still holds
    "dilation(a)": ("dilate-banach", banach, "build_minimal_dilation",
                    _built("T", _scaled), {"dilation(a)"}),
    # rho's atoms stop being idempotent, with rho(Omega) and covariance kept;
    # Q and T are invertible here (r = d = 2), so (a) fails with (d)
    "dilation(d)": ("dilate-banach", banach, "build_minimal_dilation",
                    _built("rho_atoms", _traded),
                    {"dilation(a)", "dilation(d)"}),
    # noise on every rho atom also breaks (a), (d) and (e), which read rho
    "dilation(g)": ("dilate-banach", banach, "build_minimal_dilation",
                    _built("rho_atoms", _bumped),
                    {"dilation(a)", "dilation(d)", "dilation(e)",
                     "dilation(g)"}),
    # only (f) reads the dilation system's multiplier
    "dilation(f)": ("dilate-banach", banach, "build_minimal_dilation",
                    _negated_multiplier, {"dilation(f)"}),
    # noise on every V_s also breaks the laws (b), (c), (f), (g) that read V
    "dilation(h)": ("dilate-banach", banach, "build_minimal_dilation",
                    _built("v_ops", _bumped),
                    {"dilation(b)", "dilation(c)", "dilation(f)",
                     "dilation(g)", "dilation(h)"}),
    # ||V|| = ||phi(Omega)||^(1/2) (hilbert(7)) reads V too
    "hilbert(1)": ("dilate-hilbert", hilbert, "build_hilbert_dilation",
                   _built("T", _scaled), {"hilbert(1)", "hilbert(7)"}),
    # U~_1 times 1j stays unitary and covariant, but breaks the product rule
    # and U~_1 V = V U_1
    "hilbert(3)": ("dilate-hilbert", hilbert, "build_hilbert_dilation",
                   _built("v_ops", _turned), {"hilbert(3)", "hilbert(4)"}),
    # noise on every pi atom also breaks (1) and (6), which read pi
    "hilbert(5)": ("dilate-hilbert", hilbert, "build_hilbert_dilation",
                   _built("rho_atoms", _bumped),
                   {"hilbert(1)", "hilbert(5)", "hilbert(6)"}),
    # induced(4)'s defect, R T_d - rho(Omega) T, is minus the sum over atoms
    # of induced(0)'s; while rho's atoms have orthogonal ranges, as in every
    # dilation the pipeline builds, no input fails (0) without (4)
    "induced(0)": ("all", banach, "induced_norm_from_injective",
                   _kernel_push, {"induced(0)", "induced(4)"}),
    "induced(1)": ("all", banach, "induced_norm_from_injective",
                   _induced(lambda ds: _bumped(ds, "v_ops"), _keep),
                   {"induced(1)"}),
    "induced(2)": ("all", banach, "induced_norm_from_injective",
                   _induced(_keep, lambda m: _bumped(m, "rho_atoms")),
                   {"induced(2)"}),
    "induced(3)": ("all", banach, "induced_norm_from_injective",
                   _induced(_keep, lambda m: _bumped(m, "Q")), {"induced(3)"}),
    "induced(4)": ("all", banach, "induced_norm_from_injective",
                   _induced(_keep, lambda m: _bumped(m, "T")), {"induced(4)"}),
    # d(mu) = ||R mu|| shrinks by 1 %, below alpha(mu) / K on some mu
    "minimality": ("all", banach, "induced_norm_from_injective", _shrunk_R,
                   {"minimality"}),
    # only the Hilbert dilation's verification as a dilation system reads
    # its multiplier; hilbert(3) reads the system's
    "restriction(probability)": ("all", hilbert, "build_hilbert_dilation",
                                 _negated_multiplier,
                                 {"restriction(probability)"}),
    # range(Q) of a minimal dilation is the sum of the atoms' ranges, which
    # a system that passed valid.system.covariance leaves invariant, so no
    # valid input reaches this code; the row hands the check one column of Q
    "restriction(Q-range)": ("all", banach, "check_q_range_invariance",
                             _first_q_column, {"restriction(Q-range)"}),
    # framing rows run dilate-framing on z2_framing_swap.json. basis(h) has
    # no row: ||P_E f||_Z <= ||f||_Z holds for every f and every basis by the
    # definition of the Z-norm as a max over index sets, so no input fails it.
    # S T = 1 + DELTA: ||x|| <= ||S T x|| <= ||Tx||_Z still bounds T below
    "basis(a)": ("dilate-framing", pipeline, "build_dilated_basis",
                 _built("T", _scaled), {"basis(a)"}),
    # the verifier reads -omega: the product rule and the dual action break
    "basis(b)": ("dilate-framing", pipeline, "verify_basis_dilation",
                 _negated_framing_multiplier, {"basis(b)", "basis(f)"}),
    # noise on every lambda_h also breaks every law that reads lambda
    "basis(c)": ("dilate-framing", pipeline, "build_dilated_basis",
                 _built("lambdas", _bumped),
                 {"basis(b)", "basis(c)", "basis(d1)", "basis(d2)",
                  "basis(e)", "basis(f)"}),
    # ||S f||_X reaches (1 + DELTA) ||f||_Z on f = T x
    "basis(g)": ("dilate-framing", pipeline, "build_dilated_basis",
                 _built("S", _scaled), {"basis(a)", "basis(g)"}),
    # S T = 1 - DELTA: ||Tx||_Z / ||x|| drops to 1 - DELTA, under 1 - eps
    "basis(i)": ("dilate-framing", pipeline, "build_dilated_basis",
                 _built("T", _shrunk), {"basis(a)", "basis(i)"}),
}


@pytest.mark.parametrize("code", FAULT_ROWS)
def test_fault_row_fails_exactly_its_codes(monkeypatch, code):
    command, module, name, call, failing = FAULT_ROWS[code]
    _wrap(monkeypatch, module, name, call)
    scenario = ("z2_framing_swap.json" if command == "dilate-framing"
                else "z2_bessel.json")
    report = run_pipeline(load_scenario(GOLDEN / scenario), command)
    assert code in failing
    assert {r.paper_item for r in report.checks if not r.passed} == failing
    for r in report.checks:
        assert math.isfinite(r.max_residual), r.paper_item


Z3 = json.loads((GOLDEN / "z3_regular_bessel.json").read_text())

# code -> (command, key path of one field of z3_regular_bessel.json, the
# value it gets). Two codes have no row, because run_pipeline cannot fail
# them:
# - restriction.idempotent is raised only by banach.restrict_probability,
#   which no pipeline stage calls.
# - induced.injective: the only system the pipeline pulls back is the
#   Hilbert dilation. Its image of atom w's generators is sqrt(lambda) on
#   exactly the eigenvectors of phi({w}) that the alpha carrier keeps for w
#   (the same relative rank threshold), and the check compares ranks atom
#   by atom, so every combination that vanishes in M_phi maps to 0.
INPUT_ROWS = {
    # row 2 := (2 1 0): (1 1) 1 = 2 1 = 1 but 1 (1 1) = 1 2 = 0
    "valid.group": ("all", ("group", "table", 2), [2, 1, 0]),
    "valid.rep.unit": ("all", ("rep", 0, 0, 0), [2.0, 0.0]),
    # element 2 sends atoms 1 and 2 both to atom 0
    "valid.action": ("all", ("action", 2), [2, 0, 0]),
    # W_1 := W_2: W_1 W_1 = W_2 W_2 is the old W_1, not W_2
    "valid.rep.relation": ("all", ("rep", 1), Z3["rep"][2]),
    # -phi is covariant and bounded but not positive
    "hilbert.applicability": ("dilate-hilbert", ("ovm", "atoms"),
                              [[[[-re, -im] for re, im in row] for row in atom]
                               for atom in Z3["ovm"]["atoms"]]),
}


@pytest.mark.parametrize("code", INPUT_ROWS)
def test_input_fault_fails_exactly_its_code(code):
    command, path, value = INPUT_ROWS[code]
    data = json.loads(json.dumps(Z3))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    report = run_pipeline(scenario_from_dict(data), command)
    assert [r.paper_item for r in report.checks if not r.passed] == [code]


def test_non_euclidean_space_fails_as_a_non_hilbert_norm():
    # on l1 the Hilbert dilation is unavailable because of the norm, not
    # because a representation element (element 0 is the identity) fails
    sc = gen_example("framing-single", {"n": 3, "p": 1}, 1)
    report = run_pipeline(sc, "dilate-hilbert")
    [record] = [r for r in report.checks if not r.passed]
    assert (record.name, record.paper_item) == ("Euclidean target required",
                                                "hilbert.applicability")
    assert "l2 norm" in record.notes


def test_atoms_of_different_scales_pass_induced_injectivity():
    # two orbits of the trivial group, atoms 1 and 1e-12: next to atom 0,
    # eps_rank would drop atom 1's generator (1e-12) but keep its Hilbert
    # image (1e-6), so only a rank per atom sees the Hilbert dilation as
    # injective
    one = [[[1.0, 0.0]]]
    sc = scenario_from_dict({
        "schema_version": 1, "group": {"order": 1, "table": [[0]]},
        "space": {"dim": 1, "norm": "l2"}, "multiplier": [[[1.0, 0.0]]],
        "action": [[0, 1]], "rep": [one],
        "ovm": {"atoms": [one, [[[1e-12, 0.0]]]]}})
    report = run_pipeline(sc, "all")
    assert report.passed
    assert "induced(0)" in [r.paper_item for r in report.checks]


GUARD_SCENARIOS = (
    [(path.name, lambda p=path: load_scenario(p))
     for path in sorted(GOLDEN.glob("*.json"))]
    + [(f"{kind}-{params}", lambda k=kind, p=params: gen_example(k, p, 1))
       for kind, params in (("bessel-cyclic", {"n": 16}),
                            ("positive-random", {"m": 16, "d": 4}),
                            ("framing-single", {"n": 16}),
                            ("bessel-cyclic", {"n": 24}),
                            ("positive-random", {"m": 24, "d": 4}),
                            ("p-frame-cyclic", {"n": 12, "r": 2}))])


def _timeless(report) -> dict:
    out = report.to_dict()
    out.pop("elapsed_seconds")
    return out


@pytest.mark.parametrize("name,load", GUARD_SCENARIOS,
                         ids=[name for name, _ in GUARD_SCENARIOS])
def test_reports_evaluate_no_norm_over_sets(monkeypatch, name, load):
    # every law that reads the alpha norm or the Z-norm is certified from
    # the operators, also past 16 atoms (or Z = 24 basis indices), where
    # enumerating the 2^m sets is infeasible
    sc = load()
    default = {}
    for command in pipeline.COMMANDS:
        try:
            default[command] = _timeless(run_pipeline(sc, command))
        except pipeline.INPUT_ERRORS:
            continue
    assert "all" in default

    def refuse(*args, **kwargs):
        raise AssertionError("a report evaluated a norm over sets")

    for module in MODULES:
        for kernel in ("max_subset_norms", "subset_sums"):
            if hasattr(module, kernel):
                monkeypatch.setattr(module, kernel, refuse)
    monkeypatch.setattr(banach.DilationSpaceAlpha, "alpha_batch", refuse)
    monkeypatch.setattr(framing.DilatedBasis, "z_batch", refuse)
    for command, expected in default.items():
        report = run_pipeline(sc, command)
        # a framing's measure is not positive: no Hilbert dilation
        assert [r.paper_item for r in report.checks if not r.passed] in (
            [], ["hilbert.applicability"])
        assert _timeless(report) == expected


def test_covariance_defect_spread_over_atoms_fails(monkeypatch):
    # Every rho atom gains the same eps/10 covariance defect: no atom fails
    # (g) on its own, the full set's defect is 13 times as large. The bound
    # of (d) over every pair of sets fails too
    sc = gen_example("bessel-cyclic", {"n": 13, "d": 2}, 1)
    eps = sc.tolerance.eps_residual

    def spread(original, *args):
        ds = original(*args)
        f = _noise((ds.dim, ds.dim))
        atom = max(max_abs(v @ f - f @ v) for v in ds.v_ops)
        return dataclasses.replace(
            ds, rho_atoms=ds.rho_atoms + (0.1 * eps / atom) * f)

    _wrap(monkeypatch, banach, "build_minimal_dilation", spread)
    report = run_pipeline(sc, "dilate-banach")
    [record] = [r for r in report.checks if r.paper_item == "dilation(g)"]
    assert not record.passed
    assert record.max_residual == pytest.approx(1.3 * eps, rel=1e-6)
    [record] = [r for r in report.checks if r.paper_item == "dilation(d)"]
    assert not record.passed
