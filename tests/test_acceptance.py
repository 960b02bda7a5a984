"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines live.
Every tolerance is pinned here rather than deferred to configuration.
"""

import itertools
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from dilatekit.algebra import MeasurableSpace, left_translation_action
from dilatekit.banach import (build_minimal_dilation,
                              induced_norm_from_injective, minimality_bound,
                              restrict_probability, verify_dilation)
from dilatekit.cli import main as cli_main
from dilatekit.framing import (build_dilated_basis, cyclic_shift_framing,
                               verify_basis_dilation, verify_framing)
from dilatekit.hilbert import build_hilbert_dilation, verify_hilbert_dilation
from dilatekit.imprimitivity import check_system
from dilatekit.linalg import NormTag, NormedSpace, Tolerance, numeric_rank
from dilatekit.ovm import classify, evaluate, framing_ovm
from dilatekit.algebra import act_on_set
from dilatekit.linalg import hermitian_inner, max_abs
from dilatekit.scenario import gen_example, serialize_scenario

from conftest import (general_system, positive_system, rng_for,
                      system_from_scenario, z2_swap_framing, z2_trivial_framing)
from oracles import VectorMeasure, alpha_norm, sampled_minimality
from test_banach import alpha_oracle

TOL = Tolerance()
EPS = 1e-9
ISO_RTOL = 1e-8
SUITE_BUDGET_SECONDS = 60.0


def announce(number: int, label: str, started: float, ok: bool = True):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.1f}s]")
    assert elapsed < SUITE_BUDGET_SECONDS


def framing_suite_systems():
    """The two worked framings plus 30 seeded shift framings with
    n <= 4, r <= 2, p in {1, 2, inf} and dilation index count <= 8."""
    systems = [z2_trivial_framing(), z2_swap_framing()]
    tags = [NormTag.l1(), NormTag.l2(), NormTag.linf()]
    combos = [(n, r) for n in (1, 2, 3, 4) for r in (1, 2)]
    seeded = []
    seed = 100
    while len(seeded) < 30:
        for (n, r), tag in itertools.product(combos, tags):
            if len(seeded) >= 30:
                break
            seeded.append(cyclic_shift_framing(n, r, tag, seed))
            seed += 1
    return systems + seeded


def test_criterion_1_minimal_dilation_suite():
    started = time.time()
    orders = set()
    non_positive = non_probability = 0
    for seed in range(50):
        system = general_system(seed)
        orders.add(system.rep.group.order)
        non_positive += not system.ovm_class.positive
        non_probability += not system.ovm_class.probability
        assert system.rep.space.dim <= 4 and system.ovm.space.atoms <= 5
        ds = build_minimal_dilation(system, TOL)
        records = {r.paper_item: r for r in
                   verify_dilation(ds, system, TOL)}
        for code in ("dilation(a)", "dilation(b)", "dilation(c)", "dilation(d)",
                     "dilation(e)", "dilation(f)", "dilation(g)"):
            assert records[code].max_residual <= EPS, (seed, code)
        assert records["dilation(h)"].max_residual <= ISO_RTOL, seed
    assert orders == {2, 3, 4, 6}  # Z_2, Z_3, Z_4 and S_3 all appear
    assert non_positive >= 10 and non_probability >= 10
    announce(1, "minimal spectral dilation on 50 seeded systems", started)


def test_criterion_2_spectral_fixed_point():
    started = time.time()
    cases = []
    for seed in range(6):
        cases.append(system_from_scenario(
            gen_example("spectral-random", {"m": 2 + seed % 4, "d": 2 + seed % 3},
                        seed=seed)))
    for n in (2, 3, 4):
        sc = gen_example("p-frame-cyclic", {"n": n, "r": 1, "p": 2.0,
                                            "delta": True}, seed=n)
        cases.append(system_from_scenario(sc))
    for system in cases:
        cls = classify(system.ovm, TOL)
        assert cls.spectral and cls.probability
        ds = build_minimal_dilation(system, TOL)
        assert ds.dim == system.rep.space.dim
        assert max_abs(ds.Q @ ds.T - np.eye(ds.dim)) <= 1e-12
    announce(2, "spectral probability inputs are fixed points", started)


def test_criterion_3_alpha_norm_oracle():
    started = time.time()
    rng = rng_for(777)
    tags = [NormTag.l1(), NormTag.l2(), NormTag.linf(), NormTag.lp(3.0)]
    for trial in range(200):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        tag = tags[trial % len(tags)]
        values = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        mu = VectorMeasure(space=MeasurableSpace(m),
                           target=NormedSpace(d, tag), atom_values=values)
        assert alpha_norm(mu) == alpha_oracle(mu), (trial, m, d, tag)
    signed = VectorMeasure(space=MeasurableSpace(2),
                           target=NormedSpace(1, NormTag.l2()),
                           atom_values=np.array([[1.0], [-1.0]], dtype=complex))
    doubled = VectorMeasure(space=MeasurableSpace(2),
                            target=NormedSpace(1, NormTag.l2()),
                            atom_values=np.array([[1.0], [1.0]], dtype=complex))
    assert alpha_norm(signed) == 1.0
    assert alpha_norm(doubled) == 2.0
    announce(3, "exact alpha norm vs brute-force oracle, 200 measures", started)


def _fifty_positive_systems():
    systems = []
    for n in range(1, 6):
        for d in range(1, 5):
            sc = gen_example("bessel-cyclic", {"n": n, "d": d}, seed=10 * n + d)
            systems.append(system_from_scenario(sc))
    for seed in range(30):
        systems.append(positive_system(seed))
    return systems


def test_criterion_4_hilbert_dilation_suite():
    started = time.time()
    systems = _fifty_positive_systems()
    assert len(systems) == 50
    for i, system in enumerate(systems):
        hd = build_hilbert_dilation(system, TOL)
        assert hd.dim == sum(numeric_rank(system.ovm.atoms[w], TOL)
                             for w in range(system.ovm.space.atoms)), i
        records = verify_hilbert_dilation(hd, system, TOL)
        assert len(records) == 7
        for r in records:
            assert r.max_residual <= EPS, (i, r.paper_item, r.max_residual)
    # worked example: two scalar atoms of mass 1/2 under the trivial group
    from test_hilbert import trivial_group_system
    worked = trivial_group_system([[[0.5]], [[0.5]]])
    hd = build_hilbert_dilation(worked, TOL)
    assert hd.dim == 2
    for w in range(2):
        value = (hd.Q @ hd.rho_atoms[w] @ hd.T)[0, 0]
        assert value == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(np.abs(hd.T), np.sqrt(0.5))
    announce(4, "projection-valued dilation on 50 positive systems", started)


def test_criterion_5_induced_norm_and_minimality():
    started = time.time()
    for i, system in enumerate(_fifty_positive_systems()):
        hd = build_hilbert_dilation(system, TOL)
        restricted = restrict_probability(hd, TOL)
        induced = induced_norm_from_injective(restricted, system, TOL)
        for r in induced.checks:
            assert r.max_residual <= EPS, (i, r.paper_item, r.max_residual)
        _, records = minimality_bound(induced, TOL)
        assert all(r.passed for r in records), i
        assert sampled_minimality(induced, samples=500)["violations"] == 0, i
    announce(5, "induced dilation norm and minimality bound", started)


def test_criterion_6_basis_dilation_suite():
    started = time.time()
    systems = framing_suite_systems()
    assert len(systems) == 32
    for i, fs in enumerate(systems):
        assert fs.theta.group.order * fs.window_count <= 8
        for r in verify_framing(fs, TOL):
            assert r.passed, (i, r.name)
        db = build_dilated_basis(fs)
        records = {r.paper_item: r
                   for r in verify_basis_dilation(db, fs, TOL)}
        for code in ("basis(a)", "basis(b)", "basis(d1)", "basis(d2)",
                     "basis(e)", "basis(f)", "basis(g)", "basis(h)"):
            assert records[code].max_residual <= EPS, (i, code)
        assert records["basis(c)"].max_residual <= ISO_RTOL, i
        assert (records["basis(h)"].notes
                == "certified by the definition of the Z-norm")
        assert records["basis(i)"].passed
    announce(6, "unconditional-basis dilation on 32 framings", started)


def test_criterion_7_framing_to_system_loop():
    started = time.time()
    for i, fs in enumerate(framing_suite_systems()):
        measure = framing_ovm(fs.theta, fs.windows, fs.duals)
        system, records = check_system(fs.theta, measure,
                                       left_translation_action(fs.theta.group),
                                       TOL)
        assert all(r.passed for r in records), i
        ds = build_minimal_dilation(system, TOL)
        verdicts = {r.paper_item: r
                    for r in verify_dilation(ds, system, TOL)}
        for code in ("dilation(a)", "dilation(b)", "dilation(c)", "dilation(d)",
                     "dilation(e)", "dilation(f)", "dilation(g)"):
            assert verdicts[code].max_residual <= EPS, (i, code)
        assert verdicts["dilation(h)"].max_residual <= ISO_RTOL, i
    announce(7, "framings induce systems whose dilation verifies", started)


def _spectral_oracle(measure):
    for a in range(measure.space.full + 1):
        for b in range(measure.space.full + 1):
            lhs = evaluate(measure, a & b)
            rhs = evaluate(measure, a) @ evaluate(measure, b)
            if max_abs(lhs - rhs) > EPS:
                return False
    return True


def _positive_oracle(measure, rng):
    d = measure.target.dim
    for mask in range(measure.space.full + 1):
        val = evaluate(measure, mask)
        for _ in range(100):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            q = hermitian_inner(val @ x, x)
            scale = 1.0 + abs(q)
            if q.real < -EPS * scale or abs(q.imag) > EPS * scale:
                return False
    return True


def _covariance_oracle(system):
    rep, measure, action = system.rep, system.ovm, system.action
    for s in rep.group.elements:
        ws = rep.matrices[s]
        for mask in range(measure.space.full + 1):
            lhs = ws @ evaluate(measure, mask)
            rhs = evaluate(measure, act_on_set(action, s, mask)) @ ws
            if max_abs(lhs - rhs) > EPS:
                return False
    return True


def test_criterion_8_oracle_equivalences():
    started = time.time()
    rng = rng_for(4242)
    disagreements = 0
    systems = [general_system(seed) for seed in range(16)]
    systems += [positive_system(seed) for seed in range(8)]
    systems += [system_from_scenario(gen_example(kind, {"m": 3, "d": 3}, seed=s))
                for kind in ("spectral-random", "positive-random")
                for s in range(3)]
    for system in systems:
        assert system.ovm.space.atoms <= 6
        cls = classify(system.ovm, TOL)
        if cls.spectral != _spectral_oracle(system.ovm):
            disagreements += 1
        if cls.positive != _positive_oracle(system.ovm, rng):
            disagreements += 1
        if not _covariance_oracle(system):  # validated systems must agree
            disagreements += 1
    # negative cases: atom-level flags must match the exhaustive scans too
    from test_ovm import scalar_ovm
    for measure in (scalar_ovm([0.5, 0.5]), scalar_ovm([1.0, -1.0])):
        cls = classify(measure, TOL)
        if cls.spectral != _spectral_oracle(measure):
            disagreements += 1
        if cls.positive != _positive_oracle(measure, rng):
            disagreements += 1
    assert disagreements == 0
    announce(8, "atom-level criteria match exhaustive subset scans", started)


def _corrupt(data: dict, kind: str) -> str:
    """Apply a named corruption to a serialized scenario; return the check
    code expected to fail."""
    if kind == "cocycle":
        data["multiplier"][1][1] = [-1.0, 0.0]
        return "valid.multiplier"
    if kind == "covariance":
        entry = data["ovm"]["atoms"][0][0][0]
        data["ovm"]["atoms"][0][0][0] = [entry[0] + 0.4, entry[1]]
        return "valid.system.covariance"
    if kind == "isometry":
        # conjugating by a non-isometric similarity keeps the product
        # relation intact but destroys the isometry of each element
        raw = np.asarray(data["rep"], dtype=float)
        mats = raw[..., 0] + 1j * raw[..., 1]
        scale = np.diag([1.5] + [1.0] * (mats.shape[1] - 1))
        inv = np.linalg.inv(scale)
        mats = np.einsum("ij,gjk,kl->gil", scale, mats, inv)
        data["rep"] = np.stack([mats.real, mats.imag], axis=-1).tolist()
        return "valid.rep.isometry"
    if kind == "zero-window":
        width = len(data["framing"]["windows"][0])
        data["framing"]["windows"][0] = [[0.0, 0.0]] * width
        return "valid.framing.windows"
    if kind == "scaled-dual":
        data["framing"]["duals"] = [[[0.9 * re, 0.9 * im] for re, im in vec]
                                    for vec in data["framing"]["duals"]]
        return "valid.framing.reconstruction"
    raise AssertionError(kind)


def test_criterion_9_fault_injection(tmp_path):
    started = time.time()
    runner = CliRunner()
    cases = []
    for seed in range(4):
        base_ovm = serialize_scenario(
            gen_example("bessel-cyclic", {"n": 4, "d": 3}, seed=seed))
        base_framing = serialize_scenario(
            gen_example("p-frame-cyclic", {"n": 3, "r": 1, "p": 2.0},
                        seed=seed))
        for kind in ("cocycle", "covariance", "isometry"):
            cases.append((kind, json.loads(json.dumps(base_ovm)),
                          "dilate-banach"))
        for kind in ("zero-window", "scaled-dual"):
            cases.append((kind, json.loads(json.dumps(base_framing)),
                          "dilate-framing"))
    assert len(cases) == 20
    for i, (kind, data, command) in enumerate(cases):
        expected = _corrupt(data, kind)
        path = tmp_path / f"fault_{i}.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(cli_main, [command, str(path), "--format",
                                          "json"])
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit), (kind, i)
        assert result.exit_code == 1, (kind, i, result.output)
        payload = json.loads(result.output)
        failed = [c["paper_item"] for c in payload["checks"] if not c["pass"]]
        assert expected in failed, (kind, i, failed)
    announce(9, "20 seeded faults fail by name with exit code 1", started)
