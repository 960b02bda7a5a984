import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dilatekit import banach
from dilatekit.algebra import (MeasurableSpace, act_on_set, check_action,
                               cyclic_group, left_translation_action,
                               trivial_multiplier)
from dilatekit.banach import (DilationSystem, build_minimal_dilation,
                              check_q_range_invariance,
                              induced_norm_from_injective, minimality_bound,
                              restrict_probability, verify_dilation)
from dilatekit.errors import (EnumerationCapExceeded, InvalidInput,
                              NotIdempotent, NotInjective,
                              SemigroupNotSupported)
from dilatekit.hilbert import build_hilbert_dilation, verify_hilbert_dilation
from dilatekit.imprimitivity import ImprimitivitySystem, check_rep, check_system
from dilatekit.linalg import (NormTag, NormedSpace, Tolerance, max_abs,
                              subset_sums)
from dilatekit.ovm import Ovm, bessel_ovm
from dilatekit.scenario import gen_example, load_scenario

from conftest import (general_system, positive_system, rng_for, shift_rep,
                      system_from_scenario)
from oracles import (VectorMeasure, alpha_norm, alpha_of_coords,
                     carrier_norms, coords_from_values, gaussian, make_phi_x_E,
                     sampled_minimality)

TOL = Tolerance()
GOLDEN = Path(__file__).resolve().parents[1] / "scenarios"
ALL_TAGS = [NormTag.l1(), NormTag.l2(), NormTag.linf(), NormTag.lp(3.0)]


def scalar_half_half_system():
    """d = 1, two atoms of mass 1/2, trivial group: the worked example."""
    g = cyclic_group(1)
    space = MeasurableSpace(2)
    action = check_action(g, space, np.arange(2)[None, :])
    target = NormedSpace(1, NormTag.l2())
    rep, _ = check_rep(g, trivial_multiplier(g), target,
                       np.eye(1, dtype=complex)[None])
    measure = Ovm(space=space, target=target,
                  atoms=np.array([[[0.5]], [[0.5]]], dtype=complex))
    system, _ = check_system(rep, measure, action)
    return system


def alpha_oracle(mu: VectorMeasure) -> float:
    """Independent brute-force subset enumeration of the dilation norm."""
    m = mu.space.atoms
    d = mu.target.dim
    tag = mu.target.norm
    best = 0.0
    for mask in range(1 << m):
        total = np.zeros(d, dtype=complex)
        for w in range(m):
            if mask >> w & 1:
                total = total + mu.atom_values[w]
        mags = np.abs(total)
        if tag.kind == "l1":
            value = float(np.sum(mags))
        elif tag.kind == "l2":
            value = float(np.sqrt(np.sum(mags * mags)))
        elif tag.kind == "linf":
            value = float(np.max(mags)) if mags.size else 0.0
        else:
            value = float(np.sum(mags ** tag.p)) ** (1.0 / tag.p)
        best = max(best, value)
    return best


def pair_scan(rho_atoms: np.ndarray) -> float:
    """Largest entry of rho(A) rho(B) - rho(A n B) over all pairs of sets,
    by the exhaustive scan that dilation(d) replaced with a bound."""
    m = rho_atoms.shape[0]
    rho_all = subset_sums(rho_atoms)
    masks = np.arange(1 << m)
    return max(max_abs(rho_all[a] @ rho_all - rho_all[a & masks])
               for a in range(1 << m))


class TestVectorMeasure:
    def test_make_phi_scalar(self):
        system = scalar_half_half_system()
        mu = make_phi_x_E(system.ovm, [1.0], 0b11)
        assert np.allclose(mu.atom_values, [[0.5], [0.5]])
        assert mu.value(0b01)[0] == 0.5

    def test_zero_vector_and_empty_set(self):
        system = scalar_half_half_system()
        assert np.all(make_phi_x_E(system.ovm, [0.0], 0b11).atom_values == 0)
        assert np.all(make_phi_x_E(system.ovm, [1.0], 0).atom_values == 0)


class TestAlphaNorm:
    def _measure(self, values, tag=NormTag.l2()):
        arr = np.asarray(values, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
        return VectorMeasure(space=MeasurableSpace(arr.shape[0]),
                             target=NormedSpace(arr.shape[1], tag),
                             atom_values=arr)

    def test_signed_pair(self):
        assert alpha_norm(self._measure([1.0, -1.0])) == 1.0

    def test_positive_pair(self):
        assert alpha_norm(self._measure([1.0, 1.0])) == 2.0

    def test_zero(self):
        assert alpha_norm(self._measure([0.0, 0.0])) == 0.0

    def test_cap(self):
        # the oracle enumerates 2^m sets, so subset_sums refuses 17 atoms
        with pytest.raises(EnumerationCapExceeded):
            alpha_norm(self._measure(np.zeros(17)))

    def test_matches_oracle_exactly(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            tag = ALL_TAGS[int(rng.integers(0, len(ALL_TAGS)))]
            values = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            mu = self._measure(values, tag)
            assert alpha_norm(mu) == alpha_oracle(mu)


class TestMinimalDilation:
    def test_worked_scalar_example(self):
        system = scalar_half_half_system()
        ds = build_minimal_dilation(system, TOL)
        assert ds.dim == 2
        got = (ds.Q @ ds.rho_atoms[0] @ ds.T)[0, 0]
        assert got == pytest.approx(0.5, abs=1e-14)
        coords = ds.T @ np.array([1.0 + 0j])
        assert alpha_of_coords(ds.carrier, coords) == pytest.approx(1.0,
                                                                  abs=1e-14)

    def test_spectral_anchor(self):
        rep = shift_rep(2, NormTag.l2())
        measure = bessel_ovm(rep, [1.0, 0.0])
        system, _ = check_system(rep, measure, left_translation_action(rep.group))
        ds = build_minimal_dilation(system, TOL)
        assert ds.dim == 2
        assert max_abs(ds.Q @ ds.T - np.eye(2)) <= 1e-12

    def test_zero_measure_degenerates(self):
        g = cyclic_group(1)
        space = MeasurableSpace(2)
        action = check_action(g, space, np.arange(2)[None, :])
        target = NormedSpace(2, NormTag.l2())
        rep, _ = check_rep(g, trivial_multiplier(g), target,
                           np.eye(2, dtype=complex)[None])
        measure = Ovm(space=space, target=target,
                      atoms=np.zeros((2, 2, 2), dtype=complex))
        system, _ = check_system(rep, measure, action)
        ds = build_minimal_dilation(system, TOL)
        assert ds.dim == 0
        assert all(r.passed for r in verify_dilation(ds, system, TOL))

    def test_semigroup_rejected(self):
        from dilatekit.algebra import check_semigroup
        sg = check_semigroup([[0, 1], [1, 1]])
        space = MeasurableSpace(2)
        # assemble an unvalidated system around the semigroup
        from dilatekit.imprimitivity import ProjectiveRep
        from dilatekit.ovm import OvmClass
        rep = ProjectiveRep(group=sg, multiplier=trivial_multiplier(sg),
                            space=NormedSpace(1, NormTag.l2()),
                            matrices=np.ones((2, 1, 1), dtype=complex))
        measure = Ovm(space=space, target=rep.space,
                      atoms=np.zeros((2, 1, 1), dtype=complex))
        action = check_action(sg, space, np.array([[0, 1], [0, 1]]))
        system = ImprimitivitySystem(rep=rep, ovm=measure, action=action,
                                     ovm_class=OvmClass(False, True, False))
        with pytest.raises(SemigroupNotSupported):
            build_minimal_dilation(system, TOL)

    def test_dimension_formula_and_verify(self):
        from dilatekit.linalg import numeric_rank
        for seed in range(10):
            system = general_system(seed)
            ds = build_minimal_dilation(system, TOL)
            expected = sum(numeric_rank(system.ovm.atoms[w], TOL)
                           for w in range(system.ovm.space.atoms))
            assert ds.dim == expected
            records = verify_dilation(ds, system, TOL)
            assert all(r.passed for r in records), \
                [(r.name, r.max_residual) for r in records if not r.passed]

    def test_restriction_shrinks_alpha(self, rng):
        system = general_system(1)
        ds = build_minimal_dilation(system, TOL)
        carrier = ds.carrier
        for _ in range(30):
            coords = rng.standard_normal(ds.dim) + 1j * rng.standard_normal(ds.dim)
            full = alpha_of_coords(carrier, coords)
            for w in range(system.ovm.space.atoms):
                restricted = ds.rho_atoms[w] @ coords
                assert alpha_of_coords(carrier, restricted) <= full + 1e-12

    def test_dropped_rho_block_fails_e(self):
        system = general_system(3)
        ds = build_minimal_dilation(system, TOL)
        rho_atoms = ds.rho_atoms.copy()
        rho_atoms[1] = 0.0
        corrupted = dataclasses.replace(ds, rho_atoms=rho_atoms)
        by_code = {r.paper_item: r
                   for r in verify_dilation(corrupted, system, TOL)}
        assert not by_code["dilation(e)"].passed
        assert by_code["dilation(e)"].max_residual == 1.0

    def test_rho_lattice_identities(self):
        system = general_system(2)
        ds = build_minimal_dilation(system, TOL)
        for a in range(system.ovm.space.full + 1):
            for b in range(system.ovm.space.full + 1):
                lhs = ds.rho(a | b) + ds.rho(a & b)
                assert max_abs(lhs - ds.rho(a) - ds.rho(b)) == 0.0


class TestHandBuiltDilation:
    def _hand_system(self):
        system = scalar_half_half_system()
        ds = DilationSystem(
            group=system.rep.group, multiplier=system.rep.multiplier,
            space=system.ovm.space, target=system.ovm.target, dim=2,
            v_ops=np.eye(2, dtype=complex)[None],
            rho_atoms=np.stack([np.diag([1.0, 0j]), np.diag([0j, 1.0])]),
            Q=np.array([[0.5, 0.5]], dtype=complex),
            T=np.array([[1.0], [1.0]], dtype=complex),
        )
        return system, ds

    def test_hand_built_passes(self):
        system, ds = self._hand_system()
        records = verify_dilation(ds, system, TOL)
        by_code = {r.paper_item: r for r in records}
        for code in ("dilation(a)", "dilation(b)", "dilation(c)",
                     "dilation(d)", "dilation(e)"):
            assert by_code[code].passed

    def test_corrupted_rho_flagged(self):
        system, ds = self._hand_system()
        bad = np.array(ds.rho_atoms, copy=True)
        bad[0] *= 1.1
        corrupted = DilationSystem(
            group=ds.group, multiplier=ds.multiplier, space=ds.space,
            target=ds.target, dim=ds.dim, v_ops=ds.v_ops, rho_atoms=bad,
            Q=ds.Q, T=ds.T)
        by_code = {r.paper_item: r
                   for r in verify_dilation(corrupted, system, TOL)}
        assert not by_code["dilation(d)"].passed
        assert not by_code["dilation(e)"].passed


class TestRestriction:
    def test_probability_input_is_fixed_point(self):
        # V_s is unitary here, so the Euclidean carrier norm is preserved
        system = general_system(0)
        ds = dataclasses.replace(build_minimal_dilation(system, TOL),
                                 carrier=None)
        restricted = restrict_probability(ds, TOL)
        records = verify_dilation(restricted, system, TOL)
        assert restricted.dim == ds.dim
        assert all(r.passed for r in records)

    def test_padded_dilation_is_trimmed(self):
        system, = [scalar_half_half_system()]
        ds = build_minimal_dilation(system, TOL)
        r = ds.dim
        pad = np.zeros((r + 1, r), dtype=complex)
        pad[:r] = np.eye(r)
        padded = DilationSystem(
            group=ds.group, multiplier=ds.multiplier, space=ds.space,
            target=ds.target, dim=r + 1,
            v_ops=np.stack([pad @ v @ pad.conj().T for v in ds.v_ops]),
            rho_atoms=np.stack([pad @ x @ pad.conj().T for x in ds.rho_atoms]),
            Q=ds.Q @ pad.conj().T, T=pad @ ds.T)
        restricted = restrict_probability(padded, TOL)
        records = verify_dilation(restricted, system, TOL)
        assert restricted.dim == r
        assert all(rec.passed for rec in records)

    def test_non_idempotent_rejected(self):
        system, = [scalar_half_half_system()]
        ds = build_minimal_dilation(system, TOL)
        bad = DilationSystem(
            group=ds.group, multiplier=ds.multiplier, space=ds.space,
            target=ds.target, dim=ds.dim, v_ops=ds.v_ops,
            rho_atoms=1.5 * ds.rho_atoms, Q=ds.Q, T=ds.T)
        with pytest.raises(NotIdempotent):
            restrict_probability(bad, TOL)

    def test_alpha_carrier_rejected(self):
        # the alpha norm of a subspace has no carrier of its own
        ds = build_minimal_dilation(scalar_half_half_system(), TOL)
        with pytest.raises(InvalidInput):
            restrict_probability(ds, TOL)

    def test_q_range_invariance(self):
        for seed in (0, 3, 5):
            system = general_system(seed)
            ds = build_minimal_dilation(system, TOL)
            assert check_q_range_invariance(ds, system, TOL).passed


class TestInducedNorm:
    def test_minimal_dilation_induces_itself(self):
        system = general_system(0)
        minimal = build_minimal_dilation(system, TOL)
        induced = induced_norm_from_injective(minimal, system, TOL,
                                              minimal=minimal)
        assert all(r.passed for r in induced.checks)
        assert max_abs(induced.R - np.eye(minimal.dim)) <= 1e-9
        coords = gaussian(np.random.default_rng(0), (5, minimal.dim))
        assert carrier_norms(minimal, coords @ induced.R.T) == pytest.approx(
            carrier_norms(minimal, coords), rel=1e-9)

    def test_hilbert_adapter_chain(self):
        system = positive_system(1)
        hd = build_hilbert_dilation(system, TOL)
        restricted = restrict_probability(hd, TOL)
        records = verify_dilation(restricted, system, TOL)
        assert all(r.passed for r in records)
        induced = induced_norm_from_injective(restricted, system, TOL)
        assert all(r.passed for r in induced.checks)

    def test_non_injective_detected(self):
        # one rank-1 atom on C^2: the generator phi_{e2,atom} vanishes, so a
        # faithful image must kill it; the identity T below does not
        g = cyclic_group(1)
        space = MeasurableSpace(1)
        action = check_action(g, space, np.zeros((1, 1), dtype=np.int64))
        target = NormedSpace(2, NormTag.l2())
        rep, _ = check_rep(g, trivial_multiplier(g), target,
                           np.eye(2, dtype=complex)[None])
        atoms = np.array([np.diag([1.0, 0.0])], dtype=complex)
        system, _ = check_system(rep, Ovm(space=space, target=target,
                                          atoms=atoms), action)
        fake = DilationSystem(
            group=g, multiplier=trivial_multiplier(g), space=space,
            target=target, dim=2, v_ops=np.eye(2, dtype=complex)[None],
            rho_atoms=np.eye(2, dtype=complex)[None],
            Q=np.eye(2, dtype=complex), T=np.eye(2, dtype=complex))
        with pytest.raises(NotInjective) as exc:
            induced_norm_from_injective(fake, system, TOL)
        assert np.allclose(np.abs(exc.value.witness), [0.0, 1.0])


class TestMinimalityBound:
    def test_worked_example_ratio_one(self):
        system = scalar_half_half_system()
        hd = build_hilbert_dilation(system, TOL)
        minimal = build_minimal_dilation(system, TOL)
        induced = induced_norm_from_injective(hd, system, TOL,
                                              minimal=minimal)
        coords = minimal.T @ np.array([1.0 + 0j])
        assert alpha_of_coords(minimal.carrier, coords) == pytest.approx(
            1.0, abs=1e-12)
        assert np.linalg.norm(induced.R @ coords) == pytest.approx(1.0,
                                                                   abs=1e-12)
        d_single = np.linalg.norm(induced.R @ coords_from_values(
            minimal.carrier, np.array([[0.5], [0.0]])))
        assert d_single == pytest.approx(np.sqrt(0.5), abs=1e-12)
        k, records = minimality_bound(induced, TOL)
        assert all(r.passed for r in records)
        assert sampled_minimality(induced, samples=200)["ratio"] <= k + 1e-12

    def test_no_violations_on_positive_systems(self):
        for seed in (0, 2):
            system = positive_system(seed)
            hd = build_hilbert_dilation(system, TOL)
            induced = induced_norm_from_injective(hd, system, TOL)
            _, records = minimality_bound(induced, TOL)
            assert all(r.passed for r in records)
            assert sampled_minimality(induced, samples=300)["violations"] == 0

    def test_shrunk_R_fails(self):
        # d(mu) = ||R mu||_2 halves while K comes from the target alone
        system = system_from_scenario(
            load_scenario(GOLDEN / "z2_bessel.json"))
        hd = build_hilbert_dilation(system, TOL)
        restricted = restrict_probability(hd, TOL)
        induced = induced_norm_from_injective(restricted, system, TOL)
        _, [record] = minimality_bound(induced, TOL)
        assert record.passed
        induced.R = 0.5 * induced.R
        _, [record] = minimality_bound(induced, TOL)
        assert not record.passed
        assert sampled_minimality(induced)["violations"] > 0

    def test_non_euclidean_space_rejected(self):
        system = next(s for s in map(general_system, range(8))
                      if s.rep.space.norm.kind != "l2")
        minimal = build_minimal_dilation(system, TOL)
        induced = induced_norm_from_injective(minimal, system, TOL,
                                              minimal=minimal)
        with pytest.raises(InvalidInput):
            minimality_bound(induced, TOL)


class TestSetLawsCertified:
    """dilation(a), (d), (g), hilbert(1), (5) and induced(2) report a bound
    over every set (for (d), every pair of sets). The exhaustive scans they
    replaced stay here as oracles: on dilations with noisy atoms, no set's
    or pair's defect exceeds the bound."""

    @staticmethod
    def _noisy(obj, field, rng):
        values = getattr(obj, field)
        noise = rng.standard_normal(values.shape) + 1j * rng.standard_normal(
            values.shape)
        return dataclasses.replace(obj, **{field: values + 1e-6 * noise})

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_covers_every_set(self, seed):
        system = positive_system(seed)
        ovm, action, rng = system.ovm, system.action, rng_for(seed)
        sets = range(1 << ovm.space.atoms)
        elements = system.rep.group.elements
        minimal = self._noisy(build_minimal_dilation(system, TOL),
                              "rho_atoms", rng)
        clean = build_hilbert_dilation(system, TOL)
        hd = self._noisy(clean, "rho_atoms", rng)
        target = restrict_probability(clean, TOL)
        induced = induced_norm_from_injective(target, system, TOL,
                                              minimal=minimal)
        records = (verify_dilation(minimal, system, TOL)
                   + verify_hilbert_dilation(hd, system, TOL) + induced.checks)
        bound = {r.paper_item: r.max_residual for r in records}

        v, rho, u, pi = minimal.v_ops, minimal.rho, hd.v_ops, hd.rho
        scans = {
            "dilation(a)": [minimal.Q @ rho(e) @ minimal.T
                            - ovm.space.set_sum(ovm.atoms, e) for e in sets],
            "dilation(g)": [v[s] @ rho(e) - rho(act_on_set(action, s, e)) @ v[s]
                            for s in elements for e in sets],
            "hilbert(1)": [hd.Q @ pi(e) @ hd.T
                           - ovm.space.set_sum(ovm.atoms, e) for e in sets],
            "hilbert(5)": [u[s] @ pi(e) @ u[s].conj().T
                           - pi(act_on_set(action, s, e))
                           for s in elements for e in sets],
            "induced(2)": [induced.R @ rho(e) - target.rho(e) @ induced.R
                           for e in sets],
        }
        for code, defects in scans.items():
            scan = max(max_abs(d) for d in defects)
            assert 0 < scan <= bound[code] * (1 + 1e-9), code

    @pytest.mark.parametrize("make", [
        lambda: positive_system(0), lambda: positive_system(1),
        lambda: positive_system(2), lambda: positive_system(3),
        lambda: system_from_scenario(
            gen_example("positive-random", {"m": 8, "d": 2}, 1)),
        lambda: system_from_scenario(
            gen_example("spectral-random", {"m": 8, "d": 6}, 2)),
        lambda: system_from_scenario(
            gen_example("spectral-random", {"m": 5, "d": 5}, 3)),
        lambda: system_from_scenario(
            gen_example("bessel-cyclic", {"n": 8}, 4)),
    ], ids=["positive0", "positive1", "positive2", "positive3",
            "positive-random-m8", "spectral-random-m8", "spectral-random-m5",
            "bessel-cyclic-m8"])
    def test_pair_bound_covers_every_pair(self, make):
        system = make()
        assert system.ovm.space.atoms <= 8
        minimal = self._noisy(build_minimal_dilation(system, TOL), "rho_atoms",
                              rng_for(system.ovm.space.atoms))
        [record] = [r for r in verify_dilation(minimal, system, TOL)
                    if r.paper_item == "dilation(d)"]
        assert 0 < pair_scan(minimal.rho_atoms) <= record.max_residual * (
            1 + 1e-9)


def test_pair_law_reads_no_subset_sums(monkeypatch):
    # dilation(d) is bounded on atom pairs; the 4^m scan over subset sums of
    # rho that it replaced covered every m up to 12
    system = system_from_scenario(gen_example("bessel-cyclic", {"n": 8}, 1))
    ds = build_minimal_dilation(system, TOL)

    def refuse(values):
        raise AssertionError("verify_dilation took subset sums")

    monkeypatch.setattr(banach, "subset_sums", refuse)
    records = verify_dilation(ds, system, TOL)
    assert all(r.passed for r in records)
