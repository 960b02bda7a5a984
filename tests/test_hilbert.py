import dataclasses

import numpy as np
import pytest

from dilatekit.algebra import (MeasurableSpace, check_action, cyclic_group,
                               left_translation_action, trivial_multiplier)
from dilatekit.errors import BlockRankMismatch, NonHilbertNorm, NotPositive
from dilatekit.hilbert import build_hilbert_dilation, verify_hilbert_dilation
from dilatekit.imprimitivity import (ImprimitivitySystem, check_rep,
                                     check_system)
from dilatekit.linalg import (NormTag, NormedSpace, Tolerance, hermitian_inner,
                              max_abs, numeric_rank)
from dilatekit.ovm import Ovm, OvmClass, bessel_ovm

from conftest import (covariant_system, phased_shift_rep, positive_system,
                      shift_rep)

TOL = Tolerance()


def trivial_group_system(atoms):
    atoms = np.asarray(atoms, dtype=complex)
    m, d = atoms.shape[0], atoms.shape[1]
    g = cyclic_group(1)
    space = MeasurableSpace(m)
    action = check_action(g, space, np.arange(m)[None, :])
    target = NormedSpace(d, NormTag.l2())
    rep, _ = check_rep(g, trivial_multiplier(g), target,
                       np.eye(d, dtype=complex)[None])
    system, _ = check_system(rep, Ovm(space=space, target=target, atoms=atoms),
                             action)
    return system


class TestWorkedExamples:
    def test_half_half_scalar(self):
        system = trivial_group_system([[[0.5]], [[0.5]]])
        hd = build_hilbert_dilation(system, TOL)
        assert hd.dim == 2
        assert np.allclose(np.abs(hd.T), np.sqrt(0.5) * np.ones((2, 1)))
        for w in range(2):
            val = (hd.Q @ hd.rho_atoms[w] @ hd.T)[0, 0]
            assert val == pytest.approx(0.5, abs=1e-12)
        records = verify_hilbert_dilation(hd, system, TOL)
        assert all(r.passed for r in records)
        v_norm = float(np.linalg.svd(hd.T, compute_uv=False)[0])
        assert v_norm == pytest.approx(1.0, abs=1e-12)

    def test_spectral_input_gives_unitary_v(self):
        rep = shift_rep(3, NormTag.l2())
        measure = bessel_ovm(rep, [1.0, 0.0, 0.0])
        system, _ = check_system(rep, measure, left_translation_action(rep.group))
        hd = build_hilbert_dilation(system, TOL)
        assert hd.dim == 3
        assert max_abs(hd.Q @ hd.T - np.eye(3)) <= 1e-12
        assert max_abs(hd.T @ hd.Q - np.eye(3)) <= 1e-12

    def test_z2_orbit_blocks_swap(self):
        rep = shift_rep(2, NormTag.l2())
        measure = bessel_ovm(rep, [1.0, 0.0])
        system, _ = check_system(rep, measure, left_translation_action(rep.group))
        hd = build_hilbert_dilation(system, TOL)
        u1 = hd.v_ops[1]
        # the lift must exchange the two one-dimensional blocks
        assert abs(u1[0, 0]) <= 1e-12 and abs(u1[1, 1]) <= 1e-12
        assert abs(abs(u1[0, 1]) - 1.0) <= 1e-12
        assert max_abs(hd.v_ops[1] @ hd.T - hd.T @ rep.matrices[1]) <= 1e-12

    def test_uniform_identity_atoms(self):
        m, d = 3, 2
        atoms = np.stack([np.eye(d) / m] * m).astype(complex)
        system = trivial_group_system(atoms)
        hd = build_hilbert_dilation(system, TOL)
        assert hd.dim == m * d
        assert max_abs(hd.Q @ hd.T - np.eye(d)) <= 1e-12


class TestErrors:
    def test_not_positive(self):
        system = trivial_group_system([[[1.0]], [[-1.0]]])
        with pytest.raises(NotPositive):
            build_hilbert_dilation(system, TOL)

    def test_requires_l2_unitary(self):
        rep = shift_rep(2, NormTag.l1())
        from dilatekit.ovm import framing_ovm
        measure = framing_ovm(rep, [[1.0, 0.0]], [[1.0, 0.0]])
        system, _ = check_system(rep, measure, left_translation_action(rep.group))
        with pytest.raises(NonHilbertNorm):
            build_hilbert_dilation(system, TOL)

    def test_block_rank_mismatch_detected(self):
        # bypass validation: atoms of different rank along one orbit
        rep = shift_rep(2, NormTag.l2())
        space = MeasurableSpace(2)
        atoms = np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2))]).astype(complex)
        measure = Ovm(space=space, target=rep.space, atoms=atoms)
        system = ImprimitivitySystem(
            rep=rep, ovm=measure, action=left_translation_action(rep.group),
            ovm_class=OvmClass(probability=False, positive=True, spectral=False))
        with pytest.raises(BlockRankMismatch):
            build_hilbert_dilation(system, TOL)


class TestProperties:
    def test_gram_fidelity(self, rng):
        system = positive_system(3)
        hd = build_hilbert_dilation(system, TOL)
        for _ in range(20):
            d = system.rep.space.dim
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            for w in range(system.ovm.space.atoms):
                # block w of T x holds the class coordinates of phi_{x,{w}}
                lhs = hermitian_inner(hd.rho_atoms[w] @ hd.T @ x,
                                      hd.rho_atoms[w] @ hd.T @ y)
                rhs = hermitian_inner(system.ovm.atoms[w] @ x, y)
                assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))

    def test_pi_partition_of_identity(self):
        system = positive_system(0)
        hd = build_hilbert_dilation(system, TOL)
        m = system.ovm.space.atoms
        total = np.zeros((hd.dim, hd.dim), dtype=complex)
        for w in range(m):
            p = hd.rho_atoms[w]
            assert max_abs(p @ p - p) == 0.0
            assert max_abs(p - p.conj().T) == 0.0
            for w2 in range(w + 1, m):
                assert max_abs(p @ hd.rho_atoms[w2]) == 0.0
            total += p
        assert max_abs(total - np.eye(hd.dim)) == 0.0

    def test_k_dim_is_rank_sum(self):
        for seed in range(6):
            system = positive_system(seed)
            hd = build_hilbert_dilation(system, TOL)
            assert hd.dim == sum(numeric_rank(system.ovm.atoms[w], TOL)
                                 for w in range(system.ovm.space.atoms))

    def test_verify_suite_on_random_positives(self):
        for seed in range(8):
            system = positive_system(seed)
            hd = build_hilbert_dilation(system, TOL)
            records = verify_hilbert_dilation(hd, system, TOL)
            assert len(records) == 7
            assert all(r.passed for r in records), \
                [(r.name, r.max_residual) for r in records if not r.passed]

    def test_projective_extension_flagged(self, rng):
        rep = phased_shift_rep(3, NormTag.l2(), rng)
        system = covariant_system(rep, left_translation_action(rep.group), rng,
                                  positive=True)
        assert max_abs(rep.multiplier.omega - 1.0) > TOL.eps_residual
        hd = build_hilbert_dilation(system, TOL)
        records = verify_hilbert_dilation(hd, system, TOL)
        assert all(r.passed for r in records)
        product_rule = [r for r in records if r.paper_item == "hilbert(3)"][0]
        assert "extension" in product_rule.notes

    @pytest.mark.parametrize("field,index,failing", [
        ("rho_atoms", 0, {"hilbert(1)", "hilbert(5)", "hilbert(6)"}),
        ("T", ..., {"hilbert(1)", "hilbert(7)"}),
        ("v_ops", 1, {"hilbert(2)", "hilbert(3)", "hilbert(4)", "hilbert(5)"}),
    ])
    def test_corrupted_part_fails_its_checks(self, field, index, failing):
        system = positive_system(1)
        hd = build_hilbert_dilation(system, TOL)
        part = getattr(hd, field).copy()
        part[index] *= 0.5
        hd = dataclasses.replace(hd, **{field: part})
        records = verify_hilbert_dilation(hd, system, TOL)
        assert {r.paper_item for r in records if not r.passed} == failing

    def test_adapter_is_valid_dilation_system(self):
        from dilatekit.banach import verify_dilation
        system = positive_system(2)
        hd = build_hilbert_dilation(system, TOL)
        # a Euclidean carrier, and Q = V* exactly
        assert hd.carrier is None
        assert np.array_equal(hd.Q, hd.T.conj().T)
        records = verify_dilation(hd, system, TOL)
        assert all(r.passed for r in records), \
            [(r.name, r.max_residual) for r in records if not r.passed]
