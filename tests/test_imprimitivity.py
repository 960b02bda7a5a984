import numpy as np
import pytest

from dilatekit.algebra import (act_on_set, cyclic_group,
                               left_translation_action, trivial_multiplier)
from dilatekit.errors import (CovarianceViolation, MultiplierRelationViolation,
                              NotIsometry, ShapeMismatch, UnitViolation)
from dilatekit.imprimitivity import check_rep, check_system
from dilatekit.linalg import NormTag, NormedSpace, Tolerance, max_abs
from dilatekit.ovm import Ovm, bessel_ovm, evaluate, framing_ovm

from conftest import general_system, phased_shift_rep, shift_rep
from oracles import symmetric_inverse_residual

TOL = Tolerance()


class TestCheckRep:
    def test_trivial_rep(self):
        g = cyclic_group(3)
        mats = np.stack([np.eye(2)] * 3).astype(complex)
        rep, records = check_rep(g, trivial_multiplier(g),
                                 NormedSpace(2, NormTag.l2()), mats)
        assert all(r.passed for r in records)

    def test_z2_swap(self):
        rep = shift_rep(2, NormTag.l2())
        assert max_abs(rep.matrices[1] @ rep.matrices[1] - np.eye(2)) == 0

    def test_sign_multiplier_mismatch(self):
        g = cyclic_group(2)
        omega = np.ones((2, 2), dtype=complex)
        omega[1, 1] = -1.0
        from dilatekit.algebra import check_multiplier
        mult = check_multiplier(g, omega)
        mats = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
        with pytest.raises(MultiplierRelationViolation):
            check_rep(g, mult, NormedSpace(2, NormTag.l2()), mats)

    def test_unit_violation(self):
        g = cyclic_group(2)
        mats = np.stack([2 * np.eye(2), np.eye(2)]).astype(complex)
        with pytest.raises(UnitViolation):
            check_rep(g, trivial_multiplier(g), NormedSpace(2, NormTag.l2()), mats)

    def test_not_isometry(self):
        g = cyclic_group(2)
        # a non-isometric involution: satisfies the product relation, fails l2
        shear = np.array([[1.0, 1.0], [0.0, -1.0]])
        mats = np.stack([np.eye(2), shear])
        with pytest.raises(NotIsometry) as exc:
            check_rep(g, trivial_multiplier(g), NormedSpace(2, NormTag.l2()),
                      mats.astype(complex))
        assert exc.value.element == 1

    def test_shape_mismatch(self):
        g = cyclic_group(2)
        with pytest.raises(ShapeMismatch):
            check_rep(g, trivial_multiplier(g), NormedSpace(2, NormTag.l2()),
                      np.zeros((2, 3, 3), dtype=complex))

    def test_phased_shifts_all_norms(self, rng):
        for tag in (NormTag.l1(), NormTag.l2(), NormTag.linf(), NormTag.lp(1.5)):
            rep = phased_shift_rep(4, tag, rng)
            assert rep.space.norm == tag


class TestCheckSystem:
    def test_bessel_system_valid(self):
        rep = shift_rep(2, NormTag.l2())
        measure = bessel_ovm(rep, [1.0, 0.0])
        system, records = check_system(rep, measure,
                                       left_translation_action(rep.group))
        assert system.ovm_class.spectral
        assert all(r.passed for r in records)

    def test_trivial_group_always_covariant(self, rng):
        g = cyclic_group(1)
        mats = np.eye(3, dtype=complex)[None]
        rep, _ = check_rep(g, trivial_multiplier(g), NormedSpace(3, NormTag.l2()),
                           mats)
        atoms = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        from dilatekit.algebra import MeasurableSpace, check_action
        space = MeasurableSpace(4)
        action = check_action(g, space, np.arange(4)[None, :])
        system, _ = check_system(rep, Ovm(space=space, target=rep.space,
                                          atoms=atoms), action)
        assert not (system.ovm_class.positive or system.ovm_class.spectral)

    def test_perturbed_atom_reports_residual(self):
        rep = shift_rep(2, NormTag.l2())
        measure = bessel_ovm(rep, [1.0, 0.0])
        atoms = measure.atoms.copy()
        atoms[0] += np.diag([0.0, -0.5])
        broken = Ovm(space=measure.space, target=measure.target, atoms=atoms)
        with pytest.raises(CovarianceViolation) as exc:
            check_system(rep, broken, left_translation_action(rep.group))
        assert exc.value.residual == pytest.approx(0.5)

    def test_full_set_covariance_oracle(self):
        # atom-level acceptance must imply covariance for every subset
        for seed in range(6):
            system = general_system(seed)
            rep, measure, action = system.rep, system.ovm, system.action
            for s in rep.group.elements:
                ws = rep.matrices[s]
                for mask in range(measure.space.full + 1):
                    lhs = ws @ evaluate(measure, mask)
                    rhs = evaluate(measure, act_on_set(action, s, mask)) @ ws
                    assert max_abs(lhs - rhs) <= 1e-9

    def test_symmetric_multiplier_inverse_law(self):
        rep = shift_rep(4, NormTag.l2())
        assert rep.multiplier.symmetric
        assert symmetric_inverse_residual(rep) <= 1e-12

    def test_per_element_residuals_recorded(self):
        system = general_system(3)
        grid = system.covariance_residuals
        assert grid.shape == (system.rep.group.order, system.ovm.space.atoms)
        assert float(grid.max()) <= 1e-9

    def test_framing_induced_covariance(self):
        # single-window framing through an honest isometric rep: the induced
        # measure is covariant for every group element and every subset
        from dilatekit.framing import cyclic_shift_framing
        fs = cyclic_shift_framing(3, 1, NormTag.l2(), seed=5)
        measure = framing_ovm(fs.theta, fs.windows, fs.duals)
        action = left_translation_action(fs.theta.group)
        system, _ = check_system(fs.theta, measure, action)
        for g in fs.theta.group.elements:
            wg = fs.theta.matrices[g]
            wg_inv = np.linalg.inv(wg)
            for mask in range(8):
                lhs = wg @ evaluate(measure, mask) @ wg_inv
                rhs = evaluate(measure, act_on_set(action, g, mask))
                assert max_abs(lhs - rhs) <= 1e-9
