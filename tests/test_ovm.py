import numpy as np
import pytest

from dilatekit.algebra import MeasurableSpace, cyclic_group, trivial_multiplier
from dilatekit.errors import NonHilbertNorm, NonUnitaryRep, WindowCountMismatch
from dilatekit.imprimitivity import ProjectiveRep, check_rep
from dilatekit.linalg import NormTag, NormedSpace, hermitian_inner
from dilatekit.ovm import (Ovm, bessel_bound, bessel_ovm, classify, evaluate,
                           framing_ovm)

from conftest import shift_rep


def diag_projection_ovm():
    atoms = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    return Ovm(space=MeasurableSpace(2), target=NormedSpace(2, NormTag.l2()),
               atoms=atoms)


def scalar_ovm(values):
    atoms = np.array(values, dtype=complex).reshape(-1, 1, 1)
    return Ovm(space=MeasurableSpace(atoms.shape[0]),
               target=NormedSpace(1, NormTag.l2()), atoms=atoms)


class TestEvaluate:
    def test_full_set_is_identity(self):
        ovm = diag_projection_ovm()
        assert np.array_equal(evaluate(ovm, 0b11), np.eye(2))

    def test_singleton(self):
        ovm = diag_projection_ovm()
        assert np.array_equal(evaluate(ovm, 0b01), np.diag([1.0, 0.0]))

    def test_scalar_addition(self):
        ovm = scalar_ovm([0.5, 0.5])
        assert evaluate(ovm, 0b11)[0, 0] == 1.0
        assert evaluate(ovm, 0)[0, 0] == 0.0

    def test_disjoint_additivity_exhaustive(self, rng):
        atoms = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        cases = [diag_projection_ovm(),
                 Ovm(space=MeasurableSpace(4),
                     target=NormedSpace(2, NormTag.l2()), atoms=atoms)]
        for ovm in cases:
            full = ovm.space.full
            for e in range(full + 1):
                for f in range(full + 1):
                    if e & f:
                        continue
                    assert np.allclose(evaluate(ovm, e | f),
                                       evaluate(ovm, e) + evaluate(ovm, f),
                                       atol=1e-12)


class TestClassify:
    def test_projection_atoms(self):
        cls = classify(diag_projection_ovm())
        assert cls.probability and cls.positive and cls.spectral
        assert cls.spectral

    def test_half_half(self):
        cls = classify(scalar_ovm([0.5, 0.5]))
        assert cls.probability and cls.positive and not cls.spectral

    def test_signed(self):
        cls = classify(scalar_ovm([1.0, -1.0]))
        assert not cls.probability and not cls.positive and not cls.spectral

    def test_non_hermitian_not_positive(self):
        atoms = np.array([[[0, 1], [0, 0]], [[1, -1], [0, 1]]], dtype=complex)
        ovm = Ovm(space=MeasurableSpace(2), target=NormedSpace(2, NormTag.l2()),
                  atoms=atoms)
        assert not classify(ovm).positive


class TestBesselOvm:
    def test_z2_swap_window(self):
        rep = shift_rep(2, NormTag.l2())
        measure = bessel_ovm(rep, [1.0, 0.0])
        assert np.allclose(measure.atoms[0], np.diag([1.0, 0.0]))
        assert np.allclose(measure.atoms[1], np.diag([0.0, 1.0]))
        cls = classify(measure)
        assert cls.probability and cls.spectral

    def test_zero_vector(self):
        rep = shift_rep(2, NormTag.l2())
        measure = bessel_ovm(rep, [0.0, 0.0])
        assert np.all(measure.atoms == 0)
        cls = classify(measure)
        assert cls.positive and not cls.probability

    def test_z3_regular_delta(self):
        rep = shift_rep(3, NormTag.l2())
        measure = bessel_ovm(rep, [1.0, 0.0, 0.0])
        for g in range(3):
            expected = np.zeros((3, 3), dtype=complex)
            expected[g, g] = 1.0
            assert np.allclose(measure.atoms[g], expected)
        assert np.allclose(evaluate(measure, 0b111), np.eye(3))

    def test_total_mass_psd_and_bound(self, rng):
        rep = shift_rep(4, NormTag.l2())
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        measure = bessel_ovm(rep, f)
        total = evaluate(measure, measure.space.full)
        assert np.allclose(total, total.conj().T)
        assert np.linalg.eigvalsh(total)[0] >= -1e-12
        assert bessel_bound(measure) > 0
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            val = hermitian_inner(total @ x, x)
            assert val.real >= -1e-9 and abs(val.imag) <= 1e-9

    def test_requires_l2(self):
        rep = shift_rep(2, NormTag.l1())
        with pytest.raises(NonHilbertNorm):
            bessel_ovm(rep, [1.0, 0.0])

    def test_requires_unitary(self):
        group = cyclic_group(2)
        mats = np.stack([np.eye(2), np.diag([1.0, 2.0])]).astype(complex)
        rep = ProjectiveRep(group=group, multiplier=trivial_multiplier(group),
                            space=NormedSpace(2, NormTag.l2()), matrices=mats)
        with pytest.raises(NonUnitaryRep):
            bessel_ovm(rep, [1.0, 0.0])


class TestFramingOvm:
    def test_z2_trivial_scalar(self):
        group = cyclic_group(2)
        mats = np.ones((2, 1, 1), dtype=complex)
        rep, _ = check_rep(group, trivial_multiplier(group),
                           NormedSpace(1, NormTag.l2()), mats)
        measure = framing_ovm(rep, [[1.0]], [[0.5]])
        assert np.allclose(measure.atoms, 0.5 * np.ones((2, 1, 1)))
        assert classify(measure).probability

    def test_z2_swap_windows(self):
        rep = shift_rep(2, NormTag.l2())
        measure = framing_ovm(rep, [[1.0, 0.0]], [[1.0, 0.0]])
        assert np.allclose(measure.atoms[0], np.diag([1.0, 0.0]))
        assert np.allclose(measure.atoms[1], np.diag([0.0, 1.0]))

    def test_zero_duals(self):
        rep = shift_rep(2, NormTag.l2())
        measure = framing_ovm(rep, [[1.0, 0.0]], [[0.0, 0.0]])
        assert np.all(measure.atoms == 0)
        assert not classify(measure).probability

    def test_window_count_mismatch(self):
        rep = shift_rep(2, NormTag.l2())
        with pytest.raises(WindowCountMismatch):
            framing_ovm(rep, [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]])


class TestClassifyOracles:
    """Atom-level criteria against exhaustive all-subsets brute force."""

    def spectral_oracle(self, ovm):
        full = ovm.space.full
        for a in range(full + 1):
            for b in range(full + 1):
                lhs = evaluate(ovm, a & b)
                rhs = evaluate(ovm, a) @ evaluate(ovm, b)
                if np.max(np.abs(lhs - rhs)) > 1e-9:
                    return False
        return True

    def positive_oracle(self, ovm, rng):
        d = ovm.dim
        for mask in range(ovm.space.full + 1):
            val = evaluate(ovm, mask)
            for _ in range(100):
                x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                q = hermitian_inner(val @ x, x)
                scale = 1.0 + abs(q)
                if q.real < -1e-9 * scale or abs(q.imag) > 1e-9 * scale:
                    return False
        return True

    def test_agreement(self, rng):
        cases = [diag_projection_ovm(), scalar_ovm([0.5, 0.5]),
                 scalar_ovm([1.0, -1.0])]
        rep = shift_rep(3, NormTag.l2())
        cases.append(bessel_ovm(rep, rng.standard_normal(3)))
        atoms = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        cases.append(Ovm(space=MeasurableSpace(3),
                         target=NormedSpace(2, NormTag.l2()), atoms=atoms))
        for ovm in cases:
            cls = classify(ovm)
            assert cls.spectral == self.spectral_oracle(ovm)
            assert cls.positive == self.positive_oracle(ovm, rng)
