import numpy as np
import pytest

from dilatekit.algebra import left_translation_action
from dilatekit.banach import build_minimal_dilation, verify_dilation
from dilatekit.errors import (EnumerationCapExceeded, SingularFrameOperator,
                              ZeroWindow)
from dilatekit.framing import (DilatedBasis, FramingSystem,
                               build_dilated_basis, cyclic_shift_framing,
                               standard_basis_framing, verify_basis_dilation,
                               verify_framing)
from dilatekit.imprimitivity import check_system
from dilatekit.linalg import NormTag, Tolerance, max_abs
from dilatekit.ovm import classify, framing_ovm

TOL = Tolerance()

from conftest import z2_swap_framing, z2_trivial_framing
from oracles import z_norm


class TestVerifyFraming:
    def test_trivial_scalar_reconstructs(self):
        records = verify_framing(z2_trivial_framing(), TOL)
        assert all(r.passed for r in records)

    def test_swap_reconstructs(self):
        records = verify_framing(z2_swap_framing(), TOL)
        assert all(r.passed for r in records)

    def test_scaled_duals_report_residual(self):
        fs = z2_trivial_framing()
        scaled = FramingSystem(theta=fs.theta, windows=fs.windows,
                               duals=0.9 * fs.duals)
        records = verify_framing(scaled, TOL)
        recon = [r for r in records if "reconstruction" in r.name][0]
        assert not recon.passed
        assert recon.max_residual == pytest.approx(0.1, abs=1e-12)

    def test_zero_window_rejected(self):
        fs = z2_trivial_framing()
        with pytest.raises(ZeroWindow):
            verify_framing(FramingSystem(theta=fs.theta, windows=[[0.0]],
                                         duals=fs.duals), TOL)


class TestBuildDilatedBasis:
    def test_trivial_z_norm_formula(self):
        db = build_dilated_basis(z2_trivial_framing())
        assert db.z_dim == 2
        for c_e, c_a in [(1.0, 0.5), (1.0, -1.0), (0.3j, 0.4)]:
            expected = max(abs(c_e), abs(c_a), abs(c_e + c_a))
            assert z_norm(db, [c_e, c_a]) == pytest.approx(expected, rel=1e-15)
        t_one = db.T @ np.array([1.0 + 0j])
        assert np.allclose(t_one, [0.5, 0.5])
        assert z_norm(db, t_one) == pytest.approx(1.0)
        assert np.allclose(db.S, [[1.0, 1.0]])
        assert np.allclose(db.lambdas[1], [[0, 1], [1, 0]])

    def test_swap_z_norm_is_euclidean(self, rng):
        db = build_dilated_basis(z2_swap_framing())
        for _ in range(20):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert z_norm(db, c) == pytest.approx(float(np.linalg.norm(c)),
                                                 rel=1e-12)

    def test_single_element_group_recovers_x(self):
        fs = standard_basis_framing(1)
        db = build_dilated_basis(fs)
        assert db.z_dim == 1
        assert max_abs(db.S @ db.T - np.eye(1)) <= 1e-12

    def test_cap_enforced(self):
        # Z = 18 is built; only the Z-norm, a max over 2^18 sets, refuses
        db = build_dilated_basis(cyclic_shift_framing(9, 2, NormTag.l2(),
                                                      seed=0))
        assert db.z_dim == 18
        assert max_abs(db.S @ db.T - np.eye(db.fs.theta.space.dim)) <= 1e-9
        with pytest.raises(EnumerationCapExceeded):
            z_norm(db, np.ones(18))


class TestVerifyBasisDilation:
    def test_worked_examples_pass(self):
        for fs in (z2_trivial_framing(), z2_swap_framing()):
            db = build_dilated_basis(fs)
            records = verify_basis_dilation(db, fs, TOL)
            assert all(r.passed for r in records), \
                [(r.name, r.max_residual) for r in records if not r.passed]

    def test_swap_T_is_isometry_onto(self, rng):
        fs = z2_swap_framing()
        db = build_dilated_basis(fs)
        for _ in range(10):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert z_norm(db, db.T @ x) == pytest.approx(float(np.linalg.norm(x)),
                                                        rel=1e-12)

    def test_corrupted_lambda_multiplier_fails_product_rule(self):
        fs = z2_trivial_framing()
        db = build_dilated_basis(fs)
        db.lambdas[1][db.index(0, 0), db.index(1, 0)] *= -1.0
        records = verify_basis_dilation(db, fs, TOL)
        product = [r for r in records if r.paper_item == "basis(b)"][0]
        assert not product.passed
        assert product.max_residual == pytest.approx(2.0)

    def test_shrunk_T_fails_bounded_below(self):
        # ||x||_X <= ||Tx||_Z holds whenever S T = I, so halving T must fail
        for fs in (z2_trivial_framing(), z2_swap_framing()):
            db = build_dilated_basis(fs)
            db.T = 0.5 * db.T
            records = verify_basis_dilation(db, fs, TOL)
            bounded = [r for r in records if r.paper_item == "basis(i)"][0]
            assert not bounded.passed

    def test_suppression_monotone_under_submask(self, rng):
        # l1 at Z = 3 and lp(3) at Z = 10 (every one of the 2^10 masks)
        for n, r, tag, rows in ((3, 1, NormTag.l1(), 10),
                                (5, 2, NormTag.lp(3.0), 2)):
            db = build_dilated_basis(cyclic_shift_framing(n, r, tag, seed=9))
            z = db.z_dim
            for _ in range(rows):
                c = rng.standard_normal(z) + 1j * rng.standard_normal(z)
                dp = db.suppressed_norms(c)
                full = dp[-1]
                assert np.all(dp <= full + 1e-12)
                for mask in range(1 << z):
                    sub = np.array([c[i] if mask >> i & 1 else 0.0
                                    for i in range(z)], dtype=complex)
                    assert z_norm(db, sub) == pytest.approx(
                        dp[mask], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n,r", [(5, 2), (13, 1)], ids=["Z=10", "Z=13"])
    def test_suppression_reads_no_index_sets(self, monkeypatch, n, r):
        fs = cyclic_shift_framing(n, r, NormTag.lp(3.0), seed=1)
        db = build_dilated_basis(fs)

        def refuse(self, coeffs):
            raise AssertionError("verify_basis_dilation scanned index sets")

        monkeypatch.setattr(DilatedBasis, "suppressed_norms", refuse)
        monkeypatch.setattr(DilatedBasis, "z_batch", refuse)
        records = verify_basis_dilation(db, fs, TOL)
        [record] = [r for r in records if r.paper_item == "basis(h)"]
        assert record.passed and record.max_residual == 0.0
        assert record.notes == "certified by the definition of the Z-norm"


def _suppression_excess(db, rows, rng, masks):
    """The two scans basis(h) made before it was certified: the largest
    ||P_E f||_Z - ||f||_Z by max over submasks, and over random masks E."""
    by_submasks = by_masks = 0.0
    for row in rows:
        dp = db.suppressed_norms(row)
        full = z_norm(db, row)
        assert dp[-1] == pytest.approx(full, rel=1e-12)
        by_submasks = max(by_submasks, float(np.max(dp - dp[-1])))
        for _ in range(masks):
            mask = rng.integers(0, 2, size=db.z_dim).astype(bool)
            by_masks = max(by_masks, z_norm(db, np.where(mask, row, 0.0)) - full)
    return by_submasks, by_masks


class TestSuppressionOracle:
    """basis(h) reads 0 by the definition of the Z-norm; the scans it
    replaced read exactly 0 too: a masked row's subset sums are the full
    row's sums over E n mask, up to the sign of a zero."""

    @pytest.mark.parametrize("z", range(1, 11))
    def test_scans_read_zero(self, rng, z):
        n, r = (z // 2, 2) if z % 2 == 0 else (z, 1)
        for seed, tag in enumerate((NormTag.l1(), NormTag.l2(), NormTag.linf(),
                                    NormTag.lp(3.0))):
            db = build_dilated_basis(cyclic_shift_framing(n, r, tag, seed))
            rows = rng.standard_normal((8, z)) + 1j * rng.standard_normal((8, z))
            assert _suppression_excess(db, rows, rng, masks=8) == (0.0, 0.0)

    def test_scans_read_zero_above_twelve_indices(self, rng):
        db = build_dilated_basis(cyclic_shift_framing(13, 1, NormTag.l1(), 5))
        rows = rng.standard_normal((4, 13)) + 1j * rng.standard_normal((4, 13))
        assert _suppression_excess(db, rows, rng, masks=32) == (0.0, 0.0)


class TestCyclicShiftFraming:
    def test_delta_window_gives_standard_basis(self):
        fs = standard_basis_framing(4)
        records = verify_framing(fs, TOL)
        assert all(r.passed for r in records)
        assert np.allclose(fs.duals, fs.windows)

    def test_random_windows_reconstruct(self):
        fs = cyclic_shift_framing(4, 2, NormTag.l2(), seed=7)
        records = verify_framing(fs, TOL)
        assert all(r.passed for r in records)
        assert max(r.max_residual for r in records) <= 1e-9

    def test_every_lp_tag(self):
        for tag in (NormTag.l1(), NormTag.l2(), NormTag.linf(), NormTag.lp(1.5)):
            fs = cyclic_shift_framing(3, 1, tag, seed=3)
            assert all(r.passed for r in verify_framing(fs, TOL))

    def test_trivial_cycle(self):
        fs = cyclic_shift_framing(1, 1, NormTag.l2(), seed=1)
        assert all(r.passed for r in verify_framing(fs, TOL))

    def test_singular_frame_operator(self):
        # the constant window is shift invariant, so its orbit spans one line
        constant = np.ones((1, 3), dtype=complex)
        with pytest.raises(SingularFrameOperator):
            cyclic_shift_framing(3, 1, NormTag.l2(), seed=0, windows=constant)


class TestInducedMeasureLoop:
    def test_unconditional_basis_induces_spectral_measure(self):
        fs = standard_basis_framing(3)
        measure = framing_ovm(fs.theta, fs.windows, fs.duals)
        assert classify(measure, TOL).spectral

    def test_framing_system_dilates(self):
        fs = cyclic_shift_framing(3, 1, NormTag.linf(), seed=11)
        measure = framing_ovm(fs.theta, fs.windows, fs.duals)
        system, _ = check_system(fs.theta, measure,
                                 left_translation_action(fs.theta.group), TOL)
        ds = build_minimal_dilation(system, TOL)
        records = verify_dilation(ds, system, TOL)
        assert all(r.passed for r in records)

    def test_lambda_norm_bounded_by_theta_norm(self, rng):
        # both are isometries, so the sampled ratio stays at 1
        fs = cyclic_shift_framing(4, 1, NormTag.l1(), seed=2)
        db = build_dilated_basis(fs)
        for h in fs.theta.group.elements:
            for _ in range(25):
                c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                base = z_norm(db, c)
                if base < 1e-12:
                    continue
                assert z_norm(db, db.lambdas[h] @ c) <= base * (1 + 1e-8)
