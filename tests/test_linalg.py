import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatekit import linalg
from dilatekit.algebra import check_semigroup
from dilatekit.errors import (EnumerationCapExceeded, InvalidInput,
                              MultiplierRelationViolation)
from dilatekit.imprimitivity import check_rep
from dilatekit.linalg import (NormTag, NormedSpace, cyclic_shifts, distortion,
                              dual_pair, hermitian_eig, hermitian_inner,
                              invariance_defect, is_isometry, max_abs,
                              max_subset_norms, norm_bound, numeric_rank,
                              product_defects, random_unitary, row_norms,
                              set_bound, shrink_bound, subset_sums, vec_norm)

from conftest import phased_shift_rep
from oracles import pairwise_product_defects

L1, L2, LINF = NormTag.l1(), NormTag.l2(), NormTag.linf()
ALL_TAGS = [L1, L2, LINF, NormTag.lp(3.0)]


class TestVecNorm:
    def test_pythagorean(self):
        assert vec_norm([3, 4], L2) == 5.0

    def test_l1(self):
        assert vec_norm([1, -1], L1) == 2.0

    def test_general_p(self):
        assert vec_norm([1, 1], NormTag.lp(3.0)) == pytest.approx(2.0 ** (1 / 3),
                                                                  rel=1e-15)

    def test_linf(self):
        assert vec_norm([1j, -2, 0.5], LINF) == 2.0

    def test_zero_iff_zero(self):
        assert vec_norm([0, 0, 0], L2) == 0.0
        assert vec_norm(np.zeros(0), L2) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            vec_norm([1.0, np.inf], L1)
        with pytest.raises(InvalidInput):
            vec_norm([np.nan + 0j], L2)

    @given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=6),
           st.floats(min_value=0.01, max_value=100.0),
           st.sampled_from(range(4)))
    @settings(max_examples=60, deadline=None)
    def test_homogeneous(self, entries, scale, tag_idx):
        tag = ALL_TAGS[tag_idx]
        v = np.array(entries)
        assert vec_norm(scale * v, tag) == pytest.approx(
            scale * vec_norm(v, tag), rel=1e-10, abs=1e-12)

    def test_row_norms_matches_scalar(self, rng):
        rows = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        for tag in ALL_TAGS:
            batch = row_norms(rows, tag)
            for i in range(7):
                assert batch[i] == vec_norm(rows[i], tag)


class TestIsIsometry:
    def test_identity_all_tags(self):
        for tag in ALL_TAGS:
            assert is_isometry(np.eye(3), tag).ok

    def test_permutation_l1(self):
        assert is_isometry([[0, 1], [1, 0]], L1).ok

    def test_phased_permutation_lp(self):
        m = np.array([[0, 1j], [np.exp(0.7j), 0]])
        for tag in ALL_TAGS:
            assert is_isometry(m, tag).ok

    def test_shear_fails_l2_with_witness(self):
        res = is_isometry([[1, 1], [0, 1]], L2)
        assert not res.ok
        w = res.witness
        assert w is not None
        moved = vec_norm(np.array([[1, 1], [0, 1]]) @ w, L2)
        assert abs(moved - vec_norm(w, L2)) > 1e-3

    def test_scaled_permutation_fails_l1(self):
        res = is_isometry([[0, 2], [1, 0]], L1)
        assert not res.ok and res.residual == pytest.approx(1.0)

    def test_unitary_not_lp_isometry(self, rng):
        # a generic rotation preserves l2 but not l1
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        assert is_isometry(rot, L2).ok
        assert not is_isometry(rot, L1).ok

    def test_isometry_preserves_sampled_norms(self, rng):
        # spec invariant: certified isometries move no vector's norm
        cases = [(np.array([[0, 1j], [1, 0]]), L1),
                 (np.array([[0, 1], [1, 0]]), LINF)]
        cases.append((random_unitary(rng, 4), L2))
        for mat, tag in cases:
            assert is_isometry(mat, tag).ok
            for _ in range(100):
                v = rng.standard_normal(mat.shape[0]) \
                    + 1j * rng.standard_normal(mat.shape[0])
                assert abs(vec_norm(mat @ v, tag) - vec_norm(v, tag)) \
                    <= 1e-8 * vec_norm(v, tag)


class TestHermitianEig:
    def test_diagonal(self):
        evals, _ = hermitian_eig(np.diag([1.0, 0.0]))
        assert np.allclose(evals, [1.0, 0.0])

    def test_rank_one_projection(self):
        evals, evecs = hermitian_eig(np.full((2, 2), 0.5))
        assert evals == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_zero_matrix(self):
        evals, _ = hermitian_eig(np.zeros((3, 3)))
        assert np.all(evals == 0.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidInput):
            hermitian_eig([[0, 1], [0, 0]])

    def test_reconstruction_residual(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = a + a.conj().T
            evals, evecs = hermitian_eig(h)
            recon = (evecs * evals) @ evecs.conj().T
            assert np.linalg.norm(h - recon) <= 1e-9 * (1 + np.linalg.norm(h))
            assert np.all(np.diff(evals) <= 1e-12)


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_rank_one_outer(self):
        assert numeric_rank(np.outer([1, 1], [1, 1])) == 1

    def test_tiny_singular_value_dropped(self):
        assert numeric_rank(np.diag([1.0, 1e-15])) == 1

    def test_zero(self):
        assert numeric_rank(np.zeros((2, 2))) == 0


class TestDualPair:
    def test_direct_sum(self):
        assert dual_pair([1, 2], [3, 4]) == 11

    def test_bilinear_no_conjugation(self):
        assert dual_pair([1j, 0], [1, 0]) == 1j

    def test_dual_basis(self, rng):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        e1 = np.zeros(4)
        e1[0] = 1.0
        assert dual_pair(x, e1) == x[0]

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            dual_pair([1, 2], [1])

    def test_adjoint_is_transpose(self, rng):
        # spec invariant: <Mx, f> = <x, M^T f> exactly up to 1e-12
        for _ in range(30):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert abs(dual_pair(m @ x, f) - dual_pair(x, m.T @ f)) <= 1e-12

    def test_hermitian_inner_conjugates(self):
        assert hermitian_inner([1j], [1j]) == pytest.approx(1.0)


class TestSubsetSums:
    def test_matches_membership(self, rng):
        values = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        sums = subset_sums(values)
        for mask in range(16):
            manual = np.zeros(3, dtype=complex)
            for w in range(4):
                if mask >> w & 1:
                    manual = manual + values[w]
            assert np.array_equal(sums[mask], manual)

    @pytest.mark.parametrize("m", [17, 62])
    def test_refuses_more_than_16_rows(self, m):
        # the one 2^m guard: at m = 62 an allocation would fail first
        with pytest.raises(EnumerationCapExceeded) as exc:
            subset_sums(np.zeros((m, 1), dtype=complex))
        assert (exc.value.size, exc.value.cap) == (m, 16)
        with pytest.raises(EnumerationCapExceeded):
            max_subset_norms(np.ones((m, 1, 1), dtype=complex), L2)

    def test_max_abs_empty(self):
        assert max_abs(np.zeros((0, 2))) == 0.0


class TestSetBound:
    @pytest.mark.parametrize("m", range(1, 10))
    def test_covers_the_exhaustive_scan(self, m):
        # the scan over all 2^m subset sums is the oracle the bound replaces
        rng = np.random.default_rng(m)
        defects = (rng.standard_normal((m, 3, 2))
                   + 1j * rng.standard_normal((m, 3, 2)))
        scan = max_abs(subset_sums(defects))
        assert scan <= set_bound(defects) <= m * max_abs(defects)

    def test_streamed_stacks_sum_as_one(self, rng):
        defects = rng.standard_normal((7, 3, 3)) + 1j * rng.standard_normal(
            (7, 3, 3))
        stacks = (defects[lo:lo + 3] for lo in range(0, 7, 3))
        assert set_bound(stacks) == pytest.approx(set_bound(defects),
                                                  rel=1e-15)

    def test_attained_when_entries_add_in_phase(self, rng):
        defects = np.abs(rng.standard_normal((5, 2, 2))) * np.exp(0.3j)
        assert set_bound(defects) == pytest.approx(
            max_abs(subset_sums(defects)), rel=1e-14)


class TestNormBound:
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.label())
    def test_bounds_every_sampled_ratio(self, rng, tag):
        for _ in range(20):
            m = _random_values(rng, (4, 4))
            x = _random_values(rng, (64, 4))
            ratios = row_norms(x @ m.T, tag) / row_norms(x, tag)
            assert np.max(ratios) <= norm_bound(m, tag) * (1 + 1e-12)
            assert np.max(1.0 - ratios) <= shrink_bound(m, tag) + 1e-12
            assert np.max(np.abs(ratios - 1.0)) <= distortion(m, tag) + 1e-12

    def test_exact_on_a_diagonal(self):
        m = np.diag([3.0, -0.5j, 1.0])
        for tag in ALL_TAGS:
            assert norm_bound(m, tag) == pytest.approx(3.0, rel=1e-15)
            assert distortion(m, tag) == pytest.approx(2.0, rel=1e-15)
            assert shrink_bound(m, tag) == pytest.approx(0.5, rel=1e-15)

    def test_phased_permutation_has_no_distortion(self):
        m = 1j * cyclic_shifts(5)[2]
        for tag in (L1, LINF, NormTag.lp(3.0)):
            assert distortion(m, tag) == 0.0

    def test_singular_shrinks_to_zero(self):
        assert shrink_bound(np.diag([1.0, 0.0]), L2) == 1.0
        assert distortion(np.zeros((0, 0)), L1) == 0.0


def _reference_max_norms(values, tag):
    """Every subset norm through row_norms, then the max over sets."""
    m, count, d = values.shape
    norms = row_norms(subset_sums(values).reshape(-1, d), tag)
    return norms.reshape(1 << m, count).max(axis=0)


def _random_values(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMaxSubsetNorms:
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.label())
    @pytest.mark.parametrize("shape", [(1, 5, 3), (4, 7, 2), (6, 33, 5),
                                       (9, 4, 1)])
    def test_matches_every_subset_norm_bit_for_bit(self, rng, tag, shape):
        values = _random_values(rng, shape)
        assert np.array_equal(max_subset_norms(values, tag),
                              _reference_max_norms(values, tag))

    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.label())
    def test_ragged_last_chunk(self, rng, monkeypatch, tag):
        m, count, d = 5, 10, 3
        values = _random_values(rng, (m, count, d))
        # room for 3 samples' subset sums per chunk: chunks of 3, 3, 3, 1
        budget = 3 * (16 << m) * d
        monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", budget)
        chunks = []

        def recording(chunk):
            chunks.append(chunk.shape[1])
            out = subset_sums(chunk)
            assert out.nbytes <= budget
            return out

        monkeypatch.setattr(linalg, "subset_sums", recording)
        got = max_subset_norms(values, tag)
        assert chunks == [3, 3, 3, 1]
        assert np.array_equal(got, _reference_max_norms(values, tag))

    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.label())
    @pytest.mark.parametrize("shape", [(0, 4, 3), (3, 0, 2), (3, 4, 0)])
    def test_empty_cases(self, tag, shape):
        # no atoms: only the empty set, whose sum is 0; no coordinates:
        # every vector is 0; no samples: nothing to return
        got = max_subset_norms(np.zeros(shape, dtype=complex), tag)
        assert got.shape == (shape[1],)
        assert np.array_equal(got, np.zeros(shape[1]))


class TestInvarianceDefect:
    def test_invariant_operators_give_zero(self):
        line = np.eye(3, dtype=complex)[:, :1]
        assert invariance_defect(line, [np.diag([2.0, 3.0, 4.0]), np.eye(3)]) == 0.0

    def test_non_invariant_operator_gives_positive_defect(self):
        line = np.eye(3, dtype=complex)[:, :1]
        shift = cyclic_shifts(3)[1]  # e_0 -> e_1 leaves span(e_0)
        assert invariance_defect(line, [np.eye(3), shift]) == 1.0


def _unit_phases(rng, shape):
    return np.exp(2j * np.pi * rng.random(shape))


class TestProductDefects:
    """The stacked kernel equals the pairwise loop of tests/oracles.py bit
    for bit."""

    @staticmethod
    def _same_as_loop(ops, omega, table):
        got = product_defects(ops, omega, table)
        want = pairwise_product_defects(ops, omega, lambda s, t: table[s, t])
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("seed", range(40))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 11))
        ops = _random_values(rng, (n, d, d))
        table = rng.integers(0, n, size=(n, n))
        self._same_as_loop(ops, _unit_phases(rng, (n, n)), table)
        self._same_as_loop(ops, np.ones((n, n)), table)

    def test_semigroup_table(self, rng):
        # the unit 0 and an absorbing element 1 form a semigroup, no group
        table = check_semigroup([[0, 1], [1, 1]]).table
        ops = np.stack([np.eye(3), np.diag([1.0, 0.0, 0.0])]).astype(complex)
        assert not self._same_as_loop(ops, np.ones((2, 2)), table).any()
        noisy = ops + 1e-3 * _random_values(rng, ops.shape)
        assert self._same_as_loop(noisy, _unit_phases(rng, (2, 2)), table).all()

    def test_empty_stack(self):
        ops = np.zeros((3, 0, 0), dtype=complex)
        table = np.arange(3)[None, :].repeat(3, axis=0)
        got = self._same_as_loop(ops, np.ones((3, 3)), table)
        assert np.array_equal(got, np.zeros((3, 3)))

    def test_check_rep_reports_the_first_violation_of_the_loop(self, rng):
        # W_3 off by 1e-6: row-major, (1, 2) is the first pair that reads it
        rep = phased_shift_rep(4, NormTag.l2(), rng)
        mats = rep.matrices.copy()
        mats[3] = mats[3] + 1e-6 * _random_values(rng, (4, 4))
        table = rep.group.table
        loop = pairwise_product_defects(mats, rep.multiplier.omega,
                                        rep.group.mul)
        first = next((s, t) for s in range(4) for t in range(4)
                     if loop[s, t] > 1e-9)
        assert first == (1, 2)
        with pytest.raises(MultiplierRelationViolation) as exc:
            check_rep(rep.group, rep.multiplier, NormedSpace(4, NormTag.l2()),
                      mats)
        assert exc.value.pair == first
        assert exc.value.residual == loop[first]
        assert np.array_equal(product_defects(mats, rep.multiplier.omega,
                                              table), loop)

    def test_check_rep_records_the_largest_defect_of_the_loop(self, rng):
        rep = phased_shift_rep(5, NormTag.l2(), rng)
        _, records = check_rep(rep.group, rep.multiplier, rep.space,
                               rep.matrices)
        [relation] = [r for r in records
                      if r.paper_item == "valid.rep.relation"]
        loop = pairwise_product_defects(rep.matrices, rep.multiplier.omega,
                                        rep.group.mul)
        assert relation.max_residual == float(loop.max())
