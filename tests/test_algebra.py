import numpy as np
import pytest

from dilatekit.algebra import (MeasurableSpace, act_on_set, check_action,
                               check_group, check_multiplier, check_semigroup,
                               coboundary_multiplier, cyclic_group,
                               left_translation_action, orbits, symmetric_group)
from dilatekit.errors import (ActionViolation, AssociativityViolation,
                              CocycleViolation, InvalidInput, ModulusViolation,
                              NoIdentity, NoInverse, NormalizationViolation)
from dilatekit.linalg import subset_sums

from conftest import z2_on_five_points


def brute_force_cocycle(table, omega):
    """Independent oracle: scan all n^3 triples of the cocycle identity."""
    n = table.shape[0]
    for s in range(n):
        for t in range(n):
            for u in range(n):
                lhs = omega[s, t] * omega[table[s, t], u]
                rhs = omega[s, table[t, u]] * omega[t, u]
                if abs(lhs - rhs) > 1e-9:
                    return False
    return True


class TestGroups:
    def test_z2(self):
        g = check_group([[0, 1], [1, 0]])
        assert g.order == 2 and g.identity == 0 and g.inv(1) == 1

    def test_z3(self):
        g = cyclic_group(3)
        assert g.mul(1, 2) == 0
        assert list(g.inverses) == [0, 2, 1]

    def test_missing_inverse(self):
        with pytest.raises(NoInverse) as exc:
            check_group([[0, 1], [0, 0]])
        assert exc.value.element == 1

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            check_group([[1, 1], [1, 1]])

    def test_non_associative(self):
        # the smallest nonassociative loop: Latin square with identity
        loop = [[0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 3, 4, 0, 1],
                [3, 4, 1, 2, 0],
                [4, 2, 0, 1, 3]]
        with pytest.raises(AssociativityViolation):
            check_group(loop)

    def test_semigroup_without_inverses(self):
        sg = check_semigroup([[0, 1], [1, 1]])
        assert sg.identity == 0 and not sg.is_group

    def test_semigroup_requires_unit(self):
        with pytest.raises(NoIdentity):
            check_semigroup([[0, 1], [0, 0]])

    def test_symmetric_group_orders(self):
        assert symmetric_group(3).order == 6
        assert symmetric_group(2).order == 2

    def test_out_of_range_entries(self):
        with pytest.raises(InvalidInput):
            check_group([[0, 2], [2, 0]])


class TestMultipliers:
    def test_trivial_symmetric(self):
        for group in (cyclic_group(4), symmetric_group(3)):
            mult = check_multiplier(group, np.ones((group.order, group.order)))
            assert mult.symmetric

    def test_z2_sign_multiplier_not_symmetric(self):
        g = cyclic_group(2)
        omega = np.ones((2, 2), dtype=complex)
        omega[1, 1] = -1.0
        mult = check_multiplier(g, omega)
        assert not mult.symmetric
        assert brute_force_cocycle(g.table, omega)

    def test_normalization_violation(self):
        g = cyclic_group(2)
        omega = np.ones((2, 2), dtype=complex)
        omega[0, 1] = -1.0
        with pytest.raises(NormalizationViolation):
            check_multiplier(g, omega)

    def test_modulus_violation(self):
        g = cyclic_group(2)
        omega = np.ones((2, 2), dtype=complex)
        omega[1, 1] = 2.0
        with pytest.raises(ModulusViolation):
            check_multiplier(g, omega)

    def test_cocycle_violation(self):
        g = cyclic_group(3)
        omega = np.ones((3, 3), dtype=complex)
        omega[1, 1] = -1.0
        assert not brute_force_cocycle(g.table, omega)
        with pytest.raises(CocycleViolation):
            check_multiplier(g, omega)

    def test_accepts_exactly_the_brute_force_tables(self, rng):
        # oracle equivalence on random unit-modulus tables
        for group in (cyclic_group(2), cyclic_group(3), cyclic_group(4)):
            n = group.order
            for _ in range(40):
                omega = np.exp(2j * np.pi * rng.integers(0, 4, (n, n)) / 4.0)
                omega[group.identity, :] = 1.0
                omega[:, group.identity] = 1.0
                expected = brute_force_cocycle(group.table, omega)
                try:
                    check_multiplier(group, omega)
                    accepted = True
                except CocycleViolation:
                    accepted = False
                assert accepted == expected

    def test_coboundary_always_valid(self, rng):
        for group in (cyclic_group(4), symmetric_group(3)):
            phases = np.exp(2j * np.pi * rng.random(group.order))
            phases[group.identity] = 1.0
            check_multiplier(group, coboundary_multiplier(group, phases))


class TestActions:
    def test_swap_action_on_set(self):
        g = cyclic_group(2)
        action = left_translation_action(g)
        assert act_on_set(action, 1, 0b01) == 0b10

    def test_full_set_fixed(self):
        action = z2_on_five_points()
        full = action.space.full
        assert act_on_set(action, 1, full) == full
        assert act_on_set(action, 1, 0) == 0

    def test_z3_translation_example(self):
        action = left_translation_action(cyclic_group(3))
        assert act_on_set(action, 1, 0b011) == 0b110

    def test_compatibility_and_identity(self):
        for action in (left_translation_action(symmetric_group(3)),
                       z2_on_five_points()):
            g = action.group
            full = action.space.full
            for s in g.elements:
                for t in g.elements:
                    for mask in range(full + 1):
                        assert (act_on_set(action, s, act_on_set(action, t, mask))
                                == act_on_set(action, g.mul(s, t), mask))
            for mask in range(full + 1):
                assert act_on_set(action, g.identity, mask) == mask

    def test_union_intersection_axioms(self):
        action = left_translation_action(cyclic_group(3))
        for s in action.group.elements:
            for e in range(8):
                for f in range(8):
                    assert (act_on_set(action, s, e | f)
                            == act_on_set(action, s, e) | act_on_set(action, s, f))
                    assert (act_on_set(action, s, e & f)
                            == act_on_set(action, s, e) & act_on_set(action, s, f))

    def test_bad_actions_rejected(self):
        g = cyclic_group(2)
        space = MeasurableSpace(2)
        with pytest.raises(ActionViolation):
            check_action(g, space, [[1, 0], [0, 1]])  # identity must act as id
        with pytest.raises(ActionViolation):
            # not compatible: (1 1) . 1 = 1, but 1 . (1 . 1) = 0
            check_action(g, space, [[0, 1], [0, 0]])
        with pytest.raises(ActionViolation):
            check_action(g, space, [[0, 1], [0, 2]])  # out of range

    def test_orbits_partition(self):
        action = z2_on_five_points()
        parts = orbits(action)
        covered = sorted(w for _, reach in parts for w in reach)
        assert covered == [0, 1, 2, 3, 4]
        sizes = sorted(len(reach) for _, reach in parts)
        assert sizes == [1, 2, 2]


class TestMeasurableSpace:
    def test_bounds(self):
        with pytest.raises(InvalidInput):
            MeasurableSpace(0)
        with pytest.raises(InvalidInput):
            MeasurableSpace(63)

    def test_set_sum_is_the_ascending_loop(self, rng):
        space = MeasurableSpace(6)
        values = (rng.standard_normal((6, 3, 2))
                  + 1j * rng.standard_normal((6, 3, 2)))
        masks = [0, space.full] + [int(k) for k in rng.integers(1, space.full, 20)]
        sums = subset_sums(values)
        for mask in masks:
            expected = np.zeros((3, 2), dtype=complex)
            for w in range(6):
                if mask >> w & 1:
                    expected += values[w]
            assert np.array_equal(space.set_sum(values, mask), expected)
            assert np.array_equal(space.set_sum(values, mask), sums[mask])
        for mask in (-1, space.full + 1):
            with pytest.raises(InvalidInput):
                space.set_sum(values, mask)

    def test_members(self):
        space = MeasurableSpace(4)
        assert space.members(0b1010) == [1, 3]
        assert space.full == 0b1111
        with pytest.raises(InvalidInput):
            space.require(1 << 4)
