"""Shared builders: representations on small groups, covariant measures
constructed by orbit transport with stabilizer averaging, and the seeded
system families the acceptance suites draw from."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from dilatekit.algebra import (FiniteGroup, GroupAction, MeasurableSpace,
                               check_action, check_multiplier,
                               cyclic_group, left_translation_action, orbits,
                               symmetric_group, trivial_multiplier,
                               coboundary_multiplier)
from dilatekit.imprimitivity import (ImprimitivitySystem, ProjectiveRep,
                                     check_rep, check_system)
from dilatekit.linalg import (NormTag, NormedSpace, Tolerance, cyclic_shifts,
                              random_cyclic_unitaries, random_unitary)
from dilatekit.ovm import Ovm

TOL = Tolerance()


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def shift_rep(n: int, tag: NormTag) -> ProjectiveRep:
    group = cyclic_group(n)
    rep, _ = check_rep(group, trivial_multiplier(group), NormedSpace(n, tag),
                       cyclic_shifts(n))
    return rep


def phased_shift_rep(n: int, tag: NormTag, rng) -> ProjectiveRep:
    """Cyclic shifts with random scalar phases: a projective isometric rep
    (for every lp) whose multiplier is the associated coboundary."""
    group = cyclic_group(n)
    phases = np.exp(2j * np.pi * rng.random(n))
    phases[group.identity] = 1.0
    omega = check_multiplier(group, coboundary_multiplier(group, phases))
    mats = phases[:, None, None] * cyclic_shifts(n)
    rep, _ = check_rep(group, omega, NormedSpace(n, tag), mats)
    return rep


def perm_matrices(group: FiniteGroup, perms) -> np.ndarray:
    """Permutation matrices P_p with P_p e_k = e_{p(k)}."""
    n = len(perms[0])
    out = np.zeros((group.order, n, n), dtype=np.complex128)
    for i, p in enumerate(perms):
        for k in range(n):
            out[i, p[k], k] = 1.0
    return out


def s3_natural_rep(tag: NormTag, phases=None) -> ProjectiveRep:
    group = symmetric_group(3)
    perms = list(itertools.permutations(range(3)))
    mats = perm_matrices(group, perms)
    if phases is None:
        mult = trivial_multiplier(group)
    else:
        phases = np.asarray(phases, dtype=np.complex128)
        phases[group.identity] = 1.0
        mult = check_multiplier(group, coboundary_multiplier(group, phases))
        mats = phases[:, None, None] * mats
    rep, _ = check_rep(group, mult, NormedSpace(3, tag), mats)
    return rep


def s3_natural_action(group: FiniteGroup) -> GroupAction:
    perms = list(itertools.permutations(range(3)))
    pm = np.array([[p[w] for w in range(3)] for p in perms], dtype=np.int64)
    return check_action(group, MeasurableSpace(3), pm)


def unitary_rep_of_order(group: FiniteGroup, d: int, rng) -> ProjectiveRep:
    """Random unitary representation of a cyclic group on C^d via root-of-
    unity eigenphases."""
    rep, _ = check_rep(group, trivial_multiplier(group), NormedSpace(d, NormTag.l2()),
                       random_cyclic_unitaries(rng, group.order, d))
    return rep


def involution_rep(d: int, rng) -> np.ndarray:
    """A random unitary involution on C^d (an order-2 representation)."""
    basis = random_unitary(rng, d)
    signs = np.where(rng.integers(0, 2, size=d) == 0, 1.0, -1.0)
    return (basis * signs) @ basis.conj().T


def covariant_atoms(rep: ProjectiveRep, action: GroupAction, rng,
                    positive: bool = False) -> np.ndarray:
    """Atoms satisfying W_s A_w W_s^-1 = A_{s.w} by construction.

    One seed matrix per orbit, averaged over the stabilizer of the orbit
    base and transported along a transversal.
    """
    d = rep.space.dim
    m = action.space.atoms
    atoms = np.zeros((m, d, d), dtype=np.complex128)
    inv = np.linalg.inv
    for base, reach in orbits(action):
        seed = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if positive:
            seed = seed @ seed.conj().T / d
        stab = [s for s in rep.group.elements if action.point(s, base) == base]
        avg = sum(rep.matrices[s] @ seed @ inv(rep.matrices[s]) for s in stab)
        avg /= len(stab)
        for w, t in reach.items():
            atoms[w] = rep.matrices[t] @ avg @ inv(rep.matrices[t])
    return atoms


def covariant_system(rep: ProjectiveRep, action: GroupAction, rng,
                     positive: bool = False) -> ImprimitivitySystem:
    atoms = covariant_atoms(rep, action, rng, positive=positive)
    measure = Ovm(space=action.space, target=rep.space, atoms=atoms)
    system, _ = check_system(rep, measure, action, TOL)
    return system


def z2_on_five_points() -> GroupAction:
    """Z_2 acting on 5 atoms by two swaps and a fixed point."""
    group = cyclic_group(2)
    pm = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 2, 4]], dtype=np.int64)
    return check_action(group, MeasurableSpace(5), pm)


def general_system(seed: int) -> ImprimitivitySystem:
    """Seeded imprimitivity systems over Z_2, Z_3, Z_4, S_3 with d <= 4 and
    m <= 5, mixing norms, multipliers, and non-positive measures."""
    rng = rng_for(seed)
    recipe = seed % 8
    if recipe == 0:
        rep = shift_rep(2, NormTag.l2())
        return covariant_system(rep, left_translation_action(rep.group), rng)
    if recipe == 1:
        rep = phased_shift_rep(3, NormTag.l1(), rng)
        return covariant_system(rep, left_translation_action(rep.group), rng)
    if recipe == 2:
        rep = phased_shift_rep(4, NormTag.linf(), rng)
        return covariant_system(rep, left_translation_action(rep.group), rng)
    if recipe == 3:
        rep = s3_natural_rep(NormTag.l2())
        return covariant_system(rep, s3_natural_action(rep.group), rng)
    if recipe == 4:
        group = cyclic_group(2)
        d = 2 + seed % 3
        mats = np.stack([np.eye(d, dtype=np.complex128), involution_rep(d, rng)])
        rep, _ = check_rep(group, trivial_multiplier(group),
                           NormedSpace(d, NormTag.l2()), mats)
        return covariant_system(rep, z2_on_five_points(), rng)
    if recipe == 5:
        group = cyclic_group(3)
        rep = unitary_rep_of_order(group, 4, rng)
        return covariant_system(rep, left_translation_action(group), rng,
                                positive=True)
    if recipe == 6:
        group = cyclic_group(4)
        rep = unitary_rep_of_order(group, 2, rng)
        return covariant_system(rep, left_translation_action(group), rng)
    phases = np.exp(2j * np.pi * rng.random(6))
    rep = s3_natural_rep(NormTag.l1(), phases)
    return covariant_system(rep, s3_natural_action(rep.group), rng)


def positive_system(seed: int) -> ImprimitivitySystem:
    """Seeded positive systems on l2 (unitary reps, PSD covariant atoms)."""
    rng = rng_for(seed)
    recipe = seed % 4
    if recipe == 0:
        rep = shift_rep(2 + seed % 4, NormTag.l2())
        return covariant_system(rep, left_translation_action(rep.group), rng,
                                positive=True)
    if recipe == 1:
        rep = s3_natural_rep(NormTag.l2())
        return covariant_system(rep, s3_natural_action(rep.group), rng,
                                positive=True)
    if recipe == 2:
        group = cyclic_group(2)
        d = 2 + seed % 3
        mats = np.stack([np.eye(d, dtype=np.complex128), involution_rep(d, rng)])
        rep, _ = check_rep(group, trivial_multiplier(group),
                           NormedSpace(d, NormTag.l2()), mats)
        return covariant_system(rep, z2_on_five_points(), rng, positive=True)
    group = cyclic_group(3 + seed % 3)
    rep = unitary_rep_of_order(group, 1 + seed % 4, rng)
    return covariant_system(rep, left_translation_action(group), rng,
                            positive=True)


def z2_trivial_framing():
    """Worked example: trivial action of Z_2 on C with x = 1, x* = 1/2."""
    from dilatekit.framing import FramingSystem
    g = cyclic_group(2)
    mats = np.ones((2, 1, 1), dtype=complex)
    rep, _ = check_rep(g, trivial_multiplier(g), NormedSpace(1, NormTag.l2()),
                       mats)
    return FramingSystem(theta=rep, windows=[[1.0]], duals=[[0.5]])


def z2_swap_framing():
    """Worked example: the swap representation on l2(2) with delta windows."""
    from dilatekit.framing import FramingSystem
    g = cyclic_group(2)
    rep, _ = check_rep(g, trivial_multiplier(g), NormedSpace(2, NormTag.l2()),
                       cyclic_shifts(2))
    return FramingSystem(theta=rep, windows=[[1.0, 0.0]], duals=[[1.0, 0.0]])


def system_from_scenario(sc):
    from dilatekit.pipeline import _materialize, _system
    return _system(_materialize(sc, sc.tolerance), sc.tolerance)[0]


@pytest.fixture
def rng():
    return rng_for(12345)
