"""The stacked laws, bounds and builders equal their per-element loops
(tests/oracles.py) bit for bit, and fail with the loop's error on the
loop's first (s, w), with the same residual."""

import dataclasses

import numpy as np
import pytest

from dilatekit.algebra import (MeasurableSpace, check_action, cyclic_group,
                               trivial_multiplier)
from dilatekit.banach import (DilationSpaceAlpha, _isometry_bound,
                              build_minimal_dilation,
                              induced_norm_from_injective, verify_dilation)
from dilatekit.errors import (BlockRankMismatch, ClosureViolation,
                              CovarianceViolation, InvalidInput, NonUnitaryRep,
                              NotIsometry)
from dilatekit.hilbert import build_hilbert_dilation, verify_hilbert_dilation
from dilatekit.imprimitivity import (ImprimitivitySystem, ProjectiveRep,
                                     check_rep, check_system,
                                     covariance_residuals)
from dilatekit.linalg import (NormTag, NormedSpace, Tolerance, distortion,
                              hermitian_eig, is_isometry, isometry_residuals,
                              norm_bound, numeric_rank, orthonormal_range,
                              random_cyclic_unitaries, shrink_bound)
from dilatekit.ovm import Ovm, bessel_ovm, classify

from conftest import general_system, phased_shift_rep, positive_system, rng_for
from oracles import (gaussian, loop_classify, loop_covariance_residuals,
                     loop_element_laws, loop_hilbert_lift, loop_isometry_bound,
                     loop_minimal_v_ops, loop_rep_isometry, loop_unitarity,
                     matrix_distortion, matrix_hermitian_eig,
                     matrix_isometry_residual, matrix_norm_bound,
                     matrix_numeric_rank, matrix_orthonormal_range,
                     matrix_shrink_bound)

TOL = Tolerance()
TAGS = (NormTag.l1(), NormTag.l2(), NormTag.linf(), NormTag.lp(3.0))


def _ranked_atoms(rep, orbit_ranks, rng, positive):
    """Atoms of Z_n acting regularly on one orbit per rank: orbit o carries
    W_t A_o W_t^-1 at its point t, for a random A_o of rank orbit_ranks[o]."""
    d, n = rep.space.dim, rep.group.order
    atoms = np.zeros((n * len(orbit_ranks), d, d), dtype=np.complex128)
    for o, rank in enumerate(orbit_ranks):
        g = gaussian(rng, (d, rank))
        seed = g @ (g if positive else gaussian(rng, (d, rank))).conj().T
        for t in range(n):
            atoms[o * n + t] = rep.matrices[t] @ seed @ np.linalg.inv(
                rep.matrices[t])
    return atoms


def _regular_action(group, orbits: int):
    n = group.order
    pm = np.concatenate([o * n + group.table for o in range(orbits)], axis=1)
    return check_action(group, MeasurableSpace(n * orbits), pm)


def _rep(n: int, d: int, tag: NormTag, rng) -> ProjectiveRep:
    if tag.kind != "l2":
        return phased_shift_rep(n, tag, rng)  # d = n
    group = cyclic_group(n)
    return check_rep(group, trivial_multiplier(group),
                     NormedSpace(d, tag), random_cyclic_unitaries(rng, n, d))[0]


def ranked_system(n, d, tag, orbit_ranks, seed=0, positive=False, atoms=None,
                  check=True) -> ImprimitivitySystem:
    """Z_n acting regularly on len(orbit_ranks) orbits with atoms of the
    given ranks; ``atoms`` edits the atoms before the system is formed, and
    ``check=False`` forms it without checking covariance."""
    rng = rng_for(seed)
    rep = _rep(n, d, tag, rng)
    action = _regular_action(rep.group, len(orbit_ranks))
    values = _ranked_atoms(rep, orbit_ranks, rng, positive)
    if atoms is not None:
        values = atoms(values, rng)
    ovm = Ovm(space=action.space, target=rep.space, atoms=values)
    if check:
        return check_system(rep, ovm, action, TOL)[0]
    return ImprimitivitySystem(rep=rep, ovm=ovm, action=action,
                               ovm_class=classify(ovm, TOL))


RANKED = {
    # mixed block ranks with a rank-0 orbit
    "Z3-l2-ranks-1-0-2": dict(n=3, d=4, tag=NormTag.l2(),
                              orbit_ranks=(1, 0, 2), positive=True),
    # n = 1: the trivial group, every atom its own orbit
    "Z1-l2-ranks-0-1-3-2": dict(n=1, d=3, tag=NormTag.l2(),
                                orbit_ranks=(0, 1, 3, 2), positive=True),
    # d = 0: every block and every operator is empty
    "Z2-l2-d0": dict(n=2, d=0, tag=NormTag.l2(), orbit_ranks=(0, 0),
                     positive=True),
    "Z4-l1-ranks-1-2-0": dict(n=4, d=4, tag=NormTag.l1(), orbit_ranks=(1, 2, 0)),
    "Z3-linf-ranks-2-0-1": dict(n=3, d=3, tag=NormTag.linf(),
                                orbit_ranks=(2, 0, 1)),
    "Z3-lp3-ranks-1-3": dict(n=3, d=3, tag=NormTag.lp(3.0), orbit_ranks=(1, 3)),
}

SYSTEMS = {**{name: (lambda k=kw: ranked_system(**k))
              for name, kw in RANKED.items()},
           **{f"general-{s}": (lambda s=s: general_system(s)) for s in range(8)},
           **{f"positive-{s}": (lambda s=s: positive_system(s))
              for s in range(8)}}
POSITIVE = [name for name in SYSTEMS
            if name.startswith("positive") or RANKED.get(name, {}).get("positive")]


# -- the operator-norm bounds and the isometry residual on stacks --

def _stack(tag, singular):
    rng = rng_for(7)
    stack = gaussian(rng, (5, 4, 4))
    if tag.kind != "l2":
        stack[1] = np.diag(np.exp(1j * rng.random(4)))[[2, 0, 3, 1]]
    if singular:
        stack[3, :, 2] = 0.0  # a zero column: inv raises LinAlgError
    return stack


@pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
@pytest.mark.parametrize("tag", TAGS, ids=[t.label() for t in TAGS])
def test_stacked_bounds_equal_matrix_bounds(tag, singular):
    stack = _stack(tag, singular)
    for stacked, oracle in ((norm_bound, matrix_norm_bound),
                            (shrink_bound, matrix_shrink_bound),
                            (distortion, matrix_distortion)):
        values = stacked(stack, tag)
        assert values.shape == (5,)
        assert list(values) == [oracle(m, tag) for m in stack]
        assert [stacked(m, tag) for m in stack] == list(values)
    if singular:
        assert shrink_bound(stack, tag)[3] == 1.0


@pytest.mark.parametrize("tag", TAGS, ids=[t.label() for t in TAGS])
def test_bounds_of_empty_matrices_are_zero(tag):
    assert list(norm_bound(np.zeros((3, 4, 0)), tag)) == [0.0] * 3
    assert list(distortion(np.zeros((3, 0, 0)), tag)) == [0.0] * 3
    assert norm_bound(np.zeros((0, 4)), tag) == 0.0
    assert distortion(np.zeros((0, 0)), tag) == 0.0


@pytest.mark.parametrize("tag", TAGS, ids=[t.label() for t in TAGS])
def test_isometry_residuals_equal_matrix_residuals(tag):
    rng = rng_for(3)
    perms = np.stack([np.diag(np.exp(1j * rng.random(4)))[p] for p in
                      ([0, 1, 2, 3], [3, 0, 1, 2], [1, 0, 3, 2])])
    stack = np.concatenate([perms, perms + 1e-6 * gaussian(rng, perms.shape),
                            gaussian(rng, (2, 4, 4))])
    resid = isometry_residuals(stack, tag)
    assert list(resid) == [matrix_isometry_residual(m, tag) for m in stack]
    assert list(resid) == [is_isometry(m, tag).residual for m in stack]
    assert list(isometry_residuals(np.zeros((2, 0, 0)), tag)) == [0.0, 0.0]
    one = isometry_residuals(stack[:, :1, :1], tag)
    assert list(one) == [matrix_isometry_residual(m[:1, :1], tag) for m in stack]


# -- the laws and builders on random systems --

@pytest.mark.parametrize("name", SYSTEMS)
def test_covariance_residuals_equal_loop(name):
    system = SYSTEMS[name]()
    loop = loop_covariance_residuals(system.rep, system.ovm, system.action)
    assert np.array_equal(covariance_residuals(system.rep, system.ovm,
                                               system.action), loop)
    assert np.array_equal(system.covariance_residuals, loop)


@pytest.mark.parametrize("name", SYSTEMS)
def test_atom_decompositions_equal_loop(name):
    ovm = SYSTEMS[name]().ovm
    assert list(numeric_rank(ovm.atoms, TOL)) == [
        matrix_numeric_rank(a, TOL) for a in ovm.atoms]
    for basis, atom in zip(orthonormal_range(ovm.atoms, TOL), ovm.atoms,
                           strict=True):
        assert np.array_equal(basis, matrix_orthonormal_range(atom, TOL))
    cls = classify(ovm, TOL)
    assert (cls.positive, cls.spectral) == loop_classify(ovm, TOL)
    if cls.positive:
        evals, evecs = hermitian_eig(ovm.atoms, TOL)
        for w, atom in enumerate(ovm.atoms):
            loop = matrix_hermitian_eig(atom, TOL)
            assert np.array_equal(evals[w], loop[0])
            assert np.array_equal(evecs[w], loop[1])


def test_spectral_and_non_hermitian_atoms_classify_as_the_loop():
    projections = ranked_system(3, 4, NormTag.l2(), (1,), positive=True,
                                atoms=lambda a, rng: np.stack(
                                    [np.diag(np.eye(4)[w]) for w in range(3)]),
                                check=False).ovm
    skew = dataclasses.replace(projections, atoms=projections.atoms
                               + 1e-6j * np.eye(4)[None, :, ::-1])
    assert loop_classify(projections, TOL) == (True, True)
    assert loop_classify(skew, TOL) == (False, False)
    for ovm in (projections, skew):
        cls = classify(ovm, TOL)
        assert (cls.positive, cls.spectral) == loop_classify(ovm, TOL)
    with pytest.raises(InvalidInput, match="not Hermitian"):
        hermitian_eig(skew.atoms, TOL)


@pytest.mark.parametrize("name", SYSTEMS)
def test_minimal_dilation_equals_loop(name):
    system = SYSTEMS[name]()
    ds = build_minimal_dilation(system, TOL)
    assert np.array_equal(ds.v_ops, loop_minimal_v_ops(system, ds.carrier, TOL))
    assert _isometry_bound(ds, system) == loop_isometry_bound(ds, system)
    loop = loop_element_laws(ds, system)
    for record in verify_dilation(ds, system, TOL):
        if record.paper_item in loop:
            assert record.max_residual == loop[record.paper_item]


@pytest.mark.parametrize("name", POSITIVE)
def test_hilbert_dilation_equals_loop(name):
    system = SYSTEMS[name]()
    hd = build_hilbert_dilation(system, TOL)
    assert np.array_equal(hd.v_ops, loop_hilbert_lift(system, TOL))
    assert _isometry_bound(hd, system) == loop_isometry_bound(hd, system)
    records = (verify_hilbert_dilation(hd, system, TOL)
               + verify_dilation(hd, system, TOL))
    loop = loop_element_laws(hd, system)
    if system.ovm.dim:  # scenarios have d >= 1; the pull-back assumes it
        induced = induced_norm_from_injective(hd, system, TOL)
        records += induced.checks
        loop = loop_element_laws(hd, system, induced.minimal, induced.R)
    by_code = {r.paper_item: r.max_residual for r in records}
    for code in loop:
        assert by_code[code] == loop[code], code
    assert by_code["hilbert(4)"] == loop["dilation(c)"]


# -- errors: the loop's first (s, w), with the loop's residual --

def _raised(call, error):
    with pytest.raises(error) as info:
        call()
    return info.value


def _same_error(stacked, loop, error, *fields):
    a, b = _raised(stacked, error), _raised(loop, error)
    assert str(a) == str(b)
    for name in fields:
        assert getattr(a, name) == getattr(b, name), name
    return a


def _turn_atom(index, rank):
    """Atom ``index`` replaced by a positive atom of the given rank, of
    another range: the two blocks it exchanges with break covariance."""
    def edit(atoms, rng):
        g = gaussian(rng, (atoms.shape[1], rank))
        atoms = atoms.copy()
        atoms[index] = g @ g.conj().T
        return atoms
    return edit


@pytest.mark.parametrize("rank", [1, 2], ids=["range", "rank"])
def test_closure_violation_names_the_first_block(rank):
    # atom 1 of Z_3 on 3 + 3 points leaves its orbit: V_1 fails on blocks
    # 0 -> 1 and 1 -> 2, V_2 on blocks 1 -> 0 and 2 -> 1
    system = ranked_system(3, 4, NormTag.l2(), (1, 2), positive=True,
                           atoms=_turn_atom(1, rank), check=False)
    carrier = DilationSpaceAlpha.build(system.ovm, TOL)
    err = _same_error(lambda: build_minimal_dilation(system, TOL),
                      lambda: loop_minimal_v_ops(system, carrier, TOL),
                      ClosureViolation, "op", "residual")
    assert err.op == "V_1 block 0->1"
    assert (err.residual == np.inf) == (rank == 2)


def test_block_rank_mismatch_names_the_first_block():
    system = ranked_system(3, 4, NormTag.l2(), (1, 2), positive=True,
                           atoms=_turn_atom(1, 2), check=False)
    err = _same_error(lambda: build_hilbert_dilation(system, TOL),
                      lambda: loop_hilbert_lift(system, TOL),
                      BlockRankMismatch, "element", "atom")
    assert (err.element, err.atom) == (1, 0)


def _similar(n, d, seed=0):
    """A representation of Z_n similar to a unitary one, not unitary: its
    product relation holds and every element but the unit fails isometry."""
    rng = rng_for(seed)
    s = np.eye(d) + 0.5 * gaussian(rng, (d, d))
    return np.linalg.inv(s) @ random_cyclic_unitaries(rng, n, d) @ s


def test_not_isometry_names_the_first_element():
    group = cyclic_group(3)
    space = NormedSpace(3, NormTag.l2())
    mats = _similar(3, 3)
    err = _raised(lambda: check_rep(group, trivial_multiplier(group), space,
                                    mats, TOL), NotIsometry)
    loop = _raised(lambda: loop_rep_isometry(group, space, mats, TOL),
                   NotIsometry)
    assert err.element == loop.element == 1
    assert np.array_equal(err.witness, loop.witness)


def test_non_unitary_rep_names_the_first_element():
    group = cyclic_group(4)
    rep = ProjectiveRep(group=group, multiplier=trivial_multiplier(group),
                        space=NormedSpace(2, NormTag.l2()), matrices=_similar(4, 2))
    system = dataclasses.replace(
        ranked_system(4, 2, NormTag.l2(), (1,), positive=True), rep=rep)
    err = _same_error(lambda: build_hilbert_dilation(system, TOL),
                      lambda: loop_unitarity(rep, TOL),
                      NonUnitaryRep, "element", "residual")
    assert err.element == 1
    assert _same_error(lambda: bessel_ovm(rep, [1.0, 0.0]),
                       lambda: loop_unitarity(rep), NonUnitaryRep,
                       "element", "residual").element == 1


def test_covariance_violation_names_the_loop_argmax():
    # atoms 1 and 4 break covariance with equal defects; the error names
    # the first of the largest, in row-major order
    def edit(atoms, rng):
        atoms = atoms.copy()
        bump = 1e-6 * np.diag([1.0, -1.0, 0.0, 0.0])
        atoms[1] += bump
        atoms[4] += bump
        return atoms

    system = ranked_system(3, 4, NormTag.l2(), (1, 2), positive=True,
                           atoms=edit, check=False)
    loop = loop_covariance_residuals(system.rep, system.ovm, system.action)
    assert (loop > TOL.eps_residual).sum() >= 4
    err = _raised(lambda: check_system(system.rep, system.ovm, system.action,
                                       TOL), CovarianceViolation)
    s, w = np.unravel_index(int(np.argmax(loop)), loop.shape)
    assert (err.element, err.atom, err.residual) == (s, w, loop.max())
