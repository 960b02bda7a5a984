"""Operator-valued measures on a finite measurable space, stored by atom
values, plus the two induced-measure constructions: the orbit measure of a
vector under a unitary representation, and the measure induced by a framing
through a projective isometric representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import MeasurableSpace
from .errors import (InvalidInput, NonHilbertNorm, NonUnitaryRep, ShapeMismatch,
                     WindowCountMismatch)
from .linalg import (NormedSpace, Tolerance, as_matrix, is_isometry, max_abs,
                     require_finite)



@dataclass(frozen=True, eq=False)
class Ovm:
    """B(C^d)-valued measure determined by its values on atoms.

    Finite additivity is definitional: the value on a set is the sum of its
    atom values, so countable additivity needs no separate check at this
    scale.
    """

    space: MeasurableSpace
    target: NormedSpace
    atoms: np.ndarray  # (m, d, d)

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=np.complex128)
        d = self.target.dim
        if a.shape != (self.space.atoms, d, d):
            raise ShapeMismatch(
                f"atoms must have shape ({self.space.atoms}, {d}, {d}), got {a.shape}")
        require_finite(a, "OVM atoms")
        object.__setattr__(self, "atoms", a)

    @property
    def dim(self) -> int:
        return self.target.dim


@dataclass(frozen=True)
class OvmClass:
    probability: bool
    positive: bool
    spectral: bool


def evaluate(ovm: Ovm, mask: int) -> np.ndarray:
    """Value of the measure on a set: the sum of its atom values."""
    return ovm.space.set_sum(ovm.atoms, mask)


def classify(ovm: Ovm, tol: Optional[Tolerance] = None) -> OvmClass:
    """Classification flags from atom-level criteria.

    Atom criteria are equivalent to the all-sets definitions by additivity:
    PSD matrices are closed under sums, and multiplicativity on atoms
    extends bilinearly to arbitrary set decompositions. The exhaustive
    all-subsets scans live in the test suite as oracles.
    """
    tol = tol or Tolerance()
    eps = tol.eps_residual
    d = ovm.dim
    total = evaluate(ovm, ovm.space.full)
    probability = max_abs(total - np.eye(d)) <= eps

    positive = True
    for atom in ovm.atoms:
        if max_abs(atom - atom.conj().T) > eps:
            positive = False
            break
        evals = np.linalg.eigvalsh((atom + atom.conj().T) / 2.0)
        if evals.size and float(evals[0]) < -eps:
            positive = False
            break

    spectral = True
    m = ovm.space.atoms
    for a in range(m):
        for b in range(m):
            expected = ovm.atoms[a] if a == b else 0.0
            if max_abs(ovm.atoms[a] @ ovm.atoms[b] - expected) > eps:
                spectral = False
                break
        if not spectral:
            break
    return OvmClass(probability=probability, positive=positive, spectral=spectral)


def bessel_ovm(rep: "ProjectiveRep", f) -> Ovm:
    """Positive measure from the orbit of a vector under a unitary rep.

    The atoms live on the group itself (one atom per element) and are the
    rank-one operators (U_g f)(U_g f)*; together with left translation this
    is a positive operator-valued system of imprimitivity.
    """
    if rep.space.norm.kind != "l2":
        raise NonHilbertNorm("orbit measures require the l2 norm on the target")
    fv = require_finite(np.asarray(f, dtype=np.complex128), "vector")
    if fv.shape != (rep.space.dim,):
        raise ShapeMismatch(f"vector must have dim {rep.space.dim}")
    for s, mat in enumerate(rep.matrices):
        chk = is_isometry(mat, rep.space.norm)
        if not chk.ok:
            raise NonUnitaryRep(s, chk.residual)
    atoms = np.empty((rep.group.order, rep.space.dim, rep.space.dim),
                     dtype=np.complex128)
    for g in rep.group.elements:
        v = rep.matrices[g] @ fv
        atoms[g] = np.outer(v, np.conj(v))
    return Ovm(space=MeasurableSpace(rep.group.order), target=rep.space, atoms=atoms)


def framing_ovm(theta: "ProjectiveRep", windows, duals) -> Ovm:
    """Measure induced by windows/duals through a projective isometric rep.

    Atom at g is sum_j (theta_g x_j) tensor (theta*_{g^-1} x*_j) with the
    bilinear outer product (u tensor f) x = <x, f> u; adjoints of the rep
    are plain transposes per the package duality convention.
    """
    xs = np.atleast_2d(np.asarray(windows, dtype=np.complex128))
    fs = np.atleast_2d(np.asarray(duals, dtype=np.complex128))
    if xs.shape[0] != fs.shape[0]:
        raise WindowCountMismatch(xs.shape[0], fs.shape[0])
    d = theta.space.dim
    if xs.shape[1] != d or fs.shape[1] != d:
        raise ShapeMismatch(f"windows and duals must have dim {d}")
    if not theta.group.is_group:
        raise InvalidInput("framing-induced measures need a group")
    require_finite(xs, "windows")
    require_finite(fs, "duals")
    n = theta.group.order
    atoms = np.zeros((n, d, d), dtype=np.complex128)
    for g in theta.group.elements:
        wg = theta.matrices[g]
        wginv_t = theta.matrices[theta.group.inv(g)].T
        for j in range(xs.shape[0]):
            atoms[g] += np.outer(wg @ xs[j], wginv_t @ fs[j])
    return Ovm(space=MeasurableSpace(n), target=theta.space, atoms=atoms)


def bessel_bound(ovm: Ovm) -> float:
    """Frame upper bound of an orbit measure: the norm of the total mass."""
    total = as_matrix(evaluate(ovm, ovm.space.full))
    return float(np.linalg.svd(total, compute_uv=False)[0]) if total.size else 0.0
