"""Projective isometric representations and systems of imprimitivity.

A system couples a projective isometric representation W of a finite
(semi)group with an operator-valued measure phi on a finite space carrying
an action of the same group, subject to the covariance law
W_s phi(E) = phi(sE) W_s. Covariance is checked on atoms; additivity
extends it to every measurable set (the exhaustive scan is a test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .algebra import FiniteGroup, GroupAction, Multiplier, same_group
from .errors import (CovarianceViolation, MultiplierRelationViolation,
                     NotIsometry, ShapeMismatch, UnitViolation)
from .linalg import (NormedSpace, Tolerance, is_isometry, max_abs,
                     product_defects, require_finite)
from .ovm import Ovm, OvmClass, classify
from .report import CheckRecord, check


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    """Validated projective isometric representation on (C^d, norm)."""

    group: FiniteGroup
    multiplier: Multiplier
    space: NormedSpace
    matrices: np.ndarray  # (n, d, d)


def check_rep(group: FiniteGroup, multiplier: Multiplier, space: NormedSpace,
              matrices, tol: Optional[Tolerance] = None
              ) -> Tuple[ProjectiveRep, List[CheckRecord]]:
    """Validate the unit, the multiplier relation W_s W_t = omega(s,t) W_st
    over all pairs, and the isometry of every element.

    Returns the representation together with one record per axiom carrying
    the maximal residual observed.
    """
    tol = tol or Tolerance()
    eps = tol.eps_residual
    mats = np.asarray(matrices, dtype=np.complex128)
    n, d = group.order, space.dim
    if mats.shape != (n, d, d):
        raise ShapeMismatch(f"need {n} matrices of size {d}x{d}, got {mats.shape}")
    require_finite(mats, "representation matrices")
    if not same_group(multiplier.group, group):
        raise ShapeMismatch("multiplier belongs to a different group")

    unit_resid = max_abs(mats[group.identity] - np.eye(d))
    if unit_resid > eps:
        raise UnitViolation(unit_resid)

    defects = product_defects(mats, multiplier.omega, group.table)
    bad = np.argwhere(defects > eps)  # row-major: the first (s, t) pair
    if bad.size:
        s, t = (int(i) for i in bad[0])
        raise MultiplierRelationViolation(s, t, float(defects[s, t]))
    relation_resid = float(defects.max())

    isometry_resid = 0.0
    for s in group.elements:
        chk = is_isometry(mats[s], space.norm, tol)
        if not chk.ok:
            raise NotIsometry(s, chk.witness)
        isometry_resid = max(isometry_resid, chk.residual)

    rep = ProjectiveRep(group=group, multiplier=multiplier, space=space,
                        matrices=mats)
    records = [
        check("representation unit", "valid.rep.unit", unit_resid, eps),
        check("representation product relation", "valid.rep.relation",
              relation_resid, eps),
        check(f"representation isometries ({space.norm.label()})",
              "valid.rep.isometry", isometry_resid, eps),
    ]
    return rep, records


@dataclass(frozen=True, eq=False)
class ImprimitivitySystem:
    rep: ProjectiveRep
    ovm: Ovm
    action: GroupAction
    ovm_class: OvmClass
    covariance_residuals: Optional[np.ndarray] = None  # (n, m), per (s, atom)


def covariance_residuals(rep: ProjectiveRep, ovm: Ovm, action: GroupAction
                         ) -> np.ndarray:
    """||W_s phi({w}) - phi({s.w}) W_s|| for every element s and atom w."""
    out = np.zeros((rep.group.order, ovm.space.atoms))
    for s in rep.group.elements:
        ws = rep.matrices[s]
        for w in range(ovm.space.atoms):
            out[s, w] = max_abs(ws @ ovm.atoms[w]
                                - ovm.atoms[action.point(s, w)] @ ws)
    return out


def check_system(rep: ProjectiveRep, ovm: Ovm, action: GroupAction,
                 tol: Optional[Tolerance] = None
                 ) -> Tuple[ImprimitivitySystem, List[CheckRecord]]:
    """Validate shapes and atom-level covariance; classify the measure."""
    tol = tol or Tolerance()
    if not same_group(action.group, rep.group):
        raise ShapeMismatch("representation and action use different groups")
    if action.space is not ovm.space and action.space.atoms != ovm.space.atoms:
        raise ShapeMismatch("action and measure live on different spaces")
    if ovm.target.dim != rep.space.dim:
        raise ShapeMismatch("measure values and representation act on "
                            "different dimensions")

    residuals = covariance_residuals(rep, ovm, action)
    resid = float(residuals.max())
    if resid > tol.eps_residual:
        s, w = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
        raise CovarianceViolation(int(s), int(w), resid)

    cls = classify(ovm, tol)
    flags = [k for k, v in (("probability", cls.probability),
                            ("positive", cls.positive),
                            ("spectral", cls.spectral)) if v]
    system = ImprimitivitySystem(rep=rep, ovm=ovm, action=action, ovm_class=cls,
                                 covariance_residuals=residuals)
    records = [
        check("system covariance on atoms", "valid.system.covariance",
              resid, tol.eps_residual,
              notes="classification: " + (", ".join(flags) or "none")),
    ]
    return system, records

