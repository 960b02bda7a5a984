"""Hilbert-space dilation of positive operator-valued systems of
imprimitivity to orthogonal projection-valued ones.

The quotient construction is realised per atom: the Gram form of the
vector measures supported on atom w is carried by phi({w}), so factoring
each atom as U diag(lam) U* and keeping the eigenpairs above the rank
threshold gives isometric class coordinates lam^(1/2) U* x. The dilated
space K is the direct sum of those blocks; the lifted unitaries permute
blocks along the group action. The result is a probability spectral
dilation system like the minimal one, on a Euclidean carrier: a
:class:`~dilatekit.banach.DilationSystem` with v_ops the lifted unitaries,
rho_atoms the block projections pi({w}), T = V and Q = V*.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .banach import DilationSystem
from .errors import (BlockRankMismatch, NonHilbertNorm, NonUnitaryRep,
                     NotPositive, SemigroupNotSupported)
from .imprimitivity import ImprimitivitySystem
from .linalg import (SET_BOUND_NOTE, Tolerance, block_indicators,
                     hermitian_eig, is_isometry, max_abs, product_defects,
                     set_bound)
from .linalg import subset_sums  # noqa: F401  (perfbench traces this binding)
from .ovm import bessel_bound
from .report import CheckRecord, check


def build_hilbert_dilation(system: ImprimitivitySystem,
                           tol: Optional[Tolerance] = None) -> DilationSystem:
    """Dilate a positive system on l2 to a projection-valued one.

    Requires the Euclidean norm on X, Hermitian PSD atoms and a unitary
    representation of a group.
    The lifted operator for g maps block w to block g.w by
    lam'^(1/2) U'* U_g U lam^(-1/2) on kept eigenspaces; a rank mismatch
    along an orbit certifies covariance failure and is reported as such.
    Nontrivial multipliers are accepted; the verifier then checks the
    twisted product rule and flags the report as an extension.
    """
    tol = tol or Tolerance()
    rep, ovm, action = system.rep, system.ovm, system.action
    if not rep.group.is_group:
        raise SemigroupNotSupported()
    if rep.space.norm.kind != "l2":
        raise NonHilbertNorm("the Hilbert dilation requires the l2 norm on X")
    for s in rep.group.elements:
        chk = is_isometry(rep.matrices[s], rep.space.norm, tol)
        if not chk.ok:
            raise NonUnitaryRep(s, chk.residual)
    if not system.ovm_class.positive:
        raise NotPositive("the measure has a non-PSD or non-Hermitian atom")

    m = ovm.space.atoms
    vectors = []
    values = []
    offsets = [0]
    for w in range(m):
        evals, evecs = hermitian_eig(ovm.atoms[w], tol)
        lam_max = float(evals[0]) if evals.size else 0.0
        keep = evals > tol.eps_rank * max(lam_max, 0.0)
        vectors.append(evecs[:, keep])
        values.append(np.asarray(evals[keep], dtype=float))
        offsets.append(offsets[-1] + int(keep.sum()))
    k_dim = offsets[-1]

    v_map = (np.concatenate([np.sqrt(values[w])[:, None]
                             * vectors[w].conj().T for w in range(m)], axis=0)
             if k_dim else np.zeros((0, ovm.dim), dtype=np.complex128))

    n = rep.group.order
    u_tilde = np.zeros((n, k_dim, k_dim), dtype=np.complex128)
    for g in rep.group.elements:
        ug = rep.matrices[g]
        for w in range(m):
            w2 = action.point(g, w)
            if values[w].shape[0] != values[w2].shape[0]:
                raise BlockRankMismatch(g, w)
            if values[w].shape[0] == 0:
                continue
            blk = (np.sqrt(values[w2])[:, None] * vectors[w2].conj().T
                   @ ug @ vectors[w]) / np.sqrt(values[w])[None, :]
            u_tilde[g, offsets[w2]:offsets[w2 + 1], offsets[w]:offsets[w + 1]] = blk

    return DilationSystem(group=rep.group, multiplier=rep.multiplier,
                          space=ovm.space, target=ovm.target, dim=k_dim,
                          v_ops=u_tilde, rho_atoms=block_indicators(offsets),
                          Q=v_map.conj().T, T=v_map)


def verify_hilbert_dilation(hd: DilationSystem, system: ImprimitivitySystem,
                            tol: Optional[Tolerance] = None) -> List[CheckRecord]:
    """The seven residual checks of the projection-valued dilation ``hd``
    (U~ = v_ops, pi = rho_atoms, V = T); (1) and (5) add up over atoms, so
    :func:`set_bound` certifies every set. The product rule (3) is twisted
    by the system's multiplier when that is nontrivial (an extension), and
    untwisted otherwise."""
    tol = tol or Tolerance()
    eps = tol.eps_residual
    rep, ovm, action = system.rep, system.ovm, system.action
    u_tilde, pi_atoms, v_map = hd.v_ops, hd.rho_atoms, hd.T
    records = []

    resid_1 = set_bound(hd.Q @ pi_atoms @ v_map - ovm.atoms)
    records.append(check("reconstruction phi(E) = V* pi(E) V", "hilbert(1)",
                         resid_1, eps, notes=SET_BOUND_NOTE))

    resid_2 = max(max_abs(u_tilde[g].conj().T @ u_tilde[g] - np.eye(hd.dim))
                  for g in rep.group.elements)
    records.append(check("lifted operators unitary", "hilbert(2)", resid_2, eps))

    omega = rep.multiplier.omega
    extension = max_abs(omega - 1.0) > eps
    resid_3 = product_defects(u_tilde, omega if extension
                              else np.ones(omega.shape), rep.group.table).max()
    records.append(check("lifted representation product rule", "hilbert(3)",
                         resid_3, eps,
                         notes="extension: twisted by the multiplier"
                         if extension else ""))

    resid_4 = max(max_abs(u_tilde[g] @ v_map - v_map @ rep.matrices[g])
                  for g in rep.group.elements)
    records.append(check("intertwining U~_g V = V U_g", "hilbert(4)", resid_4, eps))

    resid_5 = max(set_bound(u_tilde[g] @ pi_atoms @ u_tilde[g].conj().T
                            - pi_atoms[action.point_map[g]])
                  for g in rep.group.elements)
    records.append(check("covariance U~_g pi(E) U~_g* = pi(gE)", "hilbert(5)",
                         resid_5, eps, notes=SET_BOUND_NOTE))

    records.append(check("pi(Omega) = I on the dilated space", "hilbert(6)",
                         max_abs(hd.rho(hd.space.full) - np.eye(hd.dim)), eps))

    v_norm = float(np.linalg.svd(v_map, compute_uv=False)[0]) if hd.dim else 0.0
    expected = np.sqrt(bessel_bound(ovm))
    resid_7 = abs(v_norm - expected) / (1.0 + expected)
    records.append(check("||V|| = ||phi(Omega)||^(1/2)", "hilbert(7)", resid_7, eps,
                         notes=f"||V||={v_norm:.12g}"))
    return records
