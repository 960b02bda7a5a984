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

from .banach import DILATION_LAWS, DilationSystem, lifted_multiplier
from .errors import (BlockRankMismatch, NonHilbertNorm, NonUnitaryRep,
                     NotPositive, SemigroupNotSupported)
from .imprimitivity import ImprimitivitySystem
from .linalg import (SET_BOUND_NOTE, NormTag, Tolerance, block_indicators,
                     block_moves, hermitian_eig, isometry_residuals,
                     product_defects, set_bound)
from .linalg import subset_sums  # noqa: F401  (perfbench traces this binding)
from .ovm import bessel_bound
from .report import CheckRecord, check

L2 = NormTag.l2()


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
    unitarity = isometry_residuals(rep.matrices, rep.space.norm)
    bad = np.flatnonzero(unitarity > tol.eps_residual)
    if bad.size:
        raise NonUnitaryRep(int(bad[0]), float(unitarity[bad[0]]))
    if not system.ovm_class.positive:
        raise NotPositive("the measure has a non-PSD or non-Hermitian atom")

    m = ovm.space.atoms
    evals, evecs = hermitian_eig(ovm.atoms, tol)
    keep = evals > tol.eps_rank * np.maximum(evals[:, :1], 0.0)
    vectors = [evecs[w][:, keep[w]] for w in range(m)]
    values = [evals[w][keep[w]] for w in range(m)]
    ranks = keep.sum(axis=1)
    offsets = (0, *np.cumsum(ranks).tolist())
    k_dim = offsets[-1]
    bad = np.argwhere(ranks[action.point_map] != ranks)  # row-major: first (g, w)
    if bad.size:
        raise BlockRankMismatch(*(int(i) for i in bad[0]))

    # class coordinates lam^(1/2) U* x, atom by atom
    v_map = (np.concatenate([np.sqrt(values[w])[:, None] * vectors[w].conj().T
                             for w in range(m)], axis=0)
             if k_dim else np.zeros((0, ovm.dim), dtype=np.complex128))

    # block w -> g.w of every U~_g, stacked over g, built at block (w, w)
    # and moved to its rows at the end; row block w of lifted[g] holds the
    # class coordinates of atom g.w
    n = rep.group.order
    elems = np.arange(n)[:, None]
    moves = block_moves(offsets, action.point_map)
    lifted = v_map[moves]
    moved = np.zeros((n, k_dim, k_dim), dtype=np.complex128)
    for w in range(m):
        lo, hi = offsets[w], offsets[w + 1]
        if lo < hi:
            moved[:, lo:hi, lo:hi] = ((lifted[:, lo:hi] @ rep.matrices
                                       @ vectors[w]) / np.sqrt(values[w])[None, :])
    u_tilde = np.zeros_like(moved)
    u_tilde[elems, moves] = moved

    return DilationSystem(group=rep.group, multiplier=rep.multiplier,
                          space=ovm.space, target=ovm.target, dim=k_dim,
                          v_ops=u_tilde, rho_atoms=block_indicators(offsets),
                          Q=v_map.conj().T, T=v_map)


def verify_hilbert_dilation(hd: DilationSystem, system: ImprimitivitySystem,
                            tol: Optional[Tolerance] = None) -> List[CheckRecord]:
    """The seven residual checks of the projection-valued dilation ``hd``
    (U~ = v_ops, pi = rho_atoms, V = T). (1), (4) and (6) are the laws
    dilation(a), (c) and (e) of :data:`banach.DILATION_LAWS` on ``hd``.
    (1) and (5) add up over atoms, so :func:`set_bound` certifies every
    set. The product rule (3) is twisted by the system's multiplier when
    that is nontrivial (an extension), and untwisted otherwise. (2) and (4)
    take every element in one stacked product."""
    tol = tol or Tolerance()
    eps = tol.eps_residual
    rep, ovm, action = system.rep, system.ovm, system.action
    u_tilde, pi_atoms, v_map = hd.v_ops, hd.rho_atoms, hd.T
    shared = {law.hilbert: law for law in DILATION_LAWS if law.hilbert}
    records = []

    records.append(check("reconstruction phi(E) = V* pi(E) V", "hilbert(1)",
                         shared["hilbert(1)"].residual(hd, system), eps,
                         notes=SET_BOUND_NOTE))

    resid_2 = float(isometry_residuals(u_tilde, L2).max())
    records.append(check("lifted operators unitary", "hilbert(2)", resid_2, eps))

    omega = lifted_multiplier(rep.multiplier, tol)
    resid_3 = product_defects(u_tilde, omega, rep.group.table).max()
    records.append(check("lifted representation product rule", "hilbert(3)",
                         resid_3, eps,
                         notes="extension: twisted by the multiplier"
                         if omega is rep.multiplier.omega else ""))

    records.append(check("intertwining U~_g V = V U_g", "hilbert(4)",
                         shared["hilbert(4)"].residual(hd, system), eps))

    resid_5 = max(set_bound(u_tilde[g] @ pi_atoms @ u_tilde[g].conj().T
                            - pi_atoms[action.point_map[g]])
                  for g in rep.group.elements)
    records.append(check("covariance U~_g pi(E) U~_g* = pi(gE)", "hilbert(5)",
                         resid_5, eps, notes=SET_BOUND_NOTE))

    records.append(check("pi(Omega) = I on the dilated space", "hilbert(6)",
                         shared["hilbert(6)"].residual(hd, system), eps))

    v_norm = float(np.linalg.svd(v_map, compute_uv=False)[0]) if hd.dim else 0.0
    expected = np.sqrt(bessel_bound(ovm))
    resid_7 = abs(v_norm - expected) / (1.0 + expected)
    records.append(check("||V|| = ||phi(Omega)||^(1/2)", "hilbert(7)", resid_7, eps,
                         notes=f"||V||={v_norm:.12g}"))
    return records
