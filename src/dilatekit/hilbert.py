"""Hilbert-space dilation of positive operator-valued systems of
imprimitivity to orthogonal projection-valued ones.

The quotient construction is realised per atom: the Gram form of the
vector measures supported on atom w is carried by phi({w}), so factoring
each atom as U diag(lam) U* and keeping the eigenpairs above the rank
threshold gives isometric class coordinates lam^(1/2) U* x. The dilated
space K is the direct sum of those blocks; the lifted unitaries permute
blocks along the group action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (BlockRankMismatch, NonUnitaryRep, NotPositive,
                     SemigroupNotSupported)
from .imprimitivity import ImprimitivitySystem
from .linalg import (SET_BOUND_NOTE, Tolerance, block_indicators,
                     hermitian_eig, is_isometry, max_abs, set_bound)
from .linalg import subset_sums  # noqa: F401  (perfbench traces this binding)
from .ovm import bessel_bound
from .report import CheckRecord, check


@dataclass(frozen=True, eq=False)
class HilbertDilation:
    system: ImprimitivitySystem
    K_dim: int
    block_vectors: Tuple[np.ndarray, ...]  # kept eigenvectors per atom (d, r_w)
    block_values: Tuple[np.ndarray, ...]   # kept eigenvalues per atom (r_w,)
    offsets: Tuple[int, ...]
    pi_atoms: np.ndarray                   # (m, K, K) block projections pi({w})
    V: np.ndarray                          # (K, d)
    u_tilde: np.ndarray                    # (n, K, K)
    extension: bool                        # nontrivial multiplier accepted

    def pi(self, mask: int) -> np.ndarray:
        return self.system.ovm.space.set_sum(self.pi_atoms, mask)

    def coords_of(self, x, w: int) -> np.ndarray:
        """Class coordinates of the measure phi_{x,{w}} in block w."""
        xv = np.asarray(x, dtype=np.complex128)
        return np.sqrt(self.block_values[w]) * (self.block_vectors[w].conj().T @ xv)


def build_hilbert_dilation(system: ImprimitivitySystem,
                           tol: Optional[Tolerance] = None) -> HilbertDilation:
    """Dilate a positive system on l2 to a projection-valued one.

    Requires Hermitian PSD atoms and a unitary representation of a group.
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
        raise NonUnitaryRep(0, float("inf"))
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

    extension = max_abs(rep.multiplier.omega - 1.0) > tol.eps_residual
    return HilbertDilation(system=system, K_dim=k_dim,
                           block_vectors=tuple(vectors),
                           block_values=tuple(values),
                           offsets=tuple(offsets),
                           pi_atoms=block_indicators(offsets), V=v_map,
                           u_tilde=u_tilde,
                           extension=extension)


def verify_hilbert_dilation(hd: HilbertDilation, system: ImprimitivitySystem,
                            tol: Optional[Tolerance] = None) -> List[CheckRecord]:
    """The seven residual checks of the projection-valued dilation; (1)
    and (5) add up over atoms, so :func:`set_bound` certifies every set."""
    tol = tol or Tolerance()
    eps = tol.eps_residual
    rep, ovm, action = system.rep, system.ovm, system.action
    records = []

    resid_1 = set_bound(hd.V.conj().T @ hd.pi_atoms @ hd.V - ovm.atoms)
    records.append(check("reconstruction phi(E) = V* pi(E) V", "hilbert(1)",
                         resid_1, eps, notes=SET_BOUND_NOTE))

    resid_2 = max(max_abs(hd.u_tilde[g].conj().T @ hd.u_tilde[g] - np.eye(hd.K_dim))
                  for g in rep.group.elements)
    records.append(check("lifted operators unitary", "hilbert(2)", resid_2, eps))

    omega = rep.multiplier.omega
    resid_3 = 0.0
    for g in rep.group.elements:
        for h in rep.group.elements:
            factor = omega[g, h] if hd.extension else 1.0
            resid_3 = max(resid_3, max_abs(
                hd.u_tilde[g] @ hd.u_tilde[h]
                - factor * hd.u_tilde[rep.group.mul(g, h)]))
    records.append(check("lifted representation product rule", "hilbert(3)",
                         resid_3, eps,
                         notes="extension: twisted by the multiplier"
                         if hd.extension else ""))

    resid_4 = max(max_abs(hd.u_tilde[g] @ hd.V - hd.V @ rep.matrices[g])
                  for g in rep.group.elements)
    records.append(check("intertwining U~_g V = V U_g", "hilbert(4)", resid_4, eps))

    resid_5 = max(set_bound(hd.u_tilde[g] @ hd.pi_atoms @ hd.u_tilde[g].conj().T
                            - hd.pi_atoms[action.point_map[g]])
                  for g in rep.group.elements)
    records.append(check("covariance U~_g pi(E) U~_g* = pi(gE)", "hilbert(5)",
                         resid_5, eps, notes=SET_BOUND_NOTE))

    records.append(check("pi(Omega) = I on the dilated space", "hilbert(6)",
                         max_abs(hd.pi(ovm.space.full) - np.eye(hd.K_dim)), eps))

    v_norm = float(np.linalg.svd(hd.V, compute_uv=False)[0]) if hd.K_dim else 0.0
    expected = np.sqrt(bessel_bound(ovm))
    resid_7 = abs(v_norm - expected) / (1.0 + expected)
    records.append(check("||V|| = ||phi(Omega)||^(1/2)", "hilbert(7)", resid_7, eps,
                         notes=f"||V||={v_norm:.12g}"))
    return records


def hilbert_as_injective(hd: HilbertDilation):
    """Wrap the dilation as an injective dilation system with the Euclidean
    carrier norm (no alpha carrier), consumable by the induced-norm and
    minimality machinery. Injectivity holds by construction: block
    coordinates are faithful on the span of the generating measures."""
    from .banach import DilationSystem  # local import avoids a cycle

    system = hd.system
    return DilationSystem(
        group=system.rep.group, multiplier=system.rep.multiplier,
        space=system.ovm.space, target=system.ovm.target, dim=hd.K_dim,
        v_ops=hd.u_tilde, rho_atoms=hd.pi_atoms,
        Q=hd.V.conj().T, T=hd.V,
    )
