"""Minimal Banach dilation of operator-valued systems of imprimitivity.

Elements of the span M_phi of the vector measures F |-> phi(E n F)x are
represented by their atom-value arrays, which makes equality of formal
combinations exact and the operators rho, V, Q manifestly well defined.
Per atom w the values live in the column space of phi({w}), so M_phi
decomposes into blocks and its dimension is the sum of the atom ranks.

The minimal dilation norm is the max over all 2^m measurable sets of the
set-value norm. No report check evaluates it: the laws that read it,
dilation(h) and minimality, are certified from the built operators in
polynomial time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .algebra import FiniteGroup, MeasurableSpace, Multiplier
from .errors import (ClosureViolation, InvalidInput, NotIdempotent,
                     NotInjective, SemigroupNotSupported)
from .imprimitivity import ImprimitivitySystem
from .linalg import (ELEMENT_BOUND_NOTE, ISOMETRY_RTOL, SET_BOUND_NOTE,
                     NormTag, NormedSpace, Tolerance, block_indicators,
                     distortion, invariance_defect, max_abs, max_subset_norms,
                     norm_bound, numeric_rank, orthonormal_range,
                     product_defects, set_bound)
from .linalg import row_norms  # noqa: F401  (perfbench traces this binding)
from .linalg import subset_sums  # noqa: F401  (perfbench traces this binding)
from .ovm import Ovm
from .report import CheckRecord, check

L2 = NormTag.l2()


@dataclass(frozen=True, eq=False)
class DilationSpaceAlpha:
    """Coordinatisation of M_phi: per atom an orthonormal basis of the
    column space of phi({w}); elements are block coordinate vectors."""

    ovm: Ovm
    blocks: Tuple[np.ndarray, ...]
    offsets: Tuple[int, ...]
    dim: int

    @classmethod
    def build(cls, ovm: Ovm,
              tol: Optional[Tolerance] = None) -> "DilationSpaceAlpha":
        tol = tol or Tolerance()
        blocks = []
        offsets = [0]
        for w in range(ovm.space.atoms):
            b = orthonormal_range(ovm.atoms[w], tol)
            assert b.shape[1] == numeric_rank(ovm.atoms[w], tol)
            blocks.append(b)
            offsets.append(offsets[-1] + b.shape[1])
        return cls(ovm=ovm, blocks=tuple(blocks), offsets=tuple(offsets),
                   dim=offsets[-1])

    def block(self, w: int, coords: np.ndarray) -> np.ndarray:
        return coords[..., self.offsets[w]:self.offsets[w + 1]]

    def full_value(self) -> np.ndarray:
        """The (d, r) map from coordinates to the value on the full set."""
        return np.concatenate(self.blocks, axis=1)

    def values_from_coords(self, coords: np.ndarray) -> np.ndarray:
        """(..., r) coordinates to (..., m, d) atom values."""
        coords = np.asarray(coords, dtype=np.complex128)
        lead = coords.shape[:-1]
        out = np.zeros(lead + (self.ovm.space.atoms, self.ovm.dim),
                       dtype=np.complex128)
        for w, b in enumerate(self.blocks):
            out[..., w, :] = self.block(w, coords) @ b.T
        return out

    def alpha_batch(self, coords: np.ndarray) -> np.ndarray:
        """Alpha norms for a (N, r) batch of coordinate vectors."""
        values = self.values_from_coords(coords)          # (N, m, d)
        return max_subset_norms(values.transpose(1, 0, 2), self.ovm.target.norm)


@dataclass(eq=False)
class DilationSystem:
    """A spectral dilation quadruple (V, rho, Q, T) on a carrier space.

    ``rho_atoms`` holds rho({w}); values on larger sets are sums of atoms.
    ``carrier`` is the alpha coordinatisation that norms the minimal
    system; the Hilbert dilation leaves it None, for the Euclidean norm of
    its coordinates.
    """

    group: FiniteGroup
    multiplier: Multiplier
    space: MeasurableSpace
    target: NormedSpace
    dim: int
    v_ops: np.ndarray      # (n, r, r)
    rho_atoms: np.ndarray  # (m, r, r)
    Q: np.ndarray          # (d, r)
    T: np.ndarray          # (r, d)
    carrier: Optional[DilationSpaceAlpha] = None

    def rho(self, mask: int) -> np.ndarray:
        return self.space.set_sum(self.rho_atoms, mask)


def build_minimal_dilation(system: ImprimitivitySystem,
                           tol: Optional[Tolerance] = None) -> DilationSystem:
    """Construct the minimal dilation system of an imprimitivity system.

    On atom-value coordinates the operators are: rho(E) zeroes the atoms
    outside E (block indicators), V_s sends atom w to s.w through W_s,
    Q evaluates at the full set, and T(x) is the measure with atom values
    phi({w}) x. Every operator is checked to map M_phi into itself; the
    identity suite is left to :func:`verify_dilation`. Groups only, since
    V_s needs s^-1 on sets.
    """
    tol = tol or Tolerance()
    rep, ovm, action = system.rep, system.ovm, system.action
    if not rep.group.is_group:
        raise SemigroupNotSupported()
    carrier = DilationSpaceAlpha.build(ovm, tol)
    r = carrier.dim
    m = ovm.space.atoms
    n = rep.group.order
    d = ovm.dim

    rho_atoms = block_indicators(carrier.offsets)

    v_ops = np.zeros((n, r, r), dtype=np.complex128)
    for s in rep.group.elements:
        ws = rep.matrices[s]
        for w in range(m):
            w2 = action.point(s, w)
            b_from = carrier.blocks[w]
            b_to = carrier.blocks[w2]
            if b_from.shape[1] != b_to.shape[1]:
                raise ClosureViolation(f"V_{s} block {w}->{w2}", float("inf"))
            blk = b_to.conj().T @ ws @ b_from
            resid = max_abs(ws @ b_from - b_to @ blk)
            if resid > tol.eps_residual:
                raise ClosureViolation(f"V_{s} block {w}->{w2}", resid)
            lo_f, hi_f = carrier.offsets[w], carrier.offsets[w + 1]
            lo_t, hi_t = carrier.offsets[w2], carrier.offsets[w2 + 1]
            v_ops[s, lo_t:hi_t, lo_f:hi_f] = blk

    t_mat = (np.concatenate([b.conj().T @ ovm.atoms[w]
                             for w, b in enumerate(carrier.blocks)], axis=0)
             if r else np.zeros((0, d), dtype=np.complex128))

    return DilationSystem(group=rep.group, multiplier=rep.multiplier,
                          space=ovm.space, target=ovm.target, dim=r,
                          v_ops=v_ops, rho_atoms=rho_atoms,
                          Q=carrier.full_value(), T=t_mat, carrier=carrier)


def _isometry_bound(ds: DilationSystem, system: ImprimitivitySystem) -> float:
    """Certified bound on | alpha(V_s c) / alpha(c) - 1 | over every s and
    every nonzero c, for the carrier norm of ``ds``.

    Euclidean carrier: the distortion of V_s, exact from its singular
    values. Alpha carrier, with orthonormal blocks b_w: write mu_c(E) =
    sum over w in E of b_w c_w, C_sw = W_s b_w - b_{s.w} V_s[s.w, w], and
    O_s for V_s with those blocks zeroed. Then
    mu_{V_s c}(E) = W_s mu_c(s^-1 E) - sum_{s.w in E} C_sw c_w
    + sum_{u in E} b_u (O_s c)_u.
    With ||y||_2 <= kappa ||y||_X and ||y||_X <= lam ||y||_2, kappa lam =
    d^|1/2 - 1/p|. alpha(c) >= ||b_w c_w||_X >= ||c_w||_2 / kappa bounds
    the first sum by kappa lam sum_w ||C_sw|| alpha(c); with ||c||_2 <=
    sqrt(m) kappa alpha(c) and ||sum_u b_u z_u||_2 <= sqrt(m) ||z||_2 the
    second is at most kappa lam m ||O_s|| alpha(c). W_s changes a norm by
    at most its distortion, on both sides.
    """
    if ds.carrier is None:
        return max(distortion(v, L2) for v in ds.v_ops)
    carrier, rep, action = ds.carrier, system.rep, system.action
    tag = ds.target.norm
    kappa_lam = ds.target.dim ** abs(0.5 - 1.0 / tag.exponent)
    off = carrier.offsets
    worst = 0.0
    for s in rep.group.elements:
        rest = ds.v_ops[s].copy()
        blocks = 0.0
        for w, b in enumerate(carrier.blocks):
            u = action.point(s, w)
            cut = slice(off[u], off[u + 1]), slice(off[w], off[w + 1])
            blocks += norm_bound(rep.matrices[s] @ b
                                 - carrier.blocks[u] @ rest[cut], L2)
            rest[cut] = 0.0
        worst = max(worst, distortion(rep.matrices[s], tag) + kappa_lam * (
            blocks + ds.space.atoms * norm_bound(rest, L2)))
    return worst


def verify_dilation(ds: DilationSystem, system: ImprimitivitySystem,
                    tol: Optional[Tolerance] = None) -> List[CheckRecord]:
    """Residual report for the dilation-system laws.

    (a) phi(E) = Q rho(E) T for every set, (b) Q V_s = W_s Q,
    (c) V_s T = T W_s, (d) rho(A n B) = rho(A) rho(B), (e) rho(Omega) = I,
    (f) V_s V_t = omega(s,t) V_st, (g) V_s rho(E) = rho(sE) V_s, and
    (h) every V_s is an isometry of the carrier norm.
    The defects of (a) and (g) on a set are sums of atom defects and that
    of (d) on a pair of sets is a sum of atom-pair defects, so
    :func:`set_bound` certifies all three on every set and every pair;
    :func:`_isometry_bound` certifies (h) on every element.
    """
    tol = tol or Tolerance()
    eps = tol.eps_residual
    rep, ovm, action = system.rep, system.ovm, system.action
    m = ovm.space.atoms
    records = []

    resid_a = set_bound(ds.Q @ ds.rho_atoms @ ds.T - ovm.atoms)
    records.append(check("factorization phi(E) = Q rho(E) T", "dilation(a)",
                         resid_a, eps, notes=SET_BOUND_NOTE))

    resid_b = max(max_abs(ds.Q @ ds.v_ops[s] - rep.matrices[s] @ ds.Q)
                  for s in rep.group.elements)
    records.append(check("intertwining Q V_s = W_s Q", "dilation(b)", resid_b, eps))

    resid_c = max(max_abs(ds.v_ops[s] @ ds.T - ds.T @ rep.matrices[s])
                  for s in rep.group.elements)
    records.append(check("intertwining V_s T = T W_s", "dilation(c)", resid_c, eps))

    # (d)/(e): rho is a probability spectral measure on the carrier. The (d)
    # defect on sets A, B sums D_ab = rho_a rho_b - [a = b] rho_a over a in A,
    # b in B; set_bound takes the stacks D_a. one atom a at a time
    delta = np.eye(m)[:, :, None, None]
    resid_d = set_bound(ds.rho_atoms[a] @ ds.rho_atoms - delta[a] * ds.rho_atoms[a]
                        for a in range(m))
    records.append(check("rho multiplicative on intersections", "dilation(d)",
                         resid_d, eps, notes=SET_BOUND_NOTE))
    records.append(check("rho(Omega) = I on the carrier", "dilation(e)",
                         max_abs(ds.rho(ds.space.full) - np.eye(ds.dim)), eps))

    resid_f = product_defects(ds.v_ops, ds.multiplier.omega,
                              rep.group.table).max()
    records.append(check("V_s V_t = omega(s,t) V_st", "dilation(f)", resid_f, eps))

    # atom w's defect is V_s rho({w}) - rho({s.w}) V_s
    resid_g = max(set_bound(ds.v_ops[s] @ ds.rho_atoms
                            - ds.rho_atoms[action.point_map[s]] @ ds.v_ops[s])
                  for s in rep.group.elements)
    records.append(check("covariance V_s rho(E) = rho(sE) V_s", "dilation(g)",
                         resid_g, eps, notes=SET_BOUND_NOTE))

    records.append(check("V_s isometric for the carrier norm", "dilation(h)",
                         _isometry_bound(ds, system), ISOMETRY_RTOL,
                         notes=ELEMENT_BOUND_NOTE))
    return records


def restrict_probability(ds: DilationSystem,
                         tol: Optional[Tolerance] = None) -> DilationSystem:
    """Restrict a dilation system with a Euclidean carrier to the range of
    rho(Omega).

    rho(Omega) must be idempotent; its range is invariant under every V_s
    and rho(E), and the restriction (with T replaced by rho(Omega) T) is a
    probability dilation system of the same pair once
    :func:`verify_dilation` passes on it.
    """
    tol = tol or Tolerance()
    if ds.carrier is not None:
        raise InvalidInput("only a Euclidean carrier restricts to a subspace")
    p_full = ds.rho(ds.space.full)
    idem = max_abs(p_full @ p_full - p_full)
    if idem > tol.eps_residual:
        raise NotIdempotent(idem)
    basis = orthonormal_range(p_full, tol)
    k = basis.shape[1]
    worst = invariance_defect(basis, (*ds.v_ops, *ds.rho_atoms))
    if worst > tol.eps_residual:
        raise ClosureViolation("restriction to range(rho(Omega))", worst)

    bh = basis.conj().T
    return DilationSystem(
        group=ds.group, multiplier=ds.multiplier, space=ds.space,
        target=ds.target, dim=k,
        v_ops=np.stack([bh @ v @ basis for v in ds.v_ops]) if k else
        np.zeros((ds.v_ops.shape[0], 0, 0), dtype=np.complex128),
        rho_atoms=np.stack([bh @ rr @ basis for rr in ds.rho_atoms]) if k else
        np.zeros((ds.rho_atoms.shape[0], 0, 0), dtype=np.complex128),
        Q=ds.Q @ basis,
        T=bh @ (p_full @ ds.T),
    )


def check_q_range_invariance(ds: DilationSystem, system: ImprimitivitySystem,
                             tol: Optional[Tolerance] = None) -> CheckRecord:
    """The range of Q is invariant under W_s and under every phi(E)."""
    tol = tol or Tolerance()
    basis = orthonormal_range(ds.Q, tol)
    worst = invariance_defect(basis, (*system.rep.matrices, *system.ovm.atoms))
    return check("range(Q) invariant under W and phi", "restriction(Q-range)",
                 worst, tol.eps_residual)


@dataclass(eq=False)
class InducedDilationNorm:
    """Dilation norm on M_phi pulled back from an injective dilation via the
    factoring isometry R, together with its verification records."""

    minimal: DilationSystem
    target: DilationSystem
    R: np.ndarray
    checks: List[CheckRecord] = field(default_factory=list)


def induced_norm_from_injective(ds: DilationSystem, system: ImprimitivitySystem,
                                tol: Optional[Tolerance] = None,
                                minimal: Optional[DilationSystem] = None
                                ) -> InducedDilationNorm:
    """Pull the norm of an injective dilation system back onto M_phi.

    Injectivity is the factoring criterion: the generator-to-image map
    phi_{x,E} |-> rho(E) T x must kill every combination that vanishes in
    M_phi, certified by a rank comparison on each atom's generators. R maps
    M_phi coordinates into the carrier of ``ds`` and is checked to
    intertwine all four structure maps of the minimal system.
    """
    tol = tol or Tolerance()
    eps = tol.eps_residual
    if minimal is None:
        minimal = build_minimal_dilation(system, tol)
    carrier = minimal.carrier
    ovm = system.ovm
    m, d = ovm.space.atoms, ovm.dim

    gen_coords = np.zeros((m * d, carrier.dim), dtype=np.complex128)
    gen_images = np.zeros((m * d, ds.dim), dtype=np.complex128)
    for w in range(m):
        lo, hi = carrier.offsets[w], carrier.offsets[w + 1]
        block = carrier.blocks[w].conj().T @ ovm.atoms[w]  # (r_w, d)
        for k in range(d):
            row = w * d + k
            gen_coords[row, lo:hi] = block[:, k]
            gen_images[row] = ds.rho_atoms[w] @ ds.T[:, k]

    # atom w's generators fill only carrier block w and span it, so a
    # combination vanishes in M_phi atom by atom: atom w's generators with
    # their images must keep rank r_w, at the carrier's per-atom threshold
    rank = np.diff(carrier.offsets)
    s = np.linalg.svd(np.concatenate([gen_coords, gen_images], axis=1)
                      .reshape(m, d, -1), compute_uv=False)
    grown = (s > tol.eps_rank * s[:, :1]).sum(axis=1) > rank
    for w in np.flatnonzero(grown):
        # exhibit a vanishing combination with a nonzero image
        rows = slice(w * d, (w + 1) * d)
        for c_w in np.conj(np.linalg.svd(gen_coords[rows].T)[2][rank[w]:]):
            if max_abs(c_w @ gen_images[rows]) > eps:
                c = np.zeros(m * d, dtype=np.complex128)
                c[rows] = c_w
                raise NotInjective(c)
    if grown.any():
        raise NotInjective(None)

    r_t = np.linalg.lstsq(gen_coords, gen_images, rcond=None)[0]
    r_map = r_t.T
    factor_resid = max_abs(gen_coords @ r_t - gen_images)

    records = [check("induced norm well-defined on generators", "induced(0)",
                     factor_resid, eps)]
    resid_v = max(max_abs(r_map @ minimal.v_ops[s] - ds.v_ops[s] @ r_map)
                  for s in system.rep.group.elements)
    records.append(check("R V_d,s = V_s R", "induced(1)", resid_v, eps))
    resid_rho = set_bound(r_map @ minimal.rho_atoms - ds.rho_atoms @ r_map)
    records.append(check("R rho_d(E) = rho(E) R", "induced(2)", resid_rho, eps,
                         notes=SET_BOUND_NOTE))
    records.append(check("Q_d = Q R", "induced(3)", max_abs(minimal.Q - ds.Q @ r_map),
                         eps))
    records.append(check("R T_d = rho(Omega) T", "induced(4)",
                         max_abs(r_map @ minimal.T - ds.rho(ds.space.full) @ ds.T),
                         eps))
    return InducedDilationNorm(minimal=minimal, target=ds, R=r_map, checks=records)


def minimality_bound(induced: InducedDilationNorm,
                     tol: Optional[Tolerance] = None
                     ) -> Tuple[float, List[CheckRecord]]:
    """Certified check of the minimality inequality alpha <= K d.

    For X = l2 and the Euclidean carrier of ``induced.target`` = (Q_t,
    rho_t), d(mu) = ||R mu||_2 and K = ||Q_t|| ||sum_w |rho_t,w| ||, a
    bound on ||Q_t rho_t(E)|| for every set E: taking entry moduli does not
    lower a spectral norm, and |rho_t(E)| <= sum_w |rho_t,w| entrywise. On
    the Hilbert dilation the rho_t atoms are exact 0/1 blocks summing to I,
    and K = ||Q_t|| = ||V||.

    The residual bounds (alpha(mu) - K d(mu)) / alpha(mu) on every mu. With
    Q_c the carrier blocks side by side and P_w their block indicators,
    mu(E) = Q_c P_E mu = Q_t rho_t(E) R mu + Q_t (R P_E - rho_t(E) R) mu
    + (Q_c - Q_t R) P_E mu, and ||mu||_2 <= sqrt(m) alpha(mu), since
    alpha(mu) >= ||mu({w})|| = ||mu_w||_2; so the residual is
    sqrt(m) (||Q_t|| ||sum_w |R P_w - rho_t,w R| || + ||Q_c - Q_t R||).
    Q_c and P_w come from the carrier, which alone defines alpha. Returns
    (K, records).
    """
    tol = tol or Tolerance()
    carrier, target, r_map = induced.minimal.carrier, induced.target, induced.R
    if induced.minimal.target.norm.kind != "l2":
        raise InvalidInput("the minimality bound needs a Euclidean space X")
    q_norm = norm_bound(target.Q, L2)
    k_bound = q_norm * norm_bound(np.abs(target.rho_atoms).sum(axis=0), L2)
    commute = np.abs(r_map @ block_indicators(carrier.offsets)
                     - target.rho_atoms @ r_map).sum(axis=0)
    resid = math.sqrt(carrier.ovm.space.atoms) * (
        q_norm * norm_bound(commute, L2)
        + norm_bound(carrier.full_value() - target.Q @ r_map, L2))
    record = check("alpha <= K d", "minimality", resid, tol.eps_residual,
                   notes=f"K={k_bound:.6g}; {ELEMENT_BOUND_NOTE}")
    return k_bound, [record]
