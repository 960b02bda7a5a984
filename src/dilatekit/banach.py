"""Minimal Banach dilation of operator-valued systems of imprimitivity.

Elements of the span M_phi of the vector measures F |-> phi(E n F)x are
represented by their atom-value arrays, which makes equality of formal
combinations exact and the operators rho, V, Q manifestly well defined.
Per atom w the values live in the column space of phi({w}), so M_phi
decomposes into blocks and its dimension is the sum of the atom ranks.

The minimal dilation norm is the exact max over all 2^m measurable sets of
the set-value norm; enumeration is capped (default 16 atoms) because that
exponential scan is the honest price of the sup-over-sets definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .algebra import FiniteGroup, MeasurableSpace, Multiplier
from .errors import (ClosureViolation, EnumerationCapExceeded, InvalidInput,
                     NotIdempotent, NotInjective, SemigroupNotSupported,
                     ShapeMismatch)
from .imprimitivity import ImprimitivitySystem
from .linalg import (ENUMERATION_CAP, ISOMETRY_RTOL, SET_BOUND_NOTE,
                     NormedSpace, Tolerance, block_indicators,
                     invariance_defect, max_abs, max_subset_norms,
                     numeric_rank, orthonormal_range, set_bound, subset_sums)
from .linalg import row_norms  # noqa: F401  (perfbench traces this binding)
from .ovm import Ovm
from .report import CheckRecord, check


@dataclass(frozen=True, eq=False)
class VectorMeasure:
    """X-valued measure on the finite space, stored by atom values."""

    space: MeasurableSpace
    target: NormedSpace
    atom_values: np.ndarray  # (m, d)

    def __post_init__(self):
        a = np.asarray(self.atom_values, dtype=np.complex128)
        if a.shape != (self.space.atoms, self.target.dim):
            raise ShapeMismatch(
                f"atom values must be ({self.space.atoms}, {self.target.dim}), "
                f"got {a.shape}")
        object.__setattr__(self, "atom_values", a)

    def value(self, mask: int) -> np.ndarray:
        return self.space.set_sum(self.atom_values, mask)


def make_phi_x_E(ovm: Ovm, x, mask: int) -> VectorMeasure:
    """The vector measure F |-> phi(E n F) x, i.e. atom w carries
    phi({w}) x for w in E and zero otherwise."""
    ovm.space.require(mask)
    xv = np.asarray(x, dtype=np.complex128)
    if xv.shape != (ovm.dim,):
        raise ShapeMismatch(f"vector must have dim {ovm.dim}")
    values = np.zeros((ovm.space.atoms, ovm.dim), dtype=np.complex128)
    for w in ovm.space.members(mask):
        values[w] = ovm.atoms[w] @ xv
    return VectorMeasure(space=ovm.space, target=ovm.target, atom_values=values)


def alpha_norm(mu: VectorMeasure, cap: int = ENUMERATION_CAP) -> float:
    """Minimal dilation norm: max over all sets E of ||mu(E)||_X.

    Subset sums are accumulated in ascending atom order, so the result is
    bit-identical to a naive enumeration.
    """
    m = mu.space.atoms
    if m > cap:
        raise EnumerationCapExceeded(m, cap)
    return float(max_subset_norms(mu.atom_values[:, None, :], mu.target.norm)[0])


@dataclass(frozen=True, eq=False)
class DilationSpaceAlpha:
    """Coordinatisation of M_phi: per atom an orthonormal basis of the
    column space of phi({w}); elements are block coordinate vectors."""

    ovm: Ovm
    blocks: Tuple[np.ndarray, ...]
    offsets: Tuple[int, ...]
    dim: int
    cap: int

    @classmethod
    def build(cls, ovm: Ovm, tol: Optional[Tolerance] = None,
              cap: int = ENUMERATION_CAP) -> "DilationSpaceAlpha":
        tol = tol or Tolerance()
        if ovm.space.atoms > cap:
            raise EnumerationCapExceeded(ovm.space.atoms, cap)
        blocks = []
        offsets = [0]
        for w in range(ovm.space.atoms):
            b = orthonormal_range(ovm.atoms[w], tol)
            assert b.shape[1] == numeric_rank(ovm.atoms[w], tol)
            blocks.append(b)
            offsets.append(offsets[-1] + b.shape[1])
        return cls(ovm=ovm, blocks=tuple(blocks), offsets=tuple(offsets),
                   dim=offsets[-1], cap=cap)

    def block(self, w: int, coords: np.ndarray) -> np.ndarray:
        return coords[..., self.offsets[w]:self.offsets[w + 1]]

    def values_from_coords(self, coords: np.ndarray) -> np.ndarray:
        """(..., r) coordinates to (..., m, d) atom values."""
        coords = np.asarray(coords, dtype=np.complex128)
        lead = coords.shape[:-1]
        out = np.zeros(lead + (self.ovm.space.atoms, self.ovm.dim),
                       dtype=np.complex128)
        for w, b in enumerate(self.blocks):
            out[..., w, :] = self.block(w, coords) @ b.T
        return out

    def coords_from_values(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128)
        parts = [values[..., w, :] @ np.conj(b) for w, b in enumerate(self.blocks)]
        return (np.concatenate(parts, axis=-1) if parts
                else np.zeros(values.shape[:-2] + (0,), dtype=np.complex128))

    def measure(self, coords: np.ndarray) -> VectorMeasure:
        return VectorMeasure(space=self.ovm.space, target=self.ovm.target,
                             atom_values=self.values_from_coords(coords))

    def alpha_of_coords(self, coords: np.ndarray) -> float:
        return alpha_norm(self.measure(coords), self.cap)

    def alpha_batch(self, coords: np.ndarray) -> np.ndarray:
        """Alpha norms for a (N, r) batch of coordinate vectors."""
        values = self.values_from_coords(coords)          # (N, m, d)
        return max_subset_norms(values.transpose(1, 0, 2), self.ovm.target.norm)


@dataclass(eq=False)
class DilationSystem:
    """A spectral dilation quadruple (V, rho, Q, T) on a carrier space.

    ``rho_atoms`` holds rho({w}); values on larger sets are sums of atoms.
    ``norm`` is the carrier norm oracle (the alpha norm for the minimal
    system, a Euclidean or restricted norm for adapters); ``carrier`` is
    the alpha coordinatisation, kept only by the minimal system.
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
    norm: Callable[[np.ndarray], float]
    norm_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    carrier: Optional[DilationSpaceAlpha] = None

    def __post_init__(self):
        if self.norm_batch is None:
            single = self.norm
            self.norm_batch = lambda rows: np.array([single(r) for r in rows])

    def rho(self, mask: int) -> np.ndarray:
        return self.space.set_sum(self.rho_atoms, mask)

    def sample_carrier(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return (rng.standard_normal((count, self.dim))
                + 1j * rng.standard_normal((count, self.dim)))


def build_minimal_dilation(system: ImprimitivitySystem,
                           tol: Optional[Tolerance] = None,
                           cap: int = ENUMERATION_CAP) -> DilationSystem:
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
    carrier = DilationSpaceAlpha.build(ovm, tol, cap)
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

    q_mat = (np.concatenate(carrier.blocks, axis=1) if r
             else np.zeros((d, 0), dtype=np.complex128))
    t_mat = (np.concatenate([b.conj().T @ ovm.atoms[w]
                             for w, b in enumerate(carrier.blocks)], axis=0)
             if r else np.zeros((0, d), dtype=np.complex128))

    return DilationSystem(group=rep.group, multiplier=rep.multiplier,
                          space=ovm.space, target=ovm.target, dim=r,
                          v_ops=v_ops, rho_atoms=rho_atoms, Q=q_mat, T=t_mat,
                          norm=carrier.alpha_of_coords,
                          norm_batch=carrier.alpha_batch, carrier=carrier)


def verify_dilation(ds: DilationSystem, system: ImprimitivitySystem,
                    tol: Optional[Tolerance] = None,
                    samples: Optional[int] = None) -> List[CheckRecord]:
    """Residual report for the dilation-system laws.

    (a) phi(E) = Q rho(E) T for every set, (b) Q V_s = W_s Q,
    (c) V_s T = T W_s, (d) rho(A n B) = rho(A) rho(B), (e) rho(Omega) = I,
    (f) V_s V_t = omega(s,t) V_st, (g) V_s rho(E) = rho(sE) V_s, and
    (h) every V_s is an isometry of the carrier norm on sampled elements.
    The defects of (a) and (g) on a set are sums of atom defects and that
    of (d) on a pair of sets is a sum of atom-pair defects, so
    :func:`set_bound` certifies all three on every set and every pair.
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

    omega = ds.multiplier.omega
    resid_f = 0.0
    for s in rep.group.elements:
        for t in rep.group.elements:
            resid_f = max(resid_f, max_abs(
                ds.v_ops[s] @ ds.v_ops[t]
                - omega[s, t] * ds.v_ops[rep.group.mul(s, t)]))
    records.append(check("V_s V_t = omega(s,t) V_st", "dilation(f)", resid_f, eps))

    # atom w's defect is V_s rho({w}) - rho({s.w}) V_s
    resid_g = max(set_bound(ds.v_ops[s] @ ds.rho_atoms
                            - ds.rho_atoms[action.point_map[s]] @ ds.v_ops[s])
                  for s in rep.group.elements)
    records.append(check("covariance V_s rho(E) = rho(sE) V_s", "dilation(g)",
                         resid_g, eps, notes=SET_BOUND_NOTE))

    count = samples if samples is not None else tol.sample_count
    rng = tol.rng()
    coords = ds.sample_carrier(rng, count)
    base = ds.norm_batch(coords)
    keep = base > 1e-12
    resid_h = 0.0
    if ds.dim > 0 and np.any(keep):
        for s in rep.group.elements:
            moved = ds.norm_batch(coords[keep] @ ds.v_ops[s].T)
            resid_h = max(resid_h, float(np.max(np.abs(moved - base[keep])
                                                / base[keep])))
    records.append(check("V_s isometric for the carrier norm (sampled)",
                         "dilation(h)", resid_h, ISOMETRY_RTOL,
                         notes=f"{count} samples per element"))
    return records


def restrict_probability(ds: DilationSystem,
                         tol: Optional[Tolerance] = None) -> DilationSystem:
    """Restrict a dilation system to the range of rho(Omega).

    rho(Omega) must be idempotent; its range is invariant under every V_s
    and rho(E), and the restriction (with T replaced by rho(Omega) T) is a
    probability dilation system of the same pair once
    :func:`verify_dilation` passes on it.
    """
    tol = tol or Tolerance()
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
        norm=lambda c: ds.norm(basis @ np.asarray(c, dtype=np.complex128)),
        norm_batch=lambda rows: ds.norm_batch(
            np.asarray(rows, dtype=np.complex128) @ basis.T),
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

    def d_norm(self, coords) -> float:
        return self.target.norm(self.R @ np.asarray(coords, dtype=np.complex128))

    def d_batch(self, coords: np.ndarray) -> np.ndarray:
        return self.target.norm_batch(np.asarray(coords, dtype=np.complex128)
                                      @ self.R.T)


def induced_norm_from_injective(ds: DilationSystem, system: ImprimitivitySystem,
                                tol: Optional[Tolerance] = None,
                                minimal: Optional[DilationSystem] = None
                                ) -> InducedDilationNorm:
    """Pull the norm of an injective dilation system back onto M_phi.

    Injectivity is the factoring criterion: the generator-to-image map
    phi_{x,E} |-> rho(E) T x must kill every combination that vanishes in
    M_phi, certified by a rank comparison. R maps M_phi coordinates into
    the carrier of ``ds`` and is checked to intertwine all four structure
    maps of the minimal system.
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

    rank_gen = numeric_rank(gen_coords, tol)
    rank_aug = numeric_rank(np.concatenate([gen_coords, gen_images], axis=1), tol)
    if rank_aug > rank_gen:
        # exhibit a vanishing combination with a nonzero image
        _, svals, vh = np.linalg.svd(gen_coords.T, full_matrices=True)
        smax = float(svals[0]) if svals.size else 0.0
        null_rows = vh[rank_gen:] if smax > 0 else vh
        for c in np.conj(null_rows):
            if max_abs(c @ gen_images) > eps:
                raise NotInjective(c)
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
                     tol: Optional[Tolerance] = None,
                     samples: int = 500) -> Tuple[float, float, List[CheckRecord]]:
    """Sampled check of the minimality inequality alpha <= K * d.

    For X = l2 and a Euclidean carrier norm on ``induced.target``, every
    mu in M_phi has mu(E) = Q_d rho_d(E) R mu, so
    K = max over sets E of the largest singular value of Q_d rho_d(E) is
    an exact constant, computed from the target alone; the check then
    confirms alpha(mu) <= K d(mu) on every sample. Returns
    (C_est, K, records) where C_est is the largest observed ratio.
    """
    tol = tol or Tolerance()
    minimal = induced.minimal
    if minimal.target.norm.kind != "l2":
        raise InvalidInput("the minimality bound needs a Euclidean space X")
    rng = tol.rng()
    coords = minimal.sample_carrier(rng, samples)
    d_norms = induced.d_batch(coords)
    keep = d_norms > 1e-12
    coords, d_norms = coords[keep], d_norms[keep]
    if coords.shape[0] == 0:
        record = check("alpha <= K d on samples", "minimality", 0.0,
                       tol.eps_residual, notes="degenerate: no nonzero samples")
        return 0.0, 0.0, [record]

    target = induced.target
    set_ops = np.matmul(target.Q, subset_sums(target.rho_atoms))  # (2^m, d, k)
    k_bound = (float(np.max(np.linalg.svd(set_ops, compute_uv=False)))
               if set_ops.size else 0.0)

    alpha_norms = minimal.carrier.alpha_batch(coords)
    c_est = float(np.max(alpha_norms / d_norms))
    excess = float(np.max(alpha_norms - k_bound * d_norms))
    resid = max(0.0, excess) / (1.0 + float(np.max(alpha_norms)))
    violations = int(np.sum(alpha_norms > k_bound * d_norms * (1.0 + 1e-12)))
    record = check("alpha <= K d on samples", "minimality", resid,
                   tol.eps_residual,
                   notes=f"K={k_bound:.6g}, C_est={c_est:.6g}, "
                         f"violations={violations}/{coords.shape[0]}")
    return c_est, k_bound, [record]
