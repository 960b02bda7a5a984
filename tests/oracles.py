"""Test oracles: the norms, sampled checks and plain loops that the
report path no longer evaluates.

The minimal dilation norm alpha on one vector measure, and the sampled
versions of dilation(h), minimality, basis(c), basis(g) and basis(i) as
the verifiers computed them before each became a certified bound. Every
sampled residual here must stay below the certified one, up to the
rounding of the sampled estimate itself. The pairwise product rule is the
oracle of :func:`linalg.product_defects`, and the per-element loops below
are the oracles of the laws, bounds and builders that take every group
element in one stacked call: each stacked result must equal its loop bit
for bit, and raise the same error on the same first (s, w). The other
helpers serve tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dilatekit.algebra import MeasurableSpace
from dilatekit.errors import (BlockRankMismatch, ClosureViolation,
                              NonUnitaryRep, NotIsometry, ShapeMismatch)
from dilatekit.linalg import (NormTag, NormedSpace, Tolerance, as_matrix,
                              hermitian_eig, is_isometry, max_abs,
                              max_subset_norms, row_norms, subset_sums)
from dilatekit.ovm import Ovm


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


def alpha_norm(mu: VectorMeasure) -> float:
    """Minimal dilation norm: max over all sets E of ||mu(E)||_X.

    Subset sums are accumulated in ascending atom order, so the result is
    bit-identical to a naive enumeration.
    """
    return float(max_subset_norms(mu.atom_values[:, None, :], mu.target.norm)[0])


def alpha_of_coords(carrier, coords) -> float:
    """alpha of the vector measure with carrier coordinates ``coords``."""
    mu = VectorMeasure(space=carrier.ovm.space, target=carrier.ovm.target,
                       atom_values=carrier.values_from_coords(coords))
    return alpha_norm(mu)


def z_norm(db, coeffs) -> float:
    """||f||_Z: max over index sets E of ||sum_{k in E} f_k synth_k||_X."""
    return float(db.z_batch(np.asarray(coeffs, dtype=np.complex128)[None])[0])


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def carrier_norms(ds, coords: np.ndarray) -> np.ndarray:
    """The carrier norm of each row: alpha, or Euclidean without a carrier."""
    if ds.carrier is not None:
        return ds.carrier.alpha_batch(coords)
    return np.linalg.norm(coords, axis=1)


def sampled_isometry(ds, samples: int = 256, seed: int = 0) -> float:
    """dilation(h) on samples: the largest | ||V_s c|| / ||c|| - 1 |."""
    coords = gaussian(np.random.default_rng(seed), (samples, ds.dim))
    base = carrier_norms(ds, coords)
    keep = base > 1e-12
    resid = 0.0
    if ds.dim > 0 and np.any(keep):
        for v in ds.v_ops:
            moved = carrier_norms(ds, coords[keep] @ v.T)
            resid = max(resid, float(np.max(np.abs(moved - base[keep])
                                            / base[keep])))
    return resid


def scanned_k(target) -> float:
    """max over sets E of ||Q_t rho_t(E)||, by the SVD of every set's
    operator."""
    set_ops = np.matmul(target.Q, subset_sums(target.rho_atoms))
    return (float(np.max(np.linalg.svd(set_ops, compute_uv=False)))
            if set_ops.size else 0.0)


def sampled_minimality(induced, samples: int = 256, seed: int = 0) -> dict:
    """alpha <= K d on samples, K by :func:`scanned_k`: the residual
    max(0, max(alpha - K d)) / (1 + max alpha), the largest ratio
    alpha / d, and the count of samples that break the inequality."""
    minimal = induced.minimal
    coords = gaussian(np.random.default_rng(seed), (samples, minimal.dim))
    d_norms = np.linalg.norm(coords @ induced.R.T, axis=1)
    keep = d_norms > 1e-12
    coords, d_norms = coords[keep], d_norms[keep]
    if coords.shape[0] == 0:
        return {"residual": 0.0, "ratio": 0.0, "violations": 0}
    k_bound = scanned_k(induced.target)
    alphas = minimal.carrier.alpha_batch(coords)
    excess = float(np.max(alphas - k_bound * d_norms))
    return {"residual": max(0.0, excess) / (1.0 + float(np.max(alphas))),
            "ratio": float(np.max(alphas / d_norms)),
            "violations": int(np.sum(alphas > k_bound * d_norms * (1 + 1e-12)))}


def sampled_lambda_isometry(db, samples: int = 256, seed: int = 0) -> float:
    """basis(c) on samples: the largest | ||lambda_h f||_Z / ||f||_Z - 1 |."""
    coeffs = gaussian(np.random.default_rng(seed), (samples, db.z_dim))
    base = db.z_batch(coeffs)
    keep = base > 1e-12
    resid = 0.0
    if np.any(keep):
        for lam in db.lambdas:
            moved = db.z_batch(coeffs[keep] @ lam.T)
            resid = max(resid, float(np.max(np.abs(moved - base[keep])
                                            / base[keep])))
    return resid


def sampled_contraction(db, samples: int = 256, seed: int = 0) -> float:
    """basis(g) on samples: the largest (||S f||_X - ||f||_Z)^+ / ||f||_Z,
    relative to ||f||_Z as the certified residual is."""
    coeffs = gaussian(np.random.default_rng(seed), (samples, db.z_dim))
    base = db.z_batch(coeffs)
    x_norms = row_norms(coeffs @ db.S.T, db.fs.theta.space.norm)
    return float(np.max(np.maximum(x_norms - base, 0.0) / base))


def sampled_shrinkage(db, samples: int = 256, seed: int = 0) -> float:
    """basis(i) on samples: 1 - min ||Tx||_Z / ||x||_X, at least 0."""
    x = gaussian(np.random.default_rng(seed), (samples, db.synth.shape[1]))
    x_norms = row_norms(x, db.fs.theta.space.norm)
    ratio = db.z_batch(x @ db.T.T) / x_norms
    return max(0.0, 1.0 - float(np.min(ratio)))


def pairwise_product_defects(ops, omega, mul) -> np.ndarray:
    """max |ops[s] ops[t] - omega[s, t] ops[mul(s, t)]| for every pair,
    one product at a time."""
    n = len(ops)
    out = np.zeros((n, n))
    for s in range(n):
        for t in range(n):
            out[s, t] = max_abs(ops[s] @ ops[t] - omega[s, t] * ops[mul(s, t)])
    return out


def symmetric_inverse_residual(rep) -> float:
    """For symmetric multipliers W_{s^-1} must invert W_s; max residual."""
    if not rep.group.is_group:
        return float("inf")
    d = rep.space.dim
    return max(max_abs(rep.matrices[s] @ rep.matrices[rep.group.inv(s)]
                       - np.eye(d)) for s in rep.group.elements)


def coords_from_values(carrier, values: np.ndarray) -> np.ndarray:
    """(..., m, d) atom values to (..., r) coordinates of ``carrier``, the
    inverse of ``carrier.values_from_coords`` on its range."""
    values = np.asarray(values, dtype=np.complex128)
    parts = [values[..., w, :] @ np.conj(b) for w, b in enumerate(carrier.blocks)]
    return (np.concatenate(parts, axis=-1) if parts
            else np.zeros(values.shape[:-2] + (0,), dtype=np.complex128))


def same_scenario(a, b) -> bool:
    """Scenarios ``a`` and ``b`` hold equal fields, arrays compared exactly."""
    def eq(x, y):
        if x is None or y is None:
            return (x is None) == (y is None)
        return np.array_equal(np.asarray(x), np.asarray(y))

    return (a.schema_version == b.schema_version
            and a.tolerance == b.tolerance
            and eq(a.group_table, b.group_table)
            and a.space_dim == b.space_dim
            and a.space_norm == b.space_norm
            and eq(a.rep_matrices, b.rep_matrices)
            and eq(a.multiplier, b.multiplier)
            and eq(a.action_table, b.action_table)
            and eq(a.ovm_atoms, b.ovm_atoms)
            and eq(a.framing_windows, b.framing_windows)
            and eq(a.framing_duals, b.framing_duals)
            and a.hints == b.hints)


# -- per-element loops of the stacked code --

L2 = NormTag.l2()


def matrix_norm_bound(m, tag) -> float:
    """linalg.norm_bound of one matrix, as a loop body computed it."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    if tag.kind == "l2":
        return float(np.linalg.svd(a, compute_uv=False)[0])
    mags = np.abs(a)
    col, row = float(mags.sum(axis=0).max()), float(mags.sum(axis=1).max())
    if tag.kind == "l1":
        return col
    if tag.kind == "linf":
        return row
    return col ** (1.0 / tag.p) * row ** (1.0 - 1.0 / tag.p)


def matrix_shrink_bound(m, tag) -> float:
    try:
        return 1.0 - 1.0 / matrix_norm_bound(np.linalg.inv(m), tag)
    except np.linalg.LinAlgError:
        return 1.0


def matrix_distortion(m, tag) -> float:
    if np.size(m) == 0:
        return 0.0
    return max(0.0, matrix_norm_bound(m, tag) - 1.0, matrix_shrink_bound(m, tag))


def matrix_isometry_residual(m, tag) -> float:
    """is_isometry's residual of one matrix, as its loop computed it."""
    a = as_matrix(m)
    n = a.shape[0]
    if n == 0:
        return 0.0
    if tag.kind == "l2":
        return max_abs(a.conj().T @ a - np.eye(n))
    mags = np.abs(a)
    second_rows = np.partition(mags, -2, axis=1)[:, -2] if n > 1 else np.zeros(n)
    second_cols = np.partition(mags, -2, axis=0)[-2, :] if n > 1 else np.zeros(n)
    per_row = np.maximum(np.abs(mags.max(axis=1) - 1.0), second_rows)
    per_col = np.maximum(np.abs(mags.max(axis=0) - 1.0), second_cols)
    return float(max(per_row.max(), per_col.max()))


def matrix_hermitian_eig(m, tol=None):
    """linalg.hermitian_eig of one Hermitian matrix, as its loop computed it."""
    tol = tol or Tolerance()
    a = as_matrix(m)
    if a.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    evals, evecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order]


def matrix_numeric_rank(m, tol=None) -> int:
    tol = tol or Tolerance()
    a = as_matrix(m)
    if a.size == 0:
        return 0
    svals = np.linalg.svd(a, compute_uv=False)
    smax = float(svals[0])
    if smax <= 0.0:
        return 0
    return int(np.sum(svals > tol.eps_rank * smax))


def matrix_orthonormal_range(m, tol=None) -> np.ndarray:
    tol = tol or Tolerance()
    a = as_matrix(m)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, svals, _ = np.linalg.svd(a, full_matrices=False)
    smax = float(svals[0]) if svals.size else 0.0
    if smax <= 0.0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    return u[:, :int(np.sum(svals > tol.eps_rank * smax))]


def loop_classify(ovm, tol=None) -> tuple:
    """The positive and spectral flags of ovm.classify, atom by atom and
    pair by pair."""
    eps = (tol or Tolerance()).eps_residual
    positive = True
    for atom in ovm.atoms:
        if max_abs(atom - atom.conj().T) > eps:
            positive = False
            break
        evals = np.linalg.eigvalsh((atom + atom.conj().T) / 2.0)
        if evals.size and float(evals[0]) < -eps:
            positive = False
            break
    m = ovm.space.atoms
    spectral = all(max_abs(ovm.atoms[a] @ ovm.atoms[b]
                           - (ovm.atoms[a] if a == b else 0.0)) <= eps
                   for a in range(m) for b in range(m))
    return positive, spectral


def loop_rep_isometry(group, space, mats, tol=None) -> float:
    """check_rep's isometry loop: the largest residual, or NotIsometry at
    the first failing element."""
    resid = 0.0
    for s in group.elements:
        chk = is_isometry(mats[s], space.norm, tol)
        if not chk.ok:
            raise NotIsometry(s, chk.witness)
        resid = max(resid, chk.residual)
    return resid


def loop_unitarity(rep, tol=None) -> None:
    """The unitarity loops of build_hilbert_dilation and bessel_ovm."""
    for s in rep.group.elements:
        chk = is_isometry(rep.matrices[s], rep.space.norm, tol)
        if not chk.ok:
            raise NonUnitaryRep(s, chk.residual)


def loop_covariance_residuals(rep, ovm, action) -> np.ndarray:
    out = np.zeros((rep.group.order, ovm.space.atoms))
    for s in rep.group.elements:
        ws = rep.matrices[s]
        for w in range(ovm.space.atoms):
            out[s, w] = max_abs(ws @ ovm.atoms[w]
                                - ovm.atoms[action.point(s, w)] @ ws)
    return out


def loop_minimal_v_ops(system, carrier, tol=None) -> np.ndarray:
    """V_s of the minimal dilation, one (s, w) block at a time."""
    tol = tol or Tolerance()
    rep, action = system.rep, system.action
    r = carrier.dim
    v_ops = np.zeros((rep.group.order, r, r), dtype=np.complex128)
    for s in rep.group.elements:
        ws = rep.matrices[s]
        for w in range(system.ovm.space.atoms):
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
    return v_ops


def loop_isometry_bound(ds, system) -> float:
    """banach._isometry_bound, one element at a time."""
    if ds.carrier is None:
        return max(matrix_distortion(v, L2) for v in ds.v_ops)
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
            blocks += matrix_norm_bound(rep.matrices[s] @ b
                                        - carrier.blocks[u] @ rest[cut], L2)
            rest[cut] = 0.0
        worst = max(worst, matrix_distortion(rep.matrices[s], tag) + kappa_lam * (
            blocks + ds.space.atoms * matrix_norm_bound(rest, L2)))
    return worst


def loop_hilbert_lift(system, tol=None) -> np.ndarray:
    """The lifted unitaries U~_g of build_hilbert_dilation, one (g, w)
    block at a time, after its unitarity loop."""
    tol = tol or Tolerance()
    rep, ovm, action = system.rep, system.ovm, system.action
    loop_unitarity(rep, tol)
    m = ovm.space.atoms
    vectors, values, offsets = [], [], [0]
    for w in range(m):
        evals, evecs = hermitian_eig(ovm.atoms[w], tol)
        lam_max = float(evals[0]) if evals.size else 0.0
        keep = evals > tol.eps_rank * max(lam_max, 0.0)
        vectors.append(evecs[:, keep])
        values.append(np.asarray(evals[keep], dtype=float))
        offsets.append(offsets[-1] + int(keep.sum()))
    k_dim = offsets[-1]
    u_tilde = np.zeros((rep.group.order, k_dim, k_dim), dtype=np.complex128)
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
    return u_tilde


def loop_element_laws(ds, system, minimal=None, r_map=None) -> dict:
    """The laws that take every element in one stacked product, one element
    at a time: dilation(b), (c) (hilbert(4) on a Hilbert dilation), the
    unitarity of every V_s (hilbert(2)), and induced(1) when the minimal
    dilation and R are given."""
    rep = system.rep
    out = {
        "dilation(b)": max(max_abs(ds.Q @ ds.v_ops[s] - rep.matrices[s] @ ds.Q)
                           for s in rep.group.elements),
        "dilation(c)": max(max_abs(ds.v_ops[s] @ ds.T - ds.T @ rep.matrices[s])
                           for s in rep.group.elements),
        "hilbert(2)": max(max_abs(ds.v_ops[g].conj().T @ ds.v_ops[g]
                                  - np.eye(ds.dim)) for g in rep.group.elements),
    }
    if minimal is not None:
        out["induced(1)"] = max(max_abs(r_map @ minimal.v_ops[s]
                                        - ds.v_ops[s] @ r_map)
                                for s in rep.group.elements)
    return out
