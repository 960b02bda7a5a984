"""Test oracles: the norms, sampled checks and plain loops that the
report path no longer evaluates.

The minimal dilation norm alpha on one vector measure, and the sampled
versions of dilation(h), minimality, basis(c), basis(g) and basis(i) as
the verifiers computed them before each became a certified bound. Every
sampled residual here must stay below the certified one, up to the
rounding of the sampled estimate itself. The pairwise product rule is the
oracle of :func:`linalg.product_defects`; the other helpers serve tests
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dilatekit.algebra import MeasurableSpace
from dilatekit.errors import ShapeMismatch
from dilatekit.linalg import (NormedSpace, max_abs, max_subset_norms,
                              row_norms, subset_sums)
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
