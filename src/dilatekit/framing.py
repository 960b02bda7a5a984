"""Framings induced by projective isometric representations, and their
dilation to a suppression-unconditional basis of a larger Banach space.

The dilated space Z is spanned by formal unit vectors e_{g,j}, one per
(group element, window) pair, normed by the exact max over index subsets
of the X-norm of the corresponding synthesis sum. On Z live the analysis
map T, the contractive synthesis map S, and the lifted projective
representation lambda with the same multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .algebra import cyclic_group, trivial_multiplier
from .errors import ShapeMismatch, SingularFrameOperator, ZeroWindow
from .imprimitivity import ProjectiveRep, check_rep
from .linalg import (ELEMENT_BOUND_NOTE, ISOMETRY_RTOL, NormedSpace, NormTag,
                     Tolerance, cyclic_shifts, distortion, max_abs,
                     max_subset_norms, product_defects, require_finite,
                     row_norms, shrink_bound, subset_sums, vec_norm)
from .ovm import Ovm, framing_ovm, evaluate
from .report import CheckRecord, check, flag


@dataclass(frozen=True, eq=False)
class FramingSystem:
    """Windows and dual functionals reconstructing X through theta."""

    theta: ProjectiveRep
    windows: np.ndarray  # (J, d)
    duals: np.ndarray    # (J, d) coefficient vectors of the functionals

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.windows, dtype=np.complex128))
        fs = np.atleast_2d(np.asarray(self.duals, dtype=np.complex128))
        d = self.theta.space.dim
        if xs.shape[1] != d or fs.shape[1] != d or xs.shape[0] != fs.shape[0]:
            raise ShapeMismatch("windows and duals must be equal-length lists "
                                f"of vectors of dim {d}")
        require_finite(xs, "windows")
        require_finite(fs, "duals")
        object.__setattr__(self, "windows", xs)
        object.__setattr__(self, "duals", fs)

    @property
    def window_count(self) -> int:
        return self.windows.shape[0]

    @cached_property
    def measure(self) -> Ovm:
        """The operator-valued measure the framing induces, built once."""
        return framing_ovm(self.theta, self.windows, self.duals)


def _require_nonzero_windows(fs: FramingSystem) -> None:
    for j in range(fs.window_count):
        if vec_norm(fs.windows[j], NormTag.l2()) == 0.0:
            raise ZeroWindow(j)


def verify_framing(fs: FramingSystem, tol: Optional[Tolerance] = None
                   ) -> List[CheckRecord]:
    """Reconstruction residual on a basis of X (linearity covers the rest)."""
    tol = tol or Tolerance()
    _require_nonzero_windows(fs)
    d = fs.theta.space.dim
    total = evaluate(fs.measure, (1 << fs.theta.group.order) - 1)
    resid = max_abs(total - np.eye(d))
    return [
        flag("windows nonzero", "valid.framing.windows", True),
        check("framing reconstruction on basis vectors",
              "valid.framing.reconstruction", resid, tol.eps_residual),
    ]


@dataclass(eq=False)
class DilatedBasis:
    """The dilation space Z in e_{g,j} coordinates (index g-major)."""

    fs: FramingSystem
    z_dim: int
    synth: np.ndarray    # (Z, d) row (g,j) is theta_g x_j
    T: np.ndarray        # (Z, d) analysis map, row (g,j) is theta*_{g^-1} x*_j
    S: np.ndarray        # (d, Z) synthesis map
    lambdas: np.ndarray  # (n, Z, Z)

    def index(self, g: int, j: int) -> int:
        return g * self.fs.window_count + j

    def z_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.complex128)
        weighted = rows.T[:, :, None] * self.synth[:, None, :]  # (Z, N, d)
        return max_subset_norms(weighted, self.fs.theta.space.norm)

    def suppressed_norms(self, coeffs) -> np.ndarray:
        """||P_E f||_Z for every index subset E, via max over submasks."""
        c = np.asarray(coeffs, dtype=np.complex128)
        sums = subset_sums(c[:, None] * self.synth)
        dp = row_norms(sums, self.fs.theta.space.norm)
        for b in range(self.z_dim):
            bit = 1 << b
            has = (np.arange(1 << self.z_dim) & bit) != 0
            dp[has] = np.maximum(dp[has], dp[~has])
        return dp


def build_dilated_basis(fs: FramingSystem) -> DilatedBasis:
    """Construct Z, T, S and lambda in e_{g,j} coordinates.

    T(x) collects the analysis coefficients <x, theta*_{g^-1} x*_j>,
    S(e_{g,j}) = theta_g x_j, and lambda_h(e_{g,j}) = m(h,g) e_{hg,j}.
    """
    _require_nonzero_windows(fs)
    theta = fs.theta
    n, big_j, d = theta.group.order, fs.window_count, theta.space.dim
    z_dim = n * big_j

    synth = np.zeros((z_dim, d), dtype=np.complex128)
    analysis = np.zeros((z_dim, d), dtype=np.complex128)
    for g in theta.group.elements:
        wg = theta.matrices[g]
        wginv_t = theta.matrices[theta.group.inv(g)].T
        for j in range(big_j):
            synth[g * big_j + j] = wg @ fs.windows[j]
            analysis[g * big_j + j] = wginv_t @ fs.duals[j]

    lambdas = np.zeros((n, z_dim, z_dim), dtype=np.complex128)
    omega = theta.multiplier.omega
    for h in theta.group.elements:
        for g in theta.group.elements:
            hg = theta.group.mul(h, g)
            for j in range(big_j):
                lambdas[h, hg * big_j + j, g * big_j + j] = omega[h, g]

    return DilatedBasis(fs=fs, z_dim=z_dim, synth=synth, T=analysis,
                        S=synth.T.copy(), lambdas=lambdas)


def verify_basis_dilation(db: DilatedBasis, fs: FramingSystem,
                          tol: Optional[Tolerance] = None) -> List[CheckRecord]:
    """Residual report for the unconditional-basis dilation, checks (a)-(i).

    The norm laws are certified from the operators, with no Z-norm
    evaluated. The Z-norm is ||f||_Z = max over index sets E of
    ||Y P_E f||_X, Y = synth^T, and s_k = ||Y e_k||_X; so |f_k| s_k <=
    ||f||_Z and ||g||_Z <= sum_i |g_i| s_i.

    * (c): split lambda_h = M_h + N_h, M_h on the group-table pattern
      (hg, j) <- (g, j). Y M_h P_E f = theta_h Y P_E f - (theta_h Y - Y M_h)
      P_E f, so ||M_h f||_Z is within (distortion(theta_h)
      + sum_k ||(theta_h Y - Y M_h) e_k||_X / s_k) ||f||_Z of ||f||_Z, and
      ||N_h f||_Z <= sum_ik |N_h[i, k]| s_i / s_k ||f||_Z.
    * (g): ||S f||_X <= ||Y f||_X + ||(S - Y) f||_X, at most
      (1 + sum_k ||(S - Y) e_k||_X / s_k) ||f||_Z; the residual is relative
      to ||f||_Z and 0 for S = Y, as built.
    * (h), ||P_E f||_Z <= ||f||_Z: the sets under E are among those under
      the full set, so it reads 0.
    * (i): ||Tx||_Z >= ||Y T x||_X >= ||x||_X / N((Y T)^-1), with N from
      :func:`linalg.norm_bound`.

    The dual-basis transformation laws (the e* part of (e), and (f)) hold
    as displayed only for symmetric real multipliers under the bilinear
    duality fixed package-wide; other multipliers make those two checks
    fail by a unit-modulus factor, which the notes point out. Everything
    else holds for arbitrary multipliers.
    """
    tol = tol or Tolerance()
    eps = tol.eps_residual
    theta = fs.theta
    group = theta.group
    tag = theta.space.norm
    n, big_j, d = group.order, fs.window_count, theta.space.dim
    z_dim = db.z_dim
    omega = theta.multiplier.omega
    y = db.synth.T
    scale = row_norms(db.synth, tag)  # s_k
    records = []

    records.append(check("reconstruction S T = I on X", "basis(a)",
                         max_abs(db.S @ db.T - np.eye(d)), eps))

    resid_b = product_defects(db.lambdas, omega, group.table).max()
    records.append(check("lambda_h lambda_k = m(h,k) lambda_hk", "basis(b)",
                         resid_b, eps))

    resid_c = 0.0
    cols = np.arange(z_dim)
    for h in group.elements:
        rows = (group.table[h][:, None] * big_j + np.arange(big_j)).ravel()
        mono = np.zeros_like(db.lambdas[h])
        mono[rows, cols] = db.lambdas[h][rows, cols]
        moved = row_norms((theta.matrices[h] @ y - y @ mono).T, tag)
        resid_c = max(resid_c, distortion(theta.matrices[h], tag)
                      + float(np.sum(moved / scale))
                      + float(scale @ np.abs(db.lambdas[h] - mono) @ (1.0 / scale)))
    records.append(check("lambda_h isometric on Z", "basis(c)", resid_c,
                         ISOMETRY_RTOL, notes=ELEMENT_BOUND_NOTE))

    multiplier_note = ""
    if not theta.multiplier.symmetric:
        multiplier_note = ("law as displayed needs a symmetric multiplier; "
                           "residual includes the unit-modulus twist")
    resid_d1 = max(max_abs(theta.matrices[g] @ db.S - db.S @ db.lambdas[g])
                   for g in group.elements)
    resid_d2 = max(max_abs(db.lambdas[g] @ db.T - db.T @ theta.matrices[g])
                   for g in group.elements)
    records.append(check("intertwining theta_g S = S lambda_g", "basis(d1)",
                         resid_d1, eps))
    records.append(check("intertwining lambda_g T = T theta_g", "basis(d2)",
                         resid_d2, eps, notes=multiplier_note))

    unit = group.identity
    resid_e = 0.0
    for g in group.elements:
        for j in range(big_j):
            e_gj = np.zeros(z_dim, dtype=np.complex128)
            e_gj[db.index(g, j)] = 1.0
            e_uj = np.zeros(z_dim, dtype=np.complex128)
            e_uj[db.index(unit, j)] = 1.0
            resid_e = max(resid_e, max_abs(db.lambdas[g] @ e_uj - e_gj))
            resid_e = max(resid_e,
                          max_abs(db.lambdas[group.inv(g)].T @ e_uj - e_gj))
    records.append(check("basis orbit e_gj = lambda_g e_uj and dual orbit",
                         "basis(e)", resid_e, eps, notes=multiplier_note))

    resid_f = 0.0
    for h in group.elements:
        h_inv = group.inv(h)
        for g in group.elements:
            for j in range(big_j):
                e_dual = np.zeros(z_dim, dtype=np.complex128)
                e_dual[db.index(g, j)] = 1.0
                expected = np.zeros(z_dim, dtype=np.complex128)
                expected[db.index(group.mul(h_inv, g), j)] = omega[h_inv, g]
                resid_f = max(resid_f, max_abs(db.lambdas[h].T @ e_dual - expected))
    records.append(check("dual action lambda*_h e*_gj = m(h^-1,g) e*_h^-1g,j",
                         "basis(f)", resid_f, eps, notes=multiplier_note))

    resid_g = float(np.sum(row_norms((db.S - y).T, tag) / scale))
    records.append(check("S contractive from Z to X", "basis(g)", resid_g, eps,
                         notes=ELEMENT_BOUND_NOTE))

    records.append(check("suppression unconditionality ||P_E f|| <= ||f||",
                         "basis(h)", 0.0, eps,
                         notes="certified by the definition of the Z-norm"))

    records.append(check("T bounded below (into isomorphism)", "basis(i)",
                         max(0.0, shrink_bound(y @ db.T, tag)), eps,
                         notes=ELEMENT_BOUND_NOTE))
    return records


def cyclic_shift_framing(n: int, r: int, tag: NormTag, seed: int,
                         windows=None) -> FramingSystem:
    """Multi-window framing from cyclic shifts on C^n.

    Windows are random complex vectors unless given explicitly; duals come
    from inverting the Euclidean frame operator of the full shift orbit
    (the reconstruction identity is norm independent once it holds, and
    shifts are isometries for every lp). Raises
    :class:`SingularFrameOperator` when the windows fail to span.
    """
    group = cyclic_group(n)
    rng = np.random.default_rng(seed)
    if windows is None:
        windows = (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
        windows /= np.sqrt(n * r)
    else:
        windows = np.atleast_2d(np.asarray(windows, dtype=np.complex128))

    shifts = cyclic_shifts(n)
    frame_op = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        for i in range(r):
            v = shifts[k] @ windows[i]
            frame_op += np.outer(v, np.conj(v))
    evals = np.linalg.eigvalsh((frame_op + frame_op.conj().T) / 2.0)
    if float(evals[0]) <= 1e-10 * max(float(evals[-1]), 1e-300):
        raise SingularFrameOperator()

    canonical = np.linalg.solve(frame_op, windows.T).T
    duals = np.conj(canonical)

    space = NormedSpace(n, tag)
    rep, _ = check_rep(group, trivial_multiplier(group), space, shifts)
    return FramingSystem(theta=rep, windows=windows, duals=duals)


def standard_basis_framing(n: int, tag: Optional[NormTag] = None) -> FramingSystem:
    """Single delta window under cyclic shifts: the framing is the standard
    basis with its dual basis, and the induced measure is spectral."""
    tag = tag or NormTag.l2()
    group = cyclic_group(n)
    space = NormedSpace(n, tag)
    rep, _ = check_rep(group, trivial_multiplier(group), space, cyclic_shifts(n))
    delta = np.zeros((1, n), dtype=np.complex128)
    delta[0, 0] = 1.0
    return FramingSystem(theta=rep, windows=delta, duals=delta.copy())
