"""Dense complex linear algebra over finite-dimensional normed spaces.

Scalars are complex double precision, matrices are row-major numpy arrays,
and every verification is residual based against an explicit ``Tolerance``.
Two pairing conventions are fixed here once and used by every other module:

* Banach duality is bilinear: a functional is its coefficient vector,
  ``dual_pair(x, f) = sum_i x_i f_i``, and the adjoint of a matrix is the
  plain transpose.
* Hilbert structure uses the sesquilinear ``hermitian_inner`` (conjugation
  on the second slot) with conjugate-transpose adjoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EnumerationCapExceeded, InvalidInput

# Threshold of the isometry laws dilation(h) and basis(c), on the relative
# change of a norm.
ISOMETRY_RTOL = 1e-8
# Largest m for which subset_sums allocates its 2^m rows. No report
# enumerates sets; the evaluators and the test oracles do.
ENUMERATION_CAP = 16
# Working memory of one chunk of subset sums in max_subset_norms.
SUBSET_CHUNK_BYTES = 8 << 20
# Report note of every check whose residual is a set_bound.
SET_BOUND_NOTE = "certified bound over every set"
# Report note of every norm law certified from the operators, with no
# norm evaluated.
ELEMENT_BOUND_NOTE = "certified bound over every element"


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1:
        raise InvalidInput(f"expected a vector, got shape {a.shape}")
    return a


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidInput(f"expected a matrix, got shape {a.shape}")
    return a


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    # np.isfinite on complex arrays requires both components finite
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInput(f"{what} has non-finite entries")
    return a


def max_abs(a) -> float:
    """Largest entry modulus; 0 for an empty array."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True)
class NormTag:
    """Selects the norm on a coordinate space: l1, l2, linf, or lp with p > 1.

    ``lp`` is reserved for general exponents; use the dedicated tags for
    p in {1, 2, inf} (the factory :meth:`lp` coerces those automatically).
    """

    kind: str
    p: Optional[float] = None

    _KINDS = ("l1", "l2", "linf", "lp")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InvalidInput(f"unknown norm kind {self.kind!r}")
        if self.kind == "lp":
            if self.p is None or not math.isfinite(self.p) or self.p <= 1.0:
                raise InvalidInput("lp norm requires a finite exponent p > 1")
        elif self.p is not None:
            raise InvalidInput(f"{self.kind} norm takes no exponent")

    @classmethod
    def l1(cls) -> "NormTag":
        return cls("l1")

    @classmethod
    def l2(cls) -> "NormTag":
        return cls("l2")

    @classmethod
    def linf(cls) -> "NormTag":
        return cls("linf")

    @classmethod
    def lp(cls, p: float) -> "NormTag":
        """General exponent tag; p = 1, 2, inf are coerced to the exact tags."""
        if p == 1.0:
            return cls("l1")
        if p == 2.0:
            return cls("l2")
        if math.isinf(p):
            return cls("linf")
        return cls("lp", float(p))

    @property
    def exponent(self) -> float:
        return {"l1": 1.0, "l2": 2.0, "linf": math.inf}.get(self.kind, self.p)

    def label(self) -> str:
        return self.kind if self.kind != "lp" else f"lp({self.p:g})"


@dataclass(frozen=True)
class NormedSpace:
    dim: int
    norm: NormTag

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidInput("space dimension must be nonnegative")


@dataclass(frozen=True)
class Tolerance:
    """Residual thresholds used by all verifiers. ``sample_count`` and
    ``seed`` are kept for schema v1; no check samples."""

    eps_residual: float = 1e-9
    eps_rank: float = 1e-10
    sample_count: int = 256
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.eps_residual < math.inf and 0 < self.eps_rank < math.inf):
            raise InvalidInput("tolerances must be finite and positive")
        if self.sample_count < 1:
            raise InvalidInput("sample_count must be >= 1")
        if self.seed < 0:
            raise InvalidInput("seed must be nonnegative")


def vec_norm(v, tag: NormTag) -> float:
    """Norm of a coordinate vector under ``tag``.

    An empty vector has norm 0 (the zero-dimensional space shows up in
    degenerate dilations).
    """
    a = require_finite(as_vector(v), "vector")
    if a.size == 0:
        return 0.0
    mags = np.abs(a)
    if tag.kind == "l1":
        return float(np.sum(mags))
    if tag.kind == "l2":
        return float(np.sqrt(np.sum(mags * mags)))
    if tag.kind == "linf":
        return float(np.max(mags))
    # final root through python-float pow: numpy's array-pow kernel rounds
    # differently, and batch/scalar paths must agree bit for bit
    return float(np.sum(mags ** tag.p)) ** (1.0 / tag.p)


def _norm_inner(mags: np.ndarray, tag: NormTag) -> np.ndarray:
    """The norm before its root, over the last axis of nonempty moduli:
    sum, sum of squares, max, or sum of p-th powers."""
    if tag.kind == "l1":
        return mags.sum(axis=-1)
    if tag.kind == "l2":
        return (mags * mags).sum(axis=-1)
    if tag.kind == "linf":
        return mags.max(axis=-1)
    return (mags ** tag.p).sum(axis=-1)


def _norm_root(inner: np.ndarray, tag: NormTag) -> np.ndarray:
    """Finish a 1-d array of ``_norm_inner`` values into norms."""
    if tag.kind == "l2":
        return np.sqrt(inner)
    if tag.kind == "lp":
        inv = 1.0 / tag.p
        return np.array([float(s) ** inv for s in inner])
    return inner


def norm_bound(m, tag: NormTag) -> float:
    """Upper bound N(M) on the operator norm of M on (C^d, tag): exact for
    l1 (largest column sum of moduli), l2 (largest singular value) and linf
    (largest row sum); for lp the Riesz-Thorin bound N_1^(1/p) N_inf^(1-1/p).
    """
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


def shrink_bound(m, tag: NormTag) -> float:
    """1 - 1/N(M^-1), with N from :func:`norm_bound`: a bound on
    1 - ||My|| / ||y|| over every y != 0, since ||y|| <= N(M^-1) ||My||.
    A singular M sends some y to 0, so it reads 1."""
    try:
        return 1.0 - 1.0 / norm_bound(np.linalg.inv(m), tag)
    except np.linalg.LinAlgError:
        return 1.0


def distortion(m, tag: NormTag) -> float:
    """max(0, N(M) - 1, 1 - 1/N(M^-1)): a bound on | ||My|| / ||y|| - 1 |
    over every y != 0, 0 for an empty M."""
    if np.size(m) == 0:
        return 0.0
    return max(0.0, norm_bound(m, tag) - 1.0, shrink_bound(m, tag))


def row_norms(rows: np.ndarray, tag: NormTag) -> np.ndarray:
    """Vectorised ``vec_norm`` over the rows of a 2-d array."""
    mags = np.abs(np.asarray(rows, dtype=np.complex128))
    if mags.shape[1] == 0:
        return np.zeros(mags.shape[0])
    return _norm_root(_norm_inner(mags, tag), tag)


@dataclass(frozen=True)
class IsometryCheck:
    ok: bool
    residual: float
    witness: Optional[object] = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_isometry(m, tag: NormTag, tol: Optional[Tolerance] = None) -> IsometryCheck:
    """Certify that a square matrix is a surjective isometry of (C^d, tag).

    For l2 the test is unitarity, M*M = I. For every other tag the matrix
    must be a generalized permutation (exactly one entry of unit modulus in
    each row and column), which characterises the surjective isometries of
    finite-dimensional lp spaces away from p = 2. On failure the witness is
    a vector whose norm the matrix changes (l2) or the offending row/column
    index (other tags).
    """
    tol = tol or Tolerance()
    a = require_finite(as_matrix(m), "matrix")
    if a.shape[0] != a.shape[1]:
        raise InvalidInput(f"isometry test needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return IsometryCheck(True, 0.0)

    if tag.kind == "l2":
        gram = a.conj().T @ a
        resid = max_abs(gram - np.eye(n))
        if resid <= tol.eps_residual:
            return IsometryCheck(True, resid)
        evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
        worst = int(np.argmax(np.abs(evals - 1.0)))
        return IsometryCheck(False, resid, witness=evecs[:, worst],
                             note="unitarity defect M*M != I")

    mags = np.abs(a)
    top_rows = mags.max(axis=1)
    top_cols = mags.max(axis=0)
    # off-diagonal mass: everything except the single largest entry per line
    resid_rows = np.abs(top_rows - 1.0)
    resid_cols = np.abs(top_cols - 1.0)
    second_rows = np.partition(mags, -2, axis=1)[:, -2] if n > 1 else np.zeros(n)
    second_cols = np.partition(mags, -2, axis=0)[-2, :] if n > 1 else np.zeros(n)
    per_row = np.maximum(resid_rows, second_rows)
    per_col = np.maximum(resid_cols, second_cols)
    resid = float(max(per_row.max(), per_col.max()))
    if resid <= tol.eps_residual:
        return IsometryCheck(True, resid)
    if per_row.max() >= per_col.max():
        idx = int(np.argmax(per_row))
        return IsometryCheck(False, resid, witness=("row", idx),
                             note="not a generalized permutation")
    idx = int(np.argmax(per_col))
    return IsometryCheck(False, resid, witness=("col", idx),
                         note="not a generalized permutation")


def hermitian_eig(m, tol: Optional[Tolerance] = None):
    """Eigendecomposition M = U diag(w) U* of a Hermitian matrix.

    Eigenvalues come back sorted descending. Raises :class:`InvalidInput`
    when M is not Hermitian within tolerance.
    """
    tol = tol or Tolerance()
    a = require_finite(as_matrix(m), "matrix")
    if a.shape[0] != a.shape[1]:
        raise InvalidInput("hermitian_eig needs a square matrix")
    if a.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    herm_defect = max_abs(a - a.conj().T)
    if herm_defect > tol.eps_residual * (1.0 + max_abs(a)):
        raise InvalidInput(f"matrix is not Hermitian, defect {herm_defect:.3e}")
    sym = (a + a.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    return evals, evecs


def numeric_rank(m, tol: Optional[Tolerance] = None) -> int:
    """Count of singular values above ``eps_rank`` relative to the largest."""
    tol = tol or Tolerance()
    a = as_matrix(m)
    if a.size == 0:
        return 0
    svals = np.linalg.svd(a, compute_uv=False)
    smax = float(svals[0])
    if smax <= 0.0:
        return 0
    return int(np.sum(svals > tol.eps_rank * smax))


def dual_pair(x, f) -> complex:
    """Bilinear duality pairing <x, f> = sum_i x_i f_i (no conjugation)."""
    xv = as_vector(x)
    fv = as_vector(f)
    if xv.shape != fv.shape:
        raise InvalidInput(f"length mismatch: {xv.shape[0]} vs {fv.shape[0]}")
    return complex(np.sum(xv * fv))


def hermitian_inner(x, y) -> complex:
    """Sesquilinear inner product <x, y> = sum_i x_i conj(y_i)."""
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.shape != yv.shape:
        raise InvalidInput(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    return complex(np.sum(xv * np.conj(yv)))


def subset_sums(values: np.ndarray) -> np.ndarray:
    """All 2^m partial sums over the leading axis of ``values``.

    Row E of the result is sum(values[w] for each bit w of E), accumulated
    in ascending w so the arithmetic matches a naive ascending enumeration
    bit for bit. Built by doubling: the sets whose top bit is w are the
    sets below 2^w with values[w] added last. Raises
    :class:`EnumerationCapExceeded` above ``ENUMERATION_CAP`` rows, before
    it allocates.
    """
    m = values.shape[0]
    if m > ENUMERATION_CAP:
        raise EnumerationCapExceeded(m, ENUMERATION_CAP)
    out = np.zeros((1 << m,) + values.shape[1:], dtype=np.complex128)
    for w in range(m):
        half = 1 << w
        np.add(out[:half], values[w], out=out[half:2 * half])
    return out


def set_bound(defects) -> float:
    """Largest entry of sum_w |defects[w]|: it bounds every entry of every
    subset sum over the leading axis, so it certifies on every set a law
    whose defect on a set is the sum of its atom defects. ``defects`` is
    one stack, or an iterable of stacks consumed one at a time."""
    if isinstance(defects, np.ndarray):
        defects = (defects,)
    total = 0.0
    for stack in defects:
        total = total + np.abs(stack).sum(axis=0)
    return max_abs(total)


def product_defects(ops: np.ndarray, omega, table) -> np.ndarray:
    """The (n, n) defects max |ops[s] ops[t] - omega[s, t] ops[table[s, t]]|
    of the projective product rule, one stacked product per s; each entry
    equals the pairwise computation bit for bit, and 0 on an empty stack."""
    n = ops.shape[0]
    out = np.zeros((n, n))
    if ops.size:
        for s in range(n):
            diff = ops[s] @ ops - omega[s][:, None, None] * ops[table[s]]
            out[s] = np.abs(diff).max(axis=(1, 2))
    return out


def max_subset_norms(values: np.ndarray, tag: NormTag) -> np.ndarray:
    """For each sample n, the largest norm over all 2^m subset sums.

    ``values`` has shape (m, N, d); entry n of the result is the max over
    sets E of the norm of ``sum(values[w, n] for w in E)``, equal to
    ``row_norms`` of every subset sum followed by a max. Samples are
    processed in chunks whose subset sums stay within
    ``SUBSET_CHUNK_BYTES`` (one sample at least), the inner reduction is
    maximised over sets, and the root is taken once per sample. sqrt is
    correctly rounded, hence monotone, so for l1, l2 and linf the root of
    the max is the max of the roots bit for bit; for lp it is as long as
    pow is monotone, and within one ulp of it otherwise.
    """
    values = np.asarray(values, dtype=np.complex128)
    m, count, d = values.shape
    if d == 0 or count == 0:
        return np.zeros(count)
    inner = np.empty(count)
    chunk = max(1, SUBSET_CHUNK_BYTES // ((16 << m) * d))
    for lo in range(0, count, chunk):
        mags = np.abs(subset_sums(values[:, lo:lo + chunk]))
        inner[lo:lo + chunk] = _norm_inner(mags, tag).max(axis=0)
    return _norm_root(inner, tag)


def block_indicators(offsets) -> np.ndarray:
    """The m projections of C^offsets[-1] onto the coordinate blocks
    offsets[w]:offsets[w + 1], stacked."""
    m, r = len(offsets) - 1, offsets[-1]
    out = np.zeros((m, r, r), dtype=np.complex128)
    for w in range(m):
        lo, hi = offsets[w], offsets[w + 1]
        out[w, lo:hi, lo:hi] = np.eye(hi - lo)
    return out


def invariance_defect(basis: np.ndarray, operators) -> float:
    """Largest ||(I - B B*) A B|| over the operators A, for orthonormal
    columns B: 0 exactly when every A maps range(B) into itself."""
    complement = np.eye(basis.shape[0]) - basis @ basis.conj().T
    worst = 0.0
    for a in operators:
        worst = max(worst, max_abs(complement @ a @ basis))
    return worst


def cyclic_shifts(n: int) -> np.ndarray:
    """The n cyclic shifts of C^n, stacked: entry k sends e_i to e_{i+k mod n}."""
    out = np.zeros((n, n, n), dtype=np.complex128)
    for k in range(n):
        out[k] = np.roll(np.eye(n), k, axis=0)
    return out


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random d x d unitary from the QR factors of a Gaussian matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_cyclic_unitaries(rng: np.random.Generator, n: int, d: int
                            ) -> np.ndarray:
    """Random unitary representation of Z_n on C^d: a random eigenbasis
    with n-th roots of unity as the generator's eigenvalues."""
    basis = random_unitary(rng, d)
    frequencies = rng.integers(0, n, size=d)
    out = np.zeros((n, d, d), dtype=np.complex128)
    for g in range(n):
        phases = np.exp(2j * np.pi * frequencies * g / n)
        out[g] = (basis * phases) @ basis.conj().T
    return out


def orthonormal_range(m, tol: Optional[Tolerance] = None) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``m``."""
    tol = tol or Tolerance()
    a = as_matrix(m)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, svals, _ = np.linalg.svd(a, full_matrices=False)
    smax = float(svals[0]) if svals.size else 0.0
    if smax <= 0.0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    r = int(np.sum(svals > tol.eps_rank * smax))
    return u[:, :r]
