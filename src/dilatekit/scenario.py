"""Scenario files: a versioned JSON schema carrying a group, a multiplier,
a normed space, an action, a representation, and either a measure or a
framing payload, plus generators for the stock example families.

Complex numbers are stored as [re, im] pairs and floats round-trip through
the shortest-repr JSON encoding, so serialize -> load is bit exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .errors import InvalidParams, ParseError, SchemaError, ShapeError
from .framing import cyclic_shift_framing, standard_basis_framing
from .linalg import (NormedSpace, NormTag, Tolerance, cyclic_shifts,
                     random_cyclic_unitaries, random_unitary)
from .ovm import bessel_ovm
from .algebra import cyclic_group, trivial_multiplier
from .imprimitivity import check_rep

SCHEMA_VERSION = 1


@dataclass(eq=False)
class Scenario:
    tolerance: Tolerance
    group_table: np.ndarray
    space_dim: int
    space_norm: NormTag
    rep_matrices: np.ndarray                       # (n, d, d)
    multiplier: Optional[np.ndarray] = None        # (n, n) or None for omega = 1
    action_table: Optional[np.ndarray] = None      # (n, m) or None for translation
    ovm_atoms: Optional[np.ndarray] = None         # (m, d, d)
    framing_windows: Optional[np.ndarray] = None   # (J, d)
    framing_duals: Optional[np.ndarray] = None
    hints: dict = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    @property
    def payload(self) -> str:
        return "ovm" if self.ovm_atoms is not None else "framing"

    def atom_count(self) -> int:
        if self.ovm_atoms is not None:
            return self.ovm_atoms.shape[0]
        return self.group_table.shape[0]


# -- encoding -------------------------------------------------------------------

def _encode_complex(a: np.ndarray):
    stacked = np.stack([np.real(a), np.imag(a)], axis=-1)
    return stacked.tolist()


def _encode_norm(tag: NormTag):
    return tag.kind if tag.kind != "lp" else {"lp": tag.p}


def serialize_scenario(sc: Scenario) -> dict:
    out = {
        "schema_version": sc.schema_version,
        "tolerance": {
            "eps_residual": sc.tolerance.eps_residual,
            "eps_rank": sc.tolerance.eps_rank,
            "sample_count": sc.tolerance.sample_count,
            "seed": sc.tolerance.seed,
        },
        "group": {"order": int(sc.group_table.shape[0]),
                  "table": sc.group_table.tolist()},
        "space": {"dim": sc.space_dim, "norm": _encode_norm(sc.space_norm)},
    }
    if sc.multiplier is not None:
        out["multiplier"] = _encode_complex(sc.multiplier)
    if sc.action_table is not None:
        out["action"] = sc.action_table.tolist()
    out["rep"] = _encode_complex(sc.rep_matrices)
    if sc.ovm_atoms is not None:
        out["ovm"] = {"atoms": _encode_complex(sc.ovm_atoms)}
    else:
        out["framing"] = {"windows": _encode_complex(sc.framing_windows),
                          "duals": _encode_complex(sc.framing_duals)}
    if sc.hints:
        out["task_hints"] = sc.hints
    return out


def scenario_digest(sc: Scenario) -> str:
    canon = json.dumps(serialize_scenario(sc), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def save_scenario(sc: Scenario, path) -> None:
    Path(path).write_text(json.dumps(serialize_scenario(sc), indent=2) + "\n")


# -- decoding -------------------------------------------------------------------

def _decode_complex(obj, fieldname: str, shape: tuple) -> np.ndarray:
    try:
        raw = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(fieldname, "entries must be [re, im] number pairs")
    if raw.ndim == 0 or raw.shape[-1] != 2:
        raise SchemaError(fieldname, "entries must be [re, im] number pairs")
    if raw.shape[:-1] != shape:
        raise ShapeError(fieldname, f"expected shape {shape}, got {raw.shape[:-1]}")
    return raw[..., 0] + 1j * raw[..., 1]


def _decode_norm(obj, fieldname: str) -> NormTag:
    if isinstance(obj, str):
        if obj in ("l1", "l2", "linf"):
            return NormTag(obj)
        raise SchemaError(fieldname, f"unknown norm {obj!r}")
    if isinstance(obj, dict) and set(obj) == {"lp"}:
        p = obj["lp"]
        if not isinstance(p, (int, float)) or not math.isfinite(p) or p <= 1:
            raise SchemaError(fieldname, "lp exponent must be a finite number > 1")
        return NormTag.lp(float(p))
    raise SchemaError(fieldname, 'norm must be "l1", "l2", "linf" or {"lp": p}')


def _require(data: dict, key: str, parent: str = ""):
    name = f"{parent}.{key}" if parent else key
    if not isinstance(data, dict) or key not in data:
        raise SchemaError(name, "missing required field")
    return data[key]


def _integer(value, fieldname: str) -> int:
    """A JSON integer. Integral floats such as 2.0 count; booleans,
    fractions and other types do not."""
    if isinstance(value, bool):
        raise SchemaError(fieldname, "must be an integer, not a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SchemaError(fieldname, f"must be an integer, got {value!r}")


def _integer_table(value, fieldname: str) -> np.ndarray:
    """A JSON array of integers, each entry held to :func:`_integer`."""
    try:
        table = np.asarray(value, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(fieldname, "must be an integer matrix")
    for entry in np.asarray(value, dtype=object).ravel():
        _integer(entry, fieldname)
    return table


def _real(value, fieldname: str) -> float:
    """A JSON number; booleans and other types are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(fieldname, f"must be a number, got {value!r}")
    return float(value)


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError("<root>", "scenario must be a JSON object")
    version = _integer(data.get("schema_version", SCHEMA_VERSION),
                       "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"unsupported version {version!r}")

    tol_raw = data.get("tolerance", {})
    if not isinstance(tol_raw, dict):
        raise SchemaError("tolerance", "must be an object")
    try:
        tolerance = Tolerance(
            eps_residual=_real(tol_raw.get("eps_residual", 1e-9),
                               "tolerance.eps_residual"),
            eps_rank=_real(tol_raw.get("eps_rank", 1e-10), "tolerance.eps_rank"),
            sample_count=_integer(tol_raw.get("sample_count", 256),
                                  "tolerance.sample_count"),
            seed=_integer(tol_raw.get("seed", 0), "tolerance.seed"),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError("tolerance", str(exc))

    group_raw = _require(data, "group")
    table = _integer_table(_require(group_raw, "table", "group"), "group.table")
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] == 0:
        raise ShapeError("group.table", f"must be square, got {table.shape}")
    n = table.shape[0]
    declared = _integer(group_raw.get("order", n), "group.order")
    if declared != n:
        raise SchemaError("group.order", f"declares {declared}, table has {n}")
    if table.min() < 0 or table.max() >= n:
        raise SchemaError("group.table", "entry out of range 0..n-1")

    space_raw = _require(data, "space")
    dim = _integer(_require(space_raw, "dim", "space"), "space.dim")
    if dim < 1:
        raise SchemaError("space.dim", "must be a positive integer")
    norm = _decode_norm(_require(space_raw, "norm", "space"), "space.norm")

    notes: List[str] = []
    multiplier = None
    if "multiplier" in data:
        multiplier = _decode_complex(data["multiplier"], "multiplier", (n, n))
    else:
        notes.append("multiplier missing: defaulted to omega = 1")

    rep = _decode_complex(_require(data, "rep"), "rep", (n, dim, dim))

    has_ovm = "ovm" in data
    has_framing = "framing" in data
    if has_ovm == has_framing:
        raise SchemaError("ovm/framing", "scenario needs exactly one payload")

    ovm_atoms = windows = duals = None
    if has_ovm:
        atoms_raw = _require(data["ovm"], "atoms", "ovm")
        if not isinstance(atoms_raw, list) or not atoms_raw:
            raise SchemaError("ovm.atoms", "must be a nonempty list of matrices")
        m = len(atoms_raw)
        ovm_atoms = _decode_complex(atoms_raw, "ovm.atoms", (m, dim, dim))
    else:
        framing_raw = data["framing"]
        win_raw = _require(framing_raw, "windows", "framing")
        dual_raw = _require(framing_raw, "duals", "framing")
        if not isinstance(win_raw, list) or not win_raw:
            raise SchemaError("framing.windows", "must be a nonempty list")
        if not isinstance(dual_raw, list) or len(dual_raw) != len(win_raw):
            raise SchemaError("framing.duals",
                              "must list one dual per window")
        count = len(win_raw)
        windows = _decode_complex(win_raw, "framing.windows", (count, dim))
        duals = _decode_complex(dual_raw, "framing.duals", (count, dim))

    m = ovm_atoms.shape[0] if ovm_atoms is not None else n
    action = None
    if "action" in data:
        action = _integer_table(data["action"], "action")
        if action.shape != (n, m):
            raise ShapeError("action", f"expected shape ({n}, {m}), "
                                       f"got {action.shape}")
        if action.min() < 0 or action.max() >= m:
            raise SchemaError("action", "entry out of range 0..m-1")
    else:
        if m != n:
            raise SchemaError("action", "missing and no default: left "
                                        "translation needs as many atoms as "
                                        "group elements")
        notes.append("action missing: defaulted to left translation")

    hints = data.get("task_hints", {})
    if not isinstance(hints, dict):
        raise SchemaError("task_hints", "must be an object")

    return Scenario(tolerance=tolerance, group_table=table, space_dim=dim,
                    space_norm=norm, rep_matrices=rep, multiplier=multiplier,
                    action_table=action, ovm_atoms=ovm_atoms,
                    framing_windows=windows, framing_duals=duals, hints=hints,
                    notes=notes, schema_version=version)


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError("<file>", str(exc))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg)
    return scenario_from_dict(data)


# -- generators -----------------------------------------------------------------

def _norm_from_param(p) -> NormTag:
    if p in (None, "l2", 2, 2.0):
        return NormTag.l2()
    if p in ("l1", 1, 1.0):
        return NormTag.l1()
    if p in ("linf", "inf", math.inf):
        return NormTag.linf()
    if isinstance(p, (int, float)) and math.isfinite(p) and p > 1:
        return NormTag.lp(float(p))
    raise InvalidParams(f"bad norm parameter {p!r}")


def _framing_scenario(fs, seed: int, kind: str, params: dict) -> Scenario:
    group = fs.theta.group
    return Scenario(
        tolerance=Tolerance(seed=seed),
        group_table=group.table,
        space_dim=fs.theta.space.dim,
        space_norm=fs.theta.space.norm,
        rep_matrices=fs.theta.matrices,
        multiplier=fs.theta.multiplier.omega,
        action_table=group.table.copy(),
        framing_windows=fs.windows,
        framing_duals=fs.duals,
        hints={"kind": kind, **params},
    )


def gen_example(kind: str, params: dict, seed: int) -> Scenario:
    """Deterministic example scenarios; every output passes `validate`.

    Kinds: bessel-cyclic (orbit measure of a random vector under a unitary
    action of Z_n), framing-single / p-frame-cyclic (shift framings on
    lp(Z_n)), spectral-random (commuting projection atoms from a random
    orthonormal split), positive-random (random PSD atoms).
    """
    params = dict(params or {})
    rng = np.random.default_rng(seed)

    if kind == "bessel-cyclic":
        n = int(params.get("n", 3))
        d = int(params.get("d", n))
        if n < 1 or d < 1:
            raise InvalidParams("bessel-cyclic needs n >= 1 and d >= 1")
        group = cyclic_group(n)
        if d == n:
            matrices = cyclic_shifts(n)
        else:
            matrices = random_cyclic_unitaries(rng, n, d)
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        f /= np.linalg.norm(f)
        space = NormedSpace(d, NormTag.l2())
        rep, _ = check_rep(group, trivial_multiplier(group), space, matrices)
        measure = bessel_ovm(rep, f)
        return Scenario(
            tolerance=Tolerance(seed=seed), group_table=group.table,
            space_dim=d, space_norm=NormTag.l2(), rep_matrices=matrices,
            multiplier=trivial_multiplier(group).omega,
            action_table=group.table.copy(), ovm_atoms=measure.atoms,
            hints={"kind": kind, "n": n, "d": d})

    if kind in ("framing-single", "p-frame-cyclic"):
        n = int(params.get("n", 4))
        r = 1 if kind == "framing-single" else int(params.get("r", 2))
        if n < 1 or r < 1:
            raise InvalidParams(f"{kind} needs n >= 1 and r >= 1")
        tag = _norm_from_param(params.get("p"))
        if params.get("delta"):
            fs = standard_basis_framing(n, tag)
        else:
            fs = cyclic_shift_framing(n, r, tag, seed)
        return _framing_scenario(fs, seed, kind,
                                 {"n": n, "r": r, "p": _encode_norm(tag)})

    if kind == "spectral-random":
        m = int(params.get("m", params.get("n", 3)))
        d = int(params.get("d", 3))
        if m < 1 or d < 1:
            raise InvalidParams("spectral-random needs m >= 1 and d >= 1")
        basis = random_unitary(rng, d)
        assignment = rng.integers(0, m, size=d)
        atoms = np.zeros((m, d, d), dtype=np.complex128)
        for w in range(m):
            cols = basis[:, assignment == w]
            atoms[w] = cols @ cols.conj().T
        return _trivial_group_scenario(atoms, d, seed, kind, {"m": m, "d": d})

    if kind == "positive-random":
        m = int(params.get("m", params.get("n", 3)))
        d = int(params.get("d", 3))
        if m < 1 or d < 1:
            raise InvalidParams("positive-random needs m >= 1 and d >= 1")
        atoms = np.zeros((m, d, d), dtype=np.complex128)
        for w in range(m):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            atoms[w] = g @ g.conj().T / (d * m)
        return _trivial_group_scenario(atoms, d, seed, kind, {"m": m, "d": d})

    raise InvalidParams(f"unknown generator kind {kind!r}")


def _trivial_group_scenario(atoms: np.ndarray, d: int, seed: int, kind: str,
                            params: dict) -> Scenario:
    m = atoms.shape[0]
    return Scenario(
        tolerance=Tolerance(seed=seed),
        group_table=np.zeros((1, 1), dtype=np.int64),
        space_dim=d, space_norm=NormTag.l2(),
        rep_matrices=np.eye(d, dtype=np.complex128)[None, :, :],
        multiplier=np.ones((1, 1), dtype=np.complex128),
        action_table=np.arange(m, dtype=np.int64)[None, :],
        ovm_atoms=atoms, hints={"kind": kind, **params})
