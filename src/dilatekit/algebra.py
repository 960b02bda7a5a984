"""Finite groups, multipliers (2-cocycles), finite measurable spaces, and
measurable group actions.

Measurable sets are bitmasks over the atoms of a finite point set, with the
sigma-field always the full power set, so countable additivity degenerates
to finite additivity over atoms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ActionViolation, AssociativityViolation, CocycleViolation,
                     InvalidInput, ModulusViolation, NoIdentity, NoInverse,
                     NormalizationViolation)
from .linalg import Tolerance

MAX_ATOMS = 62


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite semigroup with unit, given by its Cayley table on 0..n-1.

    ``inverses`` is None when some element has no two-sided inverse; such
    tables validate here but every dilation construction rejects them.
    """

    order: int
    table: np.ndarray
    identity: int
    inverses: Optional[np.ndarray]

    @property
    def is_group(self) -> bool:
        return self.inverses is not None

    def mul(self, s: int, t: int) -> int:
        return int(self.table[s, t])

    def inv(self, s: int) -> int:
        if self.inverses is None:
            raise NoInverse(s)
        return int(self.inverses[s])

    @property
    def elements(self) -> range:
        return range(self.order)


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a is b or (a.order == b.order and np.array_equal(a.table, b.table))


def _validated_table(table) -> np.ndarray:
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise InvalidInput(f"Cayley table must be square and nonempty, got {t.shape}")
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        raise InvalidInput("Cayley table entries must lie in 0..n-1")
    return t


def _find_left_identity(t: np.ndarray) -> int:
    n = t.shape[0]
    ids = np.arange(n)
    for e in range(n):
        if np.array_equal(t[e], ids):
            return e
    raise NoIdentity()


def _check_associativity(t: np.ndarray) -> None:
    # left[s,t,u] = (s t) u, right[s,t,u] = s (t u)
    left = t[t, :]
    right = t[:, t]
    if not np.array_equal(left, right):
        s, u, v = np.argwhere(left != right)[0]
        raise AssociativityViolation(int(s), int(u), int(v))


def check_group(table) -> FiniteGroup:
    """Validate a Cayley table as a group.

    Checks run in the order identity, invertibility, associativity, where
    invertibility of an element means its left and right translations are
    bijections (every group row and column is a permutation). A table like
    [[0,1],[0,0]] is therefore reported for element 1, whose translation
    collapses, rather than for the associativity defect it also has.
    """
    t = _validated_table(table)
    n = t.shape[0]
    e = _find_left_identity(t)
    ids = np.arange(n)
    for s in range(n):
        if not np.array_equal(np.sort(t[s]), ids):
            raise NoInverse(s)
    for s in range(n):
        if not np.array_equal(np.sort(t[:, s]), ids):
            raise NoInverse(s)
    _check_associativity(t)
    # a cancellative associative table with a left identity is a group
    inverses = np.array([int(np.argmax(t[s] == e)) for s in range(n)],
                        dtype=np.int64)
    assert np.array_equal(t[inverses, ids], np.full(n, e))
    assert np.array_equal(t[:, e], ids)
    return FiniteGroup(order=n, table=t, identity=e, inverses=inverses)


def check_semigroup(table) -> FiniteGroup:
    """Validate a Cayley table as a semigroup with a two-sided unit."""
    t = _validated_table(table)
    n = t.shape[0]
    ids = np.arange(n)
    e = -1
    for cand in range(n):
        if np.array_equal(t[cand], ids) and np.array_equal(t[:, cand], ids):
            e = cand
            break
    if e < 0:
        raise NoIdentity()
    _check_associativity(t)
    inverses = np.full(n, -1, dtype=np.int64)
    for s in range(n):
        for u in range(n):
            if t[s, u] == e and t[u, s] == e:
                inverses[s] = u
                break
    has_all = bool(np.all(inverses >= 0))
    return FiniteGroup(order=n, table=t, identity=e,
                       inverses=inverses if has_all else None)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidInput("cyclic group order must be >= 1")
    idx = np.arange(n)
    return check_group((idx[:, None] + idx[None, :]) % n)


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters (keep n small; the table is n! x n!)."""
    if not 1 <= n <= 5:
        raise InvalidInput("symmetric_group supports 1 <= n <= 5")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = np.zeros((size, size), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return check_group(table)


@dataclass(frozen=True, eq=False)
class Multiplier:
    """A validated unit-modulus 2-cocycle on a finite semigroup."""

    group: FiniteGroup
    omega: np.ndarray
    symmetric: bool


def check_multiplier(group: FiniteGroup, omega,
                     tol: Optional[Tolerance] = None) -> Multiplier:
    """Validate normalization, unit modulus and the cocycle identity over all
    n^3 triples; the symmetric flag records omega(s, s^-1) = 1 for all s."""
    tol = tol or Tolerance()
    eps = tol.eps_residual
    w = np.asarray(omega, dtype=np.complex128)
    n = group.order
    if w.shape != (n, n):
        raise InvalidInput(f"multiplier table must be {n}x{n}, got {w.shape}")
    e = group.identity
    for s in range(n):
        if abs(w[e, s] - 1.0) > eps or abs(w[s, e] - 1.0) > eps:
            raise NormalizationViolation(s)
    mods = np.abs(w)
    if np.any(np.abs(mods - 1.0) > eps):
        s, t = np.argwhere(np.abs(mods - 1.0) > eps)[0]
        raise ModulusViolation(int(s), int(t), float(mods[s, t]))
    t_tab = group.table
    # omega(s,t) omega(st,u) == omega(s,tu) omega(t,u) for all triples
    lhs = w[:, :, None] * w[t_tab, :]
    rhs = w[:, t_tab] * w[None, :, :]
    resid = np.abs(lhs - rhs)
    if np.any(resid > eps):
        s, t, u = np.argwhere(resid > eps)[0]
        raise CocycleViolation(int(s), int(t), int(u), float(resid[s, t, u]))

    symmetric = True
    for s in range(n):
        for t in range(n):
            if t_tab[s, t] == e and t_tab[t, s] == e and abs(w[s, t] - 1.0) > eps:
                symmetric = False
    return Multiplier(group=group, omega=w, symmetric=symmetric)


def trivial_multiplier(group: FiniteGroup) -> Multiplier:
    return Multiplier(group=group,
                      omega=np.ones((group.order, group.order), dtype=np.complex128),
                      symmetric=True)


def coboundary_multiplier(group: FiniteGroup, phases) -> np.ndarray:
    """omega(s,t) = c_s c_t / c_st from unit phases with c_e = 1.

    Any unit-modulus phase vector gives a valid multiplier; handy for
    generating projective isometric representations W_s = c_s P_s.
    """
    c = np.asarray(phases, dtype=np.complex128)
    if c.shape != (group.order,):
        raise InvalidInput("need one phase per group element")
    if np.any(np.abs(np.abs(c) - 1.0) > 1e-12):
        raise InvalidInput("phases must have unit modulus")
    c = c / c[group.identity]
    return c[:, None] * c[None, :] / c[group.table]


@dataclass(frozen=True, eq=False)
class MeasurableSpace:
    """Finite point set whose measurable sets are bitmasks over the atoms."""

    atoms: int

    def __post_init__(self):
        if not 1 <= self.atoms <= MAX_ATOMS:
            raise InvalidInput(f"atom count must be in 1..{MAX_ATOMS}")

    @property
    def full(self) -> int:
        return (1 << self.atoms) - 1

    def members(self, mask: int):
        return [w for w in range(self.atoms) if mask >> w & 1]

    def require(self, mask: int) -> int:
        if not 0 <= mask <= self.full:
            raise InvalidInput(f"set {mask:#x} is not within {self.atoms} atoms")
        return mask

    def set_sum(self, atom_values: np.ndarray, mask: int) -> np.ndarray:
        """Value on the set ``mask`` of the additive set function with these
        atom values: their sum over its members, added in ascending order."""
        self.require(mask)
        out = np.zeros(atom_values.shape[1:], dtype=np.complex128)
        for w in self.members(mask):
            out += atom_values[w]
        return out


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Pointwise action of a finite semigroup on a finite measurable space."""

    group: FiniteGroup
    space: MeasurableSpace
    point_map: np.ndarray

    def point(self, s: int, w: int) -> int:
        return int(self.point_map[s, w])


def check_action(group: FiniteGroup, space: MeasurableSpace, point_map) -> GroupAction:
    pm = np.asarray(point_map, dtype=np.int64)
    n, m = group.order, space.atoms
    if pm.shape != (n, m):
        raise ActionViolation(f"point map must be {n}x{m}, got {pm.shape}")
    if pm.min() < 0 or pm.max() >= m:
        raise ActionViolation("point map entries must lie in 0..m-1")
    if not np.array_equal(pm[group.identity], np.arange(m)):
        raise ActionViolation("identity does not act as the identity map")
    # (s t) . w == s . (t . w); for a group this and the identity make
    # every s act bijectively, with inverse map s^-1
    if not np.array_equal(pm[group.table], pm[:, pm]):
        raise ActionViolation("action is not compatible with the group operation")
    return GroupAction(group=group, space=space, point_map=pm)


def act_on_set(action: GroupAction, s: int, mask: int) -> int:
    """Image bitmask {s.w : w in mask}."""
    action.space.require(mask)
    out = 0
    for w in action.space.members(mask):
        out |= 1 << action.point(s, w)
    return out


def left_translation_action(group: FiniteGroup) -> GroupAction:
    """The group acting on itself by left translation (atoms = elements)."""
    space = MeasurableSpace(group.order)
    return check_action(group, space, group.table)


def orbits(action: GroupAction):
    """Partition of the atoms into orbits, each with a transversal element
    t_w such that t_w . base = w."""
    seen = set()
    out = []
    for base in range(action.space.atoms):
        if base in seen:
            continue
        reach = {}
        for s in action.group.elements:
            w = action.point(s, base)
            if w not in reach:
                reach[w] = s
        seen.update(reach)
        out.append((base, reach))
    return out
