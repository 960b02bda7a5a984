"""Verification pipeline: materialize the objects described by a scenario,
run the requested construction with its verifier suite, and aggregate the
outcome into a machine-readable report.

Mathematical failures never raise out of :func:`run_pipeline`; they become
named failed checks (CLI exit code 1). Schema and parameter problems raise
(CLI exit code 2).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import banach, hilbert
from .algebra import (MeasurableSpace, check_action, check_group,
                      check_multiplier, check_semigroup, left_translation_action,
                      trivial_multiplier)
from .errors import (DilationError, InvalidInput, InvalidParams, NoInverse,
                     ParseError, SchemaError, ShapeError)
from .framing import (FramingSystem, build_dilated_basis, verify_basis_dilation,
                      verify_framing)
from .imprimitivity import ImprimitivitySystem, check_rep, check_system
from .linalg import NormedSpace, Tolerance, numeric_rank
from .ovm import Ovm, bessel_bound
from .report import CheckRecord, Report, check, failure, flag
from .scenario import Scenario, scenario_digest

COMMANDS = ("validate", "dilate-banach", "dilate-hilbert", "dilate-framing", "all")

INPUT_ERRORS = (ParseError, SchemaError, ShapeError, InvalidParams, InvalidInput)


@dataclass
class Materialized:
    group: object
    multiplier: object
    space: NormedSpace
    action: object
    rep: object
    system: Optional[object] = None
    framing: Optional[FramingSystem] = None
    records: List[CheckRecord] = dataclasses.field(default_factory=list)
    framing_checks: List[CheckRecord] = dataclasses.field(default_factory=list)


def _materialize(sc: Scenario, tol: Tolerance) -> Materialized:
    try:
        group = check_group(sc.group_table)
        group_note = "group"
    except NoInverse:
        group = check_semigroup(sc.group_table)
        group_note = "semigroup with unit (no inverses): dilations unavailable"
    records = [flag("group table valid", "valid.group", True, notes=group_note)]

    if sc.multiplier is not None:
        multiplier = check_multiplier(group, sc.multiplier, tol)
    else:
        multiplier = trivial_multiplier(group)
    records.append(flag("multiplier valid", "valid.multiplier", True,
                        notes="symmetric" if multiplier.symmetric
                        else "not symmetric"))

    space = NormedSpace(sc.space_dim, sc.space_norm)
    m = sc.atom_count()
    if sc.action_table is not None:
        action = check_action(group, MeasurableSpace(m), sc.action_table)
    else:
        action = left_translation_action(group)
    records.append(flag("action valid", "valid.action", True))

    rep, rep_records = check_rep(group, multiplier, space, sc.rep_matrices, tol)
    records.extend(rep_records)

    out = Materialized(group=group, multiplier=multiplier, space=space,
                       action=action, rep=rep, records=records)

    if sc.ovm_atoms is not None:
        measure = Ovm(space=action.space, target=space, atoms=sc.ovm_atoms)
        system, sys_records = check_system(rep, measure, action, tol)
        records.extend(sys_records)
        records.append(flag("measure norm bound", "valid.ovm.bound", True,
                            notes=f"||phi(Omega)|| = {bessel_bound(measure):.6g}"))
        out.system = system
    else:
        out.framing = FramingSystem(theta=rep, windows=sc.framing_windows,
                                    duals=sc.framing_duals)
        out.framing_checks = verify_framing(out.framing, tol)
        records.extend(out.framing_checks)
    return out


def _system(mat: Materialized, tol: Tolerance
            ) -> Tuple[ImprimitivitySystem, List[CheckRecord]]:
    """The payload's imprimitivity system: the measure's, already checked,
    or the one a framing induces, with the records of its check."""
    if mat.system is not None:
        return mat.system, []
    fs = mat.framing
    return check_system(fs.theta, fs.measure, mat.action, tol)


def _banach_stage(mat: Materialized, tol: Tolerance
                  ) -> Tuple[banach.DilationSystem, List[CheckRecord]]:
    """Minimal dilation with the records of its verification."""
    system, records = _system(mat, tol)
    ds = banach.build_minimal_dilation(system, tol)
    expected = sum(numeric_rank(system.ovm.atoms[w], tol)
                   for w in range(system.ovm.space.atoms))
    records.append(flag("dim of the dilation space equals the atom-rank sum",
                        "dilation(dim)", ds.dim == expected,
                        notes=f"dim = {ds.dim}"))
    records.extend(banach.verify_dilation(ds, system, tol))
    return ds, records


def _hilbert_stage(mat: Materialized, tol: Tolerance
                   ) -> Tuple[banach.DilationSystem, List[CheckRecord]]:
    system = _system(mat, tol)[0]
    hd = hilbert.build_hilbert_dilation(system, tol)
    return hd, hilbert.verify_hilbert_dilation(hd, system, tol)


def _prop_chain_stage(mat: Materialized, hd: banach.DilationSystem,
                      minimal: banach.DilationSystem,
                      upstream: List[CheckRecord],
                      tol: Tolerance) -> List[CheckRecord]:
    """Induced-norm chain on the dilations already built: the Hilbert
    dilation ``hd`` as a probability dilation system, the dilation norm it
    pulls back onto the minimal one, and the minimality inequality. Its
    pi(Omega) is a sum of 0/1 block indicators, I exactly, so restricting to
    its range would change nothing. Each record names the ``upstream``
    ``dilation(*)`` and ``hilbert(*)`` laws that failed, if any."""
    system = mat.system
    records = []
    sub = banach.verify_dilation(hd, system, tol)
    worst = max((r.max_residual for r in sub), default=0.0)
    records.append(check("restriction is a probability dilation system",
                         "restriction(probability)", worst, tol.eps_residual,
                         notes=f"{len(sub)} sub-checks"))
    records.append(banach.check_q_range_invariance(minimal, system, tol))
    induced = banach.induced_norm_from_injective(hd, system, tol,
                                                 minimal=minimal)
    records.extend(induced.checks)
    records.extend(banach.minimality_bound(induced, tol)[1])
    broken = [r.paper_item for r in upstream if not r.passed
              and r.paper_item.startswith(("dilation(", "hilbert("))]
    if broken:
        after = "after failed " + ", ".join(broken)
        for r in records:
            r.notes = f"{r.notes}; {after}" if r.notes else after
    return records


def _framing_stage(mat: Materialized, tol: Tolerance) -> List[CheckRecord]:
    if mat.framing is None:
        raise SchemaError("framing", "dilate-framing needs a framing payload")
    db = build_dilated_basis(mat.framing)
    return mat.framing_checks + verify_basis_dilation(db, mat.framing, tol)


def run_pipeline(sc: Scenario, command: str, *,
                 eps: Optional[float] = None) -> Report:
    """Run a pipeline command against a loaded scenario and report.

    ``eps`` overrides the scenario's residual tolerance.
    """
    if command not in COMMANDS:
        raise InvalidParams(f"unknown command {command!r}")
    t0 = time.perf_counter()
    tol = sc.tolerance
    if eps is not None:
        tol = dataclasses.replace(tol, eps_residual=eps)

    report = Report(digest=scenario_digest(sc), command=command)
    checks: List[CheckRecord] = []
    if sc.notes:
        checks.append(flag("scenario defaults applied", "valid.schema", True,
                           notes="; ".join(sc.notes)))
    try:
        mat = _materialize(sc, tol)
        if command in ("validate", "all"):
            checks.extend(mat.records)
        if command in ("dilate-banach", "all"):
            minimal, records = _banach_stage(mat, tol)
            checks.extend(records)
        if command == "dilate-hilbert":
            checks.extend(_hilbert_stage(mat, tol)[1])
        if command == "all" and mat.system is not None:
            if (mat.system.ovm_class.positive
                    and mat.space.norm.kind == "l2"
                    and mat.group.is_group):
                hd, records = _hilbert_stage(mat, tol)
                checks.extend(records)
                checks.extend(_prop_chain_stage(mat, hd, minimal, checks, tol))
        if command in ("dilate-framing",) or (command == "all"
                                              and mat.framing is not None):
            checks.extend(_framing_stage(mat, tol))
    except INPUT_ERRORS:
        raise
    except DilationError as exc:
        name, code = exc.failed_check
        checks.append(failure(name, code, exc.residual, tol.eps_residual,
                              notes=str(exc)))

    report.checks = checks
    report.elapsed_seconds = time.perf_counter() - t0
    return report
