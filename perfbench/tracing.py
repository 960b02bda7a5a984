"""Spans and work counts for the layers of dilatekit, recorded from outside.

:class:`Tracer` replaces each traced function with a wrapper in every
dilatekit module that holds a name binding for it (``from .linalg import
subset_sums`` copies the binding into ``banach``, ``framing`` and
``hilbert``), and replaces traced methods on their classes. Install it
before any traced object is built: ``DilationSystem.norm_batch`` keeps
the bound ``alpha_batch`` it saw when the system was built.

Each span records its parent and its root, so the spans of one report
share an identifier. A span's self time is its duration minus the
durations of its direct children. Work counts are computed from argument
shapes at the call boundary and repeat exactly for a fixed input.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _subset_sums_work(values):
    shape = values.shape
    rows = 1 << shape[0]
    return rows, rows * math.prod(shape[1:]) * 16


def _row_norms_work(rows, tag):
    return (len(rows),)


def _alpha_batch_work(self, coords):
    return ((1 << self.ovm.space.atoms) * len(coords),)


def _z_batch_work(self, rows):
    return ((1 << self.z_dim) * len(rows),)


# (module, function or Class.method, work count names, work count function)
TARGETS = (
    ("scenario", "scenario_from_dict", (), None),
    ("algebra", "check_group", (), None),
    ("imprimitivity", "check_rep", (), None),
    ("imprimitivity", "check_system", (), None),
    ("linalg", "subset_sums", ("rows", "bytes"), _subset_sums_work),
    ("linalg", "row_norms", ("rows",), _row_norms_work),
    ("banach", "build_minimal_dilation", (), None),
    ("banach", "verify_dilation", (), None),
    ("banach", "DilationSpaceAlpha.alpha_batch", ("subset_norms",),
     _alpha_batch_work),
    ("banach", "restrict_probability", (), None),
    ("banach", "induced_norm_from_injective", (), None),
    ("banach", "minimality_bound", (), None),
    ("hilbert", "build_hilbert_dilation", (), None),
    ("hilbert", "verify_hilbert_dilation", (), None),
    ("framing", "verify_framing", (), None),
    ("framing", "build_dilated_basis", (), None),
    ("framing", "verify_basis_dilation", (), None),
    ("framing", "DilatedBasis.z_batch", ("subset_norms",), _z_batch_work),
    ("framing", "DilatedBasis.suppressed_norms", (), None),
    ("pipeline", "run_pipeline", (), None),
    ("report", "Report.to_json", (), None),
)

ROOT_SPAN = "pipeline.run_pipeline"


def metric_names() -> list:
    """Per-report layer metrics, in the order they are reported."""
    out = []
    for module, qualname, work_keys, _ in TARGETS:
        name = f"{module}.{qualname}"
        out += [f"{name}.{key}" for key in ("calls", "self_s") + work_keys]
    out.append(f"{ROOT_SPAN}.total_s")
    return out


class Tracer:
    """Patches the traced functions while installed and keeps every span
    in memory as ``(span_id, parent_id, root_id, name, start, end, self_s)``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._ids = itertools.count(1)
        self._stack = []
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        frame = [sid, parent[0] if parent else None,
                 parent[2] if parent else sid, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        sid, parent_id, root_id, name, start, child_s = frame
        duration = end - start
        if self._stack:
            self._stack[-1][5] += duration
        self.spans.append((sid, parent_id, root_id, name, start, end,
                           duration - child_s))

    @contextmanager
    def span(self, name):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, name, fn, work_keys, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts[name]
            counts["calls"] += 1
            if work is not None:
                for key, value in zip(work_keys, work(*args, **kwargs)):
                    counts[key] += value
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        """Patch every binding of every target; undone by :meth:`uninstall`."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "dilatekit" or key.startswith("dilatekit.")]
        for module, qualname, work_keys, work in TARGETS:
            name = f"{module}.{qualname}"
            home = importlib.import_module(f"dilatekit.{module}")
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original,
                          self._wrap(name, original, work_keys, work))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original, work_keys, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def per_report(self, reports: int) -> dict:
        """Every layer metric of :func:`metric_names`, divided by ``reports``."""
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for _, _, _, name, start, end, own in self.spans:
            self_s[name] += own
            total_s[name] += end - start
        out = {}
        for module, qualname, work_keys, _ in TARGETS:
            name = f"{module}.{qualname}"
            counts = self.counts.get(name, {})
            out[f"{name}.calls"] = counts.get("calls", 0) / reports
            out[f"{name}.self_s"] = self_s[name] / reports
            for key in work_keys:
                out[f"{name}.{key}"] = counts.get(key, 0) / reports
        out[f"{ROOT_SPAN}.total_s"] = total_s[ROOT_SPAN] / reports
        return out

    def write_spans(self, path) -> None:
        keys = ("span_id", "parent_id", "root_id", "name", "start", "end",
                "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
