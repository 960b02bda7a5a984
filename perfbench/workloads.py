"""Benchmark workloads: which scenarios each one runs, and how they are
generated from the benchmark seed.

A workload is a fixed composition of ``(kind, params, command)`` entries;
the seed only draws the ``gen_example`` seed of each entry, so every seed
asks for the same amount of work and only the random draws differ. This
module imports ``dilatekit`` lazily, so the orchestrator can read the
workload table without the package on its path.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import List, Tuple

DEFAULT_SEED = 1

# Heavy workloads draw this many distinct instances and cycle through them.
# A bessel-all run of the default length finishes fewer reports than this,
# so each of its reports gets a fresh instance.
HEAVY_POOL = 48

# Every spawned worker runs under this address-space limit.
MAX_AS_MB = 3072


@dataclass(frozen=True)
class Entry:
    kind: str
    params: dict
    command: str


@dataclass(frozen=True)
class Workload:
    name: str
    entries: Tuple[Entry, ...]
    # A run stops only after a whole round of this many reports, so the mix
    # of entries, and with it every per-report work count, is the same in
    # every run.
    round_len: int


def _heavy(name: str, kind: str, params: dict, command: str) -> Workload:
    return Workload(name, (Entry(kind, params, command),) * HEAVY_POOL, 1)


def _small_batch_entries() -> Tuple[Entry, ...]:
    # The whole grid of tiny scenarios, so that report times spread densely
    # and the median does not sit in a gap between two scenario shapes.
    # Every scenario runs `all`; the Euclidean ones also run `validate`.
    norms = (1, 2, math.inf, 3)
    out: List[Entry] = []

    def add(kind, params):
        out.append(Entry(kind, params, "all"))
        if params.get("p", 2) == 2:
            out.append(Entry(kind, params, "validate"))

    for n in range(1, 6):
        add("bessel-cyclic", {"n": n})
    for n in range(3, 7):
        for d in (2, 3):
            add("bessel-cyclic", {"n": n, "d": d})
    for n in range(1, 6):
        for p in norms:
            add("framing-single", {"n": n, "p": p})
    for n in (3, 5):
        add("framing-single", {"n": n, "p": 2, "delta": True})
    for n, r in ((2, 2), (3, 2), (2, 3)):
        for p in norms:
            add("p-frame-cyclic", {"n": n, "r": r, "p": p})
    for m in range(2, 7):
        for d in (2, 3):
            add("spectral-random", {"m": m, "d": d})
            add("positive-random", {"m": m, "d": d})
    return tuple(out)


_SMALL = _small_batch_entries()

WORKLOADS = {w.name: w for w in (
    _heavy("bessel-all", "bessel-cyclic", {"n": 8}, "all"),
    _heavy("framing-lp3", "p-frame-cyclic", {"n": 5, "r": 2, "p": 3},
           "dilate-framing"),
    _heavy("positive-chain", "positive-random", {"m": 7, "d": 3}, "all"),
    Workload("small-batch", _SMALL, len(_SMALL)),
)}


@dataclass(frozen=True)
class Input:
    """One generated scenario, serialized as ``dilatekit gen`` writes it."""

    kind: str
    command: str
    gen_seed: int
    text: str
    digest: str


def build_inputs(name: str, seed: int) -> List[Input]:
    """The workload's inputs for ``seed``; the same seed gives the same
    inputs, bit for bit."""
    from dilatekit.scenario import (gen_example, scenario_digest,
                                    serialize_scenario)

    rng = random.Random(f"{name}:{seed}")
    out = []
    for e in WORKLOADS[name].entries:
        gen_seed = rng.randrange(1 << 31)
        sc = gen_example(e.kind, e.params, gen_seed)
        out.append(Input(kind=e.kind, command=e.command, gen_seed=gen_seed,
                         text=json.dumps(serialize_scenario(sc), indent=2),
                         digest=scenario_digest(sc)))
    return out
