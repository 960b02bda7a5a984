"""The certified norm laws against independent oracles.

dilation(h), minimality, basis(c), basis(g) and basis(i) are certified
bounds computed from the built operators. Their sampled versions, which
evaluate the alpha norm or the Z-norm over every set, must never exceed
them by more than the rounding of the sampled estimate: 4 (m + d) unit
roundoffs, with m the atom or index count and d the dimension of X. The
minimal dilation of a single-window framing's measure and the basis
dilation are one construction, so their norms must agree.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dilatekit.banach import (build_minimal_dilation,
                              induced_norm_from_injective, minimality_bound,
                              verify_dilation)
from dilatekit.framing import build_dilated_basis, verify_basis_dilation
from dilatekit.hilbert import build_hilbert_dilation
from dilatekit.linalg import Tolerance
from dilatekit.pipeline import _materialize, _system
from dilatekit.scenario import gen_example, load_scenario

from oracles import (coords_from_values, gaussian, sampled_contraction,
                     sampled_isometry,
                     sampled_lambda_isometry, sampled_minimality,
                     sampled_shrinkage, scanned_k)

TOL = Tolerance()
GOLDEN = Path(__file__).resolve().parents[1] / "scenarios"
NORMS = (1, 2, float("inf"), 3)
SEEDS = (1, 2, 3)

CASES = (
    [(kind, params, seed) for seed in SEEDS
     for kind, params in (("bessel-cyclic", {"n": 4}),
                          ("bessel-cyclic", {"n": 5, "d": 3}),
                          ("spectral-random", {"m": 6, "d": 3}),
                          ("positive-random", {"m": 6, "d": 3}))]
    + [(kind, {**params, "p": p}, seed) for seed in SEEDS for p in NORMS
       for kind, params in (("framing-single", {"n": 6}),
                            ("p-frame-cyclic", {"n": 4, "r": 2}))]
)


def _scenarios():
    for kind, params, seed in CASES:
        yield (f"{kind}-{params}-{seed}",
               lambda k=kind, p=params, s=seed: gen_example(k, p, s))
    for path in sorted(GOLDEN.glob("*.json")):
        yield path.name, lambda p=path: load_scenario(p)


SCENARIOS = dict(_scenarios())


def _record(records, code):
    [record] = [r for r in records if r.paper_item == code]
    return record.max_residual


def _allowance(m: int, d: int) -> float:
    return 4 * (m + d) * np.finfo(float).eps


def _noisy(obj, field, scale=1.0):
    """obj with ``field`` scaled and 1e-6 times fixed noise added."""
    value = getattr(obj, field)
    noise = gaussian(np.random.default_rng(0), value.shape)
    return dataclasses.replace(obj, **{field: scale * value + 1e-6 * noise})


def _keep(obj, field, scale=1.0):
    return obj


@pytest.mark.parametrize("corrupt", [_keep, _noisy], ids=["built", "noisy"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_sampled_never_exceeds_certified(name, corrupt):
    # on the built operators both sides are rounding; with noise on the
    # operators each law reads, both are about 1e-6 and the bound must hold
    sc = SCENARIOS[name]()
    mat = _materialize(sc, TOL)
    system = _system(mat, TOL)[0]
    m, d = system.ovm.space.atoms, system.ovm.dim
    assert m <= 8
    slack = _allowance(m, d)

    minimal = build_minimal_dilation(system, TOL)
    moved = corrupt(minimal, "v_ops")
    derived = _record(verify_dilation(moved, system, TOL), "dilation(h)")
    assert sampled_isometry(moved) <= derived + slack

    if system.ovm_class.positive and sc.space_norm.kind == "l2":
        hd = build_hilbert_dilation(system, TOL)
        moved = corrupt(hd, "v_ops")
        derived = _record(verify_dilation(moved, system, TOL), "dilation(h)")
        assert sampled_isometry(moved) <= derived + slack
        induced = corrupt(induced_norm_from_injective(hd, system, TOL,
                                                      minimal=minimal),
                          "R", 0.99)
        k_bound, records = minimality_bound(induced, TOL)
        sampled = sampled_minimality(induced)
        # the Hilbert dilation's pi atoms are 0/1 blocks: K is the scanned
        # K exactly
        assert k_bound == pytest.approx(scanned_k(hd), rel=1e-12)
        assert sampled["residual"] <= _record(records, "minimality") + slack
        if corrupt is _keep:
            assert sampled["violations"] == 0

    if mat.framing is not None:
        built = build_dilated_basis(mat.framing)
        slack = _allowance(built.z_dim, d)
        for field, scale, code, sampled in (
                ("lambdas", 1.0, "basis(c)", sampled_lambda_isometry),
                ("S", 1 + 1e-6, "basis(g)", sampled_contraction),
                ("T", 1 - 1e-6, "basis(i)", sampled_shrinkage)):
            db = corrupt(built, field, scale)
            records = verify_basis_dilation(db, mat.framing, TOL)
            assert sampled(db) <= _record(records, code) + slack, code


@pytest.mark.parametrize("p", NORMS)
@pytest.mark.parametrize("n", (1, 3, 6))
def test_single_window_alpha_is_the_z_norm(n, p):
    # f in Z is the measure with atom values f_g theta_g x, an element of
    # the minimal dilation space of the framing's measure; its alpha norm,
    # read through the carrier's coordinates, is ||f||_Z
    sc = gen_example("framing-single", {"n": n, "p": p}, n)
    mat = _materialize(sc, TOL)
    db = build_dilated_basis(mat.framing)
    carrier = build_minimal_dilation(_system(mat, TOL)[0], TOL).carrier
    coeffs = gaussian(np.random.default_rng(n), (32, db.z_dim))
    coords = coords_from_values(carrier, coeffs[:, :, None] * db.synth)
    np.testing.assert_allclose(carrier.alpha_batch(coords),
                               db.z_batch(coeffs), rtol=1e-14)
