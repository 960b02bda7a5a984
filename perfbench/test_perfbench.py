"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from gate import gate, item_key, load_expected  # noqa: E402
from tracing import Tracer, metric_names  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_inputs  # noqa: E402

from dilatekit import (banach, framing, hilbert, imprimitivity, linalg,  # noqa: E402
                       pipeline, scenario)
from dilatekit.pipeline import run_pipeline  # noqa: E402
from dilatekit.scenario import scenario_from_dict  # noqa: E402


def _report(inp) -> dict:
    sc = scenario_from_dict(json.loads(inp.text))
    return json.loads(run_pipeline(sc, inp.command).to_json())


@pytest.fixture(scope="module")
def sample():
    """A passing `all` report on a small Bessel system, with its reference."""
    inp = next(i for i in build_inputs("small-batch", DEFAULT_SEED)
               if i.kind == "bessel-cyclic" and i.command == "all")
    items = load_expected()["paper_items"][item_key(inp.kind, inp.command)]
    return _report(inp), items, inp.digest


def test_gate_accepts_a_seed_report(sample):
    report, items, digest = sample
    assert gate(report, items, digest) is None


@pytest.mark.parametrize("where", ["report", "check"])
def test_gate_rejects_a_flipped_verdict(sample, where):
    report, items, digest = copy.deepcopy(sample)
    if where == "report":
        report["pass"] = False
    else:
        report["checks"][3]["pass"] = False
    assert gate(report, items, digest) is not None


def test_gate_rejects_a_dropped_check(sample):
    report, items, digest = copy.deepcopy(sample)
    dropped = next(i for i, c in enumerate(report["checks"])
                   if c["paper_item"] == "dilation(d)")
    del report["checks"][dropped]
    assert "differ" in gate(report, items, digest)


def test_gate_rejects_a_residual_over_its_threshold(sample):
    report, items, digest = copy.deepcopy(sample)
    c = next(c for c in report["checks"] if c["threshold"] > 0)
    c["max_residual"] = 2 * c["threshold"]
    assert "residual" in gate(report, items, digest)


def test_gate_rejects_a_report_on_another_input(sample):
    report, items, _ = sample
    assert "digest" in gate(report, items, "0" * 64)


def test_inputs_are_deterministic_per_seed():
    for name in WORKLOADS:
        first = build_inputs(name, 7)
        assert first == build_inputs(name, 7)
        other = {i.digest for i in build_inputs(name, 8)}
        assert not other & {i.digest for i in first}


def test_default_seed_inputs_match_the_recorded_digests():
    recorded = load_expected()["digests"]
    for name in WORKLOADS:
        digests = [i.digest for i in build_inputs(name, DEFAULT_SEED)]
        assert digests == recorded[name]


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        "subset_sums": linalg.subset_sums, "row_norms": linalg.row_norms,
        "check_rep": imprimitivity.check_rep,
        "check_system": imprimitivity.check_system,
        "verify_framing": framing.verify_framing,
        "build_dilated_basis": framing.build_dilated_basis,
        "verify_basis_dilation": framing.verify_basis_dilation,
    }
    bound = {
        "subset_sums": (banach, framing, hilbert),
        "row_norms": (banach, framing),
        "check_rep": (pipeline,), "check_system": (pipeline,),
        "verify_framing": (pipeline,), "build_dilated_basis": (pipeline,),
        "verify_basis_dilation": (pipeline,),
    }
    alpha_batch = banach.DilationSpaceAlpha.alpha_batch
    with Tracer():
        for name, modules in bound.items():
            for mod in modules:
                patched = getattr(mod, name)
                assert patched is not originals[name]
                assert patched.__wrapped__ is originals[name]
        assert banach.DilationSpaceAlpha.alpha_batch is not alpha_batch
    for name, modules in bound.items():
        for mod in modules:
            assert getattr(mod, name) is originals[name]
    assert banach.DilationSpaceAlpha.alpha_batch is alpha_batch


def _traced_round():
    inputs = build_inputs("small-batch", DEFAULT_SEED)
    tracer = Tracer()
    with tracer:
        for inp in inputs:
            with tracer.span("report"):
                sc = scenario.scenario_from_dict(json.loads(inp.text))
                pipeline.run_pipeline(sc, inp.command).to_json()
    return tracer, len(inputs)


def test_traced_counts_repeat_and_spans_nest():
    first, reports = _traced_round()
    second, _ = _traced_round()
    counts = {k: dict(v) for k, v in first.counts.items()}
    assert counts == {k: dict(v) for k, v in second.counts.items()}
    assert counts["pipeline.run_pipeline"]["calls"] == reports
    assert counts["linalg.subset_sums"]["rows"] > 0
    assert counts["banach.DilationSpaceAlpha.alpha_batch"]["subset_norms"] > 0
    assert counts["framing.DilatedBasis.z_batch"]["subset_norms"] > 0

    spans = {s[0]: s for s in first.spans}
    roots = {s[0] for s in first.spans if s[3] == "report"}
    assert len(roots) == reports
    for sid, parent, root, name, start, end, own in first.spans:
        assert root in roots
        assert (parent is None) == (name == "report")
        if parent is not None:
            assert spans[parent][4] <= start <= end <= spans[parent][5]
        assert 0 <= own <= end - start + 1e-9
    layers = first.per_report(reports)
    assert list(layers) == metric_names()


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(bench.UNITS.values())
    layer_names = metric_names() + ["tracing.report_s_p50", "tracing.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert ([m["unit"] for m in spec["per_layer"]]
            == [bench.layer_unit(n) for n in layer_names])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_an_unfinished_worker_counts_a_failed_report():
    reports = [{"ev": "report", "s": 0.1, "ok": True, "why": None,
                "traced": False}] * 3
    done = {"ev": "done", "loop_s": 0.3, "peak_rss_kb": 1}
    clean = bench.summarize(reports + [done], 0, False)
    assert (clean["attempted"], clean["failed"]) == (3, 0)
    for events, code, timed_out in ((reports, -9, False),
                                    (reports, 0, True),
                                    (reports + [done], 1, False)):
        s = bench.summarize(events, code, timed_out)
        assert (s["attempted"], s["failed"]) == (4, 1)


def test_timings_are_scaled_to_the_reference_speed():
    ref = bench.CALIBRATION_REF_S
    reports = [{"ev": "report", "s": s, "ok": True, "why": None,
                "traced": False} for s in (1.0, 2.0, 3.0)]
    events = ([{"ev": "cal", "s": 2 * ref}] + reports
              + [{"ev": "done", "loop_s": 6.0, "peak_rss_kb": 2048}])
    metrics, extra = bench.end_to_end(bench.summarize(events, 0, False),
                                      [(0.4, ref / 2), (0.5, ref)])
    value = {k: m["value"] for k, m in metrics.items()}
    # the machine ran at half the reference speed during the reports
    assert value["report_s_p50"] == pytest.approx(1.0)
    assert value["reports_per_s"] == pytest.approx(1.0)
    assert value["peak_rss_mb"] == 2.0
    assert value["setup_s"] == pytest.approx((0.8 + 0.5) / 2)
    assert extra["wall_clock"]["report_s_p50"] == 2.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert bench.tail(samples) == (30.0, 75.0)
    assert bench.tail(samples[:5]) == (5.0, 100.0)


def _worker(*args, timeout=120):
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))


def test_memory_error_in_a_report_counts_as_failed():
    out = _worker("--workload", "framing-lp3", "--seed", "1", "--seconds", "0",
                  "--mode", "run", "--max-mb", "170")
    events = [json.loads(line) for line in out.stdout.splitlines()]
    s = bench.summarize(events, out.returncode, False)
    assert s["failed"] >= 1
    assert any("MemoryError" in (r["why"] or "") for r in s["reports"])


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_every_workload_at_reduced_length():
    out = _run("--seconds", "0.2")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{m}" for w in WORKLOADS for m in bench.UNITS}
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    provenance = json.loads(out.stdout.splitlines()[0])
    assert provenance["dilatekit"] == str(ROOT / "src" / "dilatekit")
    assert provenance["blas_threads"] in (1, None)


def test_smoke_traced_run():
    out = _run("--workload", "small-batch", "--seconds", "0.2", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    layer_names = metric_names() + ["tracing.report_s_p50", "tracing.overhead_s"]
    assert list(result["metrics"]) == layer_names


def test_without_sources_it_fails_and_prints_no_result():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = _run("--workload", "small-batch", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
