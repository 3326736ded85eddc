"""Tests of the benchmark itself: inputs, tracer and metric definitions."""

import importlib
import json
import statistics
import os
import signal
import subprocess
import sys
import time

import pytest

import hostspeed
import meshgen
import spans
import workloads
from osmot.meshio import mesh_to_text, parse_mesh_text

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# small versions of the three workload inputs
SMALL = {
    "jitter64": lambda seed: meshgen.jitter_lattice(seed, cells=8),
    "rezone": lambda seed: meshgen.die_box(seed, cols=16, rows=8),
    "graded-general": lambda seed: meshgen.graded_lattice(seed, cells=5),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generators_are_byte_identical_per_seed(workload):
    make = SMALL[workload]
    assert make(3) == make(3)
    assert make(3).text != make(4).text


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generated_text_is_what_osmot_writes(workload):
    text = SMALL[workload](5).text
    assert mesh_to_text(parse_mesh_text(text)) == text


def test_full_size_inputs():
    jitter = parse_mesh_text(meshgen.jitter_lattice(0).text)
    assert (len(jitter.triangles), len(jitter.balls)) == (8192, 3969)
    box = parse_mesh_text(meshgen.die_box(0).text)
    assert len(box.triangles) == 8192 and len(box.chains) == 2
    graded = parse_mesh_text(meshgen.graded_lattice(0).text)
    assert len(graded.triangles) == 2048
    assert sorted(graded.rref) == list(range(2048))


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _span in spans.TARGETS}


def test_wrappers_restore_the_original_attributes():
    before = _originals()
    tracer = spans.Tracer()
    with tracer.installed():
        for (module, attr), fn in before.items():
            wrapped = getattr(importlib.import_module(module), attr)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
    assert _originals() == before
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert _originals() == before


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def child():
        time.sleep(0.02)

    wrapped_child = tracer._wrap("child", child)

    def parent():
        time.sleep(0.01)
        wrapped_child()

    t0 = time.perf_counter()
    tracer._wrap("parent", parent)()
    total = time.perf_counter() - t0
    assert tracer.calls("parent") == tracer.calls("child") == 1
    assert tracer.self_s("child") >= 0.02
    assert tracer.self_s("parent") >= 0.01
    # the child's time is charged to the child alone: the two self times
    # add up to the parent's wall time, less the tracer's own bookkeeping
    both = tracer.self_s("parent") + tracer.self_s("child")
    assert total - 0.005 < both <= total


def test_sampler_reads_host_speed_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        t_end = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.readings_ms) >= 2
    assert 0.0 < sampler.spent_s < 4 * hostspeed.INTERVAL_S
    assert sampler.host_ms() == statistics.median(sampler.readings_ms)


def _pass(workload, gen, tmp_path, label, traced):
    in_path = tmp_path / "input.mesh"
    in_path.write_text(gen.text)
    out = tmp_path / label
    out.mkdir()
    targets = workloads.internal_flagged(parse_mesh_text(gen.text))
    run = workloads.WORKLOADS[workload].run
    tracer = spans.Tracer()
    if traced:
        with tracer.installed():
            res = run(str(in_path), gen, str(out), targets)
    else:
        res = run(str(in_path), gen, str(out), targets)
    data = [open(p, "rb").read() for p in res.outputs]
    return res, tracer, data


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_two_traced_passes_give_identical_counts(workload, tmp_path):
    gen = SMALL[workload](7)
    res_a, tr_a, data_a = _pass(workload, gen, tmp_path, "a", traced=True)
    res_b, tr_b, data_b = _pass(workload, gen, tmp_path, "b", traced=True)
    res_c, _tr, data_c = _pass(workload, gen, tmp_path, "c", traced=False)
    assert tr_a.counts() == tr_b.counts()
    assert tr_a.calls("newton.optimize_ball") > 0
    # tracing changes neither the work nor the bytes written
    assert data_a == data_b == data_c
    assert (res_a.attempted, res_a.skipped) == (res_c.attempted, res_c.skipped)
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    metrics_a, metrics_b = spans.layer_metrics(tr_a), spans.layer_metrics(tr_b)
    for key, value in metrics_a.items():
        if units[key] not in ("s", "ms", "us"):
            assert metrics_b[key] == value, key


def test_every_metric_and_workload_is_defined():
    bench = _benchmark()
    with open(os.path.join(BENCH_DIR, "metrics.json"), encoding="utf-8") as fh:
        notes = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert sorted(notes) == sorted(names)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    traced_names = set(spans.layer_metrics(spans.Tracer()))
    extra = {"trace.overhead_frac", "host.ref_loop_ms", "driver.failed_frac",
             "report.inverted_elements"}
    assert {m["name"] for m in bench["per_layer"]} == traced_names | extra


def test_run_refuses_a_directory_without_osmot_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "jitter64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
