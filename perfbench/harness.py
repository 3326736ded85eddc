"""Measurement, output checks and reporting for one benchmark run.

A run generates its input from the seed, then repeats whole passes of
the workload until the next pass would overrun the time budget, which
counts from the start of the run. Before every pass it samples the
set-up (``read_mesh`` of the input) until set-up sampling has taken
SETUP_SHARE of the run so far, so that the set-up samples are spread over
the same host phases as the passes. Every pass starts
from the same input file, so every pass must write the same bytes; the
run fails only when they differ. Skipped node updates, inverted elements
and smooth() calls that end below their starting quality are counted,
never fatal.

Host speed on a shared machine drifts by tens of percent for minutes at a
time, so every gated timing is host-normalised (see ``hostspeed.py``) and
then taken as the median over the samples of a run. Raw medians are
printed and kept in the results file; ``host.ref_loop_ms`` is the traced
run's median host reading.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import osmot.meshio as meshio
from osmot.geometry import Point2, triangle_geometry
from osmot.quality import q2_shape

import hostspeed
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench"  # under the checkout root; ignored by git
SETUP_MIN = 3  # set-up samples before every pass, at least
SETUP_SHARE = 0.1  # share of the run spent sampling set-up

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    _spec = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _spec["end_to_end"] + _spec["per_layer"]}


def sha256_files(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@dataclass
class FinalMesh:
    min_q2: float
    q2_p1: float  # 1st percentile: the q2 that 99% of the elements reach
    mean_q2: float
    inverted: int


def _points_and_triangles(text: str):
    """Coordinates and triangles of a mesh file, without validation, so
    that a mesh with inverted elements can still be measured."""
    lines = text.splitlines()
    n = int(lines[1].split()[1])
    points = [Point2(*map(float, line.split()[1:3])) for line in lines[2:2 + n]]
    m = int(lines[2 + n].split()[1])
    tris = [tuple(map(int, line.split()[1:4])) for line in lines[3 + n:3 + n + m]]
    return points, tris


def check_meshes(paths: list[str], input_tris: list[tuple[int, int, int]]
                 ) -> tuple[FinalMesh, list[str]]:
    """Re-read every written mesh; return the last one's quality and the
    problems found. ``read_mesh`` must accept a mesh exactly when it has
    no inverted element, and connectivity must be the input's."""
    problems: list[str] = []
    final = FinalMesh(0.0, 0.0, 0.0, 0)
    for path in paths:
        with open(path, encoding="ascii") as fh:
            points, tris = _points_and_triangles(fh.read())
        if tris != input_tris:
            problems.append(f"{path}: connectivity differs from the input")
        q2 = []
        inverted = 0
        for a, b, c in tris:
            geom = triangle_geometry(points[a], points[b], points[c])
            q2.append(q2_shape(geom))
            inverted += geom.area_signed <= 0.0
        try:
            meshio.read_mesh(path)
            if inverted:
                problems.append(f"{path}: read_mesh accepted {inverted} inverted elements")
        except meshio.ValidationError as err:
            if not inverted:
                problems.append(f"{path}: read_mesh rejected it: {err}")
        q2.sort()
        final = FinalMesh(q2[0], q2[len(q2) // 100], sum(q2) / len(q2), inverted)
    return final, problems


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> int:
    workload = workloads.WORKLOADS[name]
    work = os.path.join(root, WORK_DIR, "work", f"{name}-s{seed}-t{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _measure(workload, seed, seconds, trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, root, work) -> int:
    t_start = time.perf_counter()
    gen = workload.generate(seed)
    in_path = os.path.join(work, "input.mesh")
    with open(in_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(gen.text)
    input_sha = hashlib.sha256(gen.text.encode("ascii")).hexdigest()
    mesh = meshio.read_mesh(in_path)
    targets = workloads.internal_flagged(mesh)
    input_tris = [t.nodes for t in mesh.triangles]
    del mesh

    ref_ms: list[float] = []  # the host reading of every sample, in order
    setup_s: list[float] = []  # raw
    setup_norm: list[float] = []  # host-normalised
    setup_wall = 0.0  # time spent sampling set-up, host readings included

    def sample_setup() -> None:
        nonlocal setup_wall
        n = 0
        while n < SETUP_MIN or setup_wall < SETUP_SHARE * (time.perf_counter() - t_start):
            t_begin = time.perf_counter()
            ms = hostspeed.reading_ms()
            t0 = time.perf_counter()
            meshio.read_mesh(in_path)
            dt = time.perf_counter() - t0
            ref_ms.append(ms)
            setup_s.append(dt)
            setup_norm.append(hostspeed.normalised(dt, ms))
            setup_wall += time.perf_counter() - t_begin
            n += 1

    out_dir = os.path.join(work, "out")
    plain: list[workloads.PassResult] = []
    traced: list[workloads.PassResult] = []
    plain_norm: list[float] = []  # host-normalised run_s of each pass
    traced_norm: list[float] = []
    tracers: list[spans.Tracer] = []
    digests: set[str] = set()
    walls: list[float] = []
    while True:
        t_step = time.perf_counter()
        sample_setup()
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        # the sampler's handler time lands in the traced layers' self
        # times too, spread in proportion to their time (about 1%)
        with hostspeed.Sampler() as sampler:
            if trace and len(plain) > len(traced):
                tracer = spans.Tracer()
                with tracer.installed():
                    res = workload.run(in_path, gen, out_dir, targets)
                tracers.append(tracer)
                traced.append(res)
                norms = traced_norm
            else:
                res = workload.run(in_path, gen, out_dir, targets)
                plain.append(res)
                norms = plain_norm
        # all of the handler's time is subtracted; the part of it that fell
        # in the benchmark's untimed bookkeeping is about 0.05% of run_s
        res.run_s -= sampler.spent_s
        ref_ms.append(sampler.host_ms())
        norms.append(hostspeed.normalised(res.run_s, ref_ms[-1]))
        digests.add(sha256_files(res.outputs))
        walls.append(time.perf_counter() - t_step)
        enough = not trace or traced
        if enough and (time.perf_counter() - t_start
                       + statistics.median(walls) > seconds):
            break

    # before the checks below, which re-read every written mesh
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # every pass wrote the same bytes (checked below), so checking the
    # last pass's files checks them all
    final, problems = check_meshes(
        [p for p in res.outputs if p.endswith(".mesh")], input_tris)
    passes = plain + traced
    work_counts = {(p.attempted, p.skipped, p.smooth_calls, p.worse_calls)
                   for p in passes}
    trace_counts = [tr.counts() for tr in tracers]
    if len(digests) > 1:
        problems.append(f"output bytes differ between passes: {sorted(digests)}")
    if len(work_counts) > 1:
        problems.append(f"work counts differ between passes: {sorted(work_counts)}")
    if any(c != trace_counts[0] for c in trace_counts):
        problems.append("layer counts differ between traced passes")

    first = passes[0]
    metrics: dict[str, dict] = {}
    if trace:
        per_pass = [spans.layer_metrics(tr) for tr in tracers]
        for key in per_pass[0]:
            metrics[key] = _metric(key, statistics.median(m[key] for m in per_pass))
        overhead = statistics.median(traced_norm) / statistics.median(plain_norm) - 1.0
        metrics["trace.overhead_frac"] = _metric("trace.overhead_frac", overhead)
        metrics["host.ref_loop_ms"] = _metric("host.ref_loop_ms", statistics.median(ref_ms))
        metrics["driver.failed_frac"] = _metric(
            "driver.failed_frac", first.skipped / first.attempted if first.attempted else 0.0)
        metrics["report.inverted_elements"] = _metric("report.inverted_elements", final.inverted)
    else:
        for key, value in (
            ("run_s", statistics.median(plain_norm)),
            ("setup_s", statistics.median(setup_norm)),
            ("node_updates_per_s",
             statistics.median(p.attempted / t for p, t in zip(plain, plain_norm))),
            ("final_q2_p1", final.q2_p1),
            ("final_mean_q2", final.mean_q2),
            ("peak_rss_mb", peak_rss_mb),
        ):
            metrics[key] = _metric(key, value)

    correct = not problems
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "correct": correct,
        "problems": problems,
        "input_sha256": input_sha,
        "output_sha256": sorted(digests)[0],
        "passes": {"plain": len(plain), "traced": len(traced)},
        "run_s": plain_norm,
        "traced_run_s": traced_norm,
        "setup_s": setup_norm,
        "raw_run_s": [p.run_s for p in plain],
        "raw_traced_run_s": [p.run_s for p in traced],
        "raw_setup_s": setup_s,
        "host.ref_loop_ms": ref_ms,
        "node_updates_attempted": first.attempted,
        "skipped": first.skipped,
        "smooth_calls": first.smooth_calls,
        "worse_calls": first.worse_calls,
        "inverted_elements": final.inverted,
        "final_min_q2": final.min_q2,
        "span_self_s": {k: statistics.median(tr.self_s(k) for tr in tracers)
                        for k in sorted(tracers[0].spans)} if tracers else {},
        "counts": trace_counts[0] if trace_counts else {},
        "metrics": metrics,
    }
    results = os.path.join(root, WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-s{seed}-t{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    _print_summary(detail)
    print(json.dumps({
        "correct": correct,
        "attempted": first.attempted + first.smooth_calls,
        "failed": first.skipped + first.worse_calls,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _print_summary(detail: dict) -> None:
    print(f"workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}")
    print(f"input_sha256 {detail['input_sha256']}")
    print(f"output_sha256 {detail['output_sha256']}")
    for label in ("run_s", "raw_run_s", "setup_s", "raw_setup_s", "host.ref_loop_ms"):
        values = detail[label]
        q1, q2, q3 = _quartiles(values)
        print(f"{label}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} (n={len(values)})")
    print(f"node updates {detail['node_updates_attempted']} skipped {detail['skipped']} "
          f"smooth() calls {detail['smooth_calls']} ended worse {detail['worse_calls']} "
          f"inverted elements {detail['inverted_elements']} "
          f"final min q2 {detail['final_min_q2']:.6g}")
    for span, value in detail["span_self_s"].items():
        print(f"self {span} {value:.6g} s")
    for key, m in detail["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    for problem in detail["problems"]:
        print(f"FAILED CHECK: {problem}")
