"""The benchmark workloads: one pass of each, from input file to outputs.

Every call into osmot goes through a module attribute (``cli.main``,
``driver.smooth``, ``meshio.write_mesh``, ...) looked up at call time, so
that the tracer in ``spans.py`` sees the calls when it has wrapped them.
Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import time
from dataclasses import dataclass, field

import osmot.cli as cli
import osmot.driver as driver
import osmot.meshio as meshio
import osmot.report as report
import osmot.svgout as svgout
from osmot.geometry import Point2
from osmot.mesh import Mesh, Mobility, flag_nodes
from osmot.quality import QualityConfig

import meshgen

# jitter64 and graded-general: loops per pass, without early exit
CLI_LOOPS = 1

# rezone: the die sinks REZONE_ROUNDS * REZONE_INCREMENT in total; each
# round smooths with up to REZONE_LOOPS loops and early exit on
REZONE_ROUNDS = 12
REZONE_INCREMENT = 0.25 * meshgen.REZONE_PITCH
REZONE_LOOPS = 5


@dataclass
class PassResult:
    """What one pass did, apart from its output bytes."""

    run_s: float
    attempted: int  # node relocations attempted
    skipped: int  # degenerate-start or coincident-neighbors
    smooth_calls: int
    worse_calls: int  # smooth() calls that ended below their starting quality
    outputs: list[str] = field(default_factory=list)  # files written, in order


@dataclass(frozen=True)
class Workload:
    name: str  # the reason for each is in BENCHMARK.json
    generate: object  # seed -> meshgen.GeneratedMesh
    run: object  # (input path, GeneratedMesh, output dir) -> PassResult


def internal_flagged(mesh: Mesh) -> int:
    """Number of internal nodes the driver flags at the start of smooth()."""
    return sum(1 for nid in flag_nodes(mesh, QualityConfig())
               if mesh.nodes[nid].mobility is Mobility.INTERNAL)


def movable_boundary(mesh: Mesh) -> int:
    return sum(1 for n in mesh.nodes if n.mobility is Mobility.BOUNDARY)


_SUMMARY = re.compile(r"^loops (\d+) relocations (\d+) skipped (\d+) ", re.M)


def _report_rows(path: str) -> list[list[str]]:
    with open(path, encoding="ascii") as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


def _is_worse(first_min_q2: float, first_inverted: int,
              last_min_q2: float, last_inverted: int) -> bool:
    return last_min_q2 < first_min_q2 or last_inverted > first_inverted


def _cli_smooth(extra: list[str], targets: int, in_path: str,
                out_dir: str) -> PassResult:
    """``osmot smooth`` in process, with a quality CSV next to the mesh."""
    out_mesh = os.path.join(out_dir, "smoothed.mesh")
    out_csv = os.path.join(out_dir, "report.csv")
    argv = ["smooth", "--input", in_path, "--output", out_mesh,
            "--max-loops", str(CLI_LOOPS), "--no-early-exit",
            "--report", out_csv] + extra
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    run_s = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"osmot smooth exited {code}: {stderr.getvalue()}")
    loops, _relocations, skipped = map(int, _SUMMARY.search(stdout.getvalue()).groups())
    rows = _report_rows(out_csv)
    worse = _is_worse(float(rows[0][1]), int(rows[0][5]),
                      float(rows[-1][1]), int(rows[-1][5]))
    return PassResult(run_s=run_s, attempted=loops * targets, skipped=skipped,
                      smooth_calls=1, worse_calls=int(worse),
                      outputs=[out_mesh, out_csv])


def run_jitter64(in_path: str, gen: meshgen.GeneratedMesh, out_dir: str,
                 targets: int) -> PassResult:
    return _cli_smooth([], targets, in_path, out_dir)


def run_graded_general(in_path: str, gen: meshgen.GeneratedMesh, out_dir: str,
                       targets: int) -> PassResult:
    return _cli_smooth(["--beta", "2", "--gamma", "2"], targets, in_path, out_dir)


def run_rezone(in_path: str, gen: meshgen.GeneratedMesh, out_dir: str,
               targets: int) -> PassResult:
    """The indentation experiment of scripts/indentation_demo.py, with one
    SVG snapshot and one mesh checkpoint per round and a quality CSV of
    every loop of every round at the end."""
    t0 = time.perf_counter()
    bookkeeping = 0.0  # counting work of the benchmark, subtracted from run_s
    mesh = meshio.read_mesh(in_path)
    boundary = movable_boundary(mesh)
    outputs: list[str] = []
    reports = []
    attempted = skipped = worse = 0
    for rnd in range(1, REZONE_ROUNDS + 1):
        for nid in gen.die_ids:
            p = mesh.position(nid)
            mesh.set_position(nid, Point2(p.x, p.y - REZONE_INCREMENT))
        tb = time.perf_counter()
        round_targets = internal_flagged(mesh)
        bookkeeping += time.perf_counter() - tb
        result = driver.smooth(mesh, driver.SmootherConfig(i_max=REZONE_LOOPS))
        attempted += result.loops_run * (round_targets + boundary)
        skipped += len(result.skipped)
        first, last = result.reports[0], result.reports[-1]
        worse += _is_worse(first.min_q2, first.inverted_elements,
                           last.min_q2, last.inverted_elements)
        reports += result.reports
        svg_path = os.path.join(out_dir, f"round{rnd:02d}.svg")
        svgout.render_svg(mesh, svg_path, svgout.ColorBy.Q2)
        mesh_path = os.path.join(out_dir, f"round{rnd:02d}.mesh")
        meshio.write_mesh(mesh, mesh_path)
        outputs += [svg_path, mesh_path]
    csv_path = os.path.join(out_dir, "report.csv")
    report.write_report_csv(reports, csv_path)
    outputs.append(csv_path)
    run_s = time.perf_counter() - t0 - bookkeeping
    return PassResult(run_s=run_s, attempted=attempted, skipped=skipped,
                      smooth_calls=REZONE_ROUNDS, worse_calls=worse,
                      outputs=outputs)


WORKLOADS = {
    w.name: w for w in (
        Workload("jitter64", meshgen.jitter_lattice, run_jitter64),
        Workload("rezone", meshgen.die_box, run_rezone),
        Workload("graded-general", meshgen.graded_lattice, run_graded_general),
    )
}
