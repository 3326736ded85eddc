"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
Every tolerance and runtime bound is pinned here; nothing is deferred.
"""

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from conftest import fd_gradient, fd_jacobian, random_ball_mesh, random_triangle
from osmot.boundary import BoundaryTriple, boundary_quality, smooth_boundary_node
from osmot.driver import SmootherConfig, SmootherKind, smooth
from osmot.fixtures import (
    FixtureKind,
    freeze_boundary,
    generate_fixture,
    graded_zone_ids,
    patch32_lattice_positions,
)
from osmot.geometry import Point2, edge_lengths, signed_area
from osmot.meshio import mesh_to_text, read_mesh, write_mesh
from osmot.newton import optimize_ball
from osmot.objective import (
    ObjectiveParams,
    ball_grad_hess,
    ball_objective,
    element_grad_hess,
    element_objective,
    freeze_ball,
)
from osmot.quality import QualityConfig


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, limit {limit_s:g}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeded {limit_s}s"


def test_criterion_1_derivative_exactness():
    with criterion(1, "derivative-exactness", 1.0):
        rng = random.Random(20240901)
        params = ObjectiveParams()
        worst_grad = worst_hess = 0.0
        for _ in range(1000):
            p0, p1, p2 = random_triangle(rng, min_q2=0.05)
            gh = element_grad_hess(p0, p1, p2, params)
            # (w, wx, wy, wxx, wxy, wyy): six floats, one off-diagonal entry
            assert len(gh) == 6 and all(type(v) is float for v in gh)
            _w, wx, wy, hxx, hxy, hyy = gh
            h = 1e-6 * max(edge_lengths(p0, p1, p2))

            def f(x, y):
                return element_objective(Point2(x, y), p1, p2, params)

            gx, gy = fd_gradient(f, p0.x, p0.y, h)
            gscale = max(abs(gx), abs(gy), 1.0)
            worst_grad = max(worst_grad, abs(wx - gx) / gscale,
                             abs(wy - gy) / gscale)

            def grad(x, y):
                return element_grad_hess(Point2(x, y), p1, p2, params)[1:3]

            jac = fd_jacobian(grad, p0.x, p0.y, h)
            hscale = max(abs(jac[0][0]), abs(jac[0][1]), abs(jac[1][1]), 1.0)
            worst_hess = max(worst_hess,
                             abs(hxx - jac[0][0]) / hscale,
                             abs(hxy - jac[0][1]) / hscale,
                             abs(hyy - jac[1][1]) / hscale)
        assert worst_grad <= 1e-5, worst_grad
        assert worst_hess <= 1e-4, worst_hess


def test_criterion_2_patch_test():
    with criterion(2, "patch-test", 1.0):
        mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
        cfg = SmootherConfig(
            i_max=10,
            quality=QualityConfig(q_min=0.6),
            objective=ObjectiveParams(beta=1.0, gamma=3.0, r_ref=1.0),
        )
        result = smooth(mesh, cfg)
        assert result.reports[-1].min_q2 >= 0.80
        h = 0.25
        for nid, lattice in patch32_lattice_positions().items():
            p = mesh.position(nid)
            assert math.hypot(p.x - lattice.x, p.y - lattice.y) <= 0.02 * h


def test_criterion_3_grading_preservation():
    with criterion(3, "grading-preservation", 30.0):
        base = generate_fixture(FixtureKind.GRADED_INTERFACE)
        fine, coarse = graded_zone_ids(base)

        def ratio(mesh):
            fa = sum(signed_area(*mesh.triangle_points(mesh.triangles[t]))
                     for t in fine) / len(fine)
            ca = sum(signed_area(*mesh.triangle_points(mesh.triangles[t]))
                     for t in coarse) / len(coarse)
            return fa / ca

        r0 = ratio(base)

        osmot_mesh = generate_fixture(FixtureKind.GRADED_INTERFACE)
        smooth(osmot_mesh, SmootherConfig(i_max=1000))
        r_osmot = ratio(osmot_mesh)
        assert r_osmot / r0 <= 1.5 and r0 / r_osmot <= 1.5

        lap_mesh = generate_fixture(FixtureKind.GRADED_INTERFACE)
        smooth(lap_mesh, SmootherConfig(
            i_max=1000, smoother_kind=SmootherKind.LAPLACIAN))
        r_lap = ratio(lap_mesh)
        assert abs(r_lap - 1.0) < abs(r_osmot - 1.0)


def test_criterion_4_nonconvex_stability():
    with criterion(4, "nonconvex-stability", 5.0):
        for kind, distortion in [(FixtureKind.HORSESHOE, 0.0),
                                 (FixtureKind.INDENTED_BOX, 0.6)]:
            mesh = freeze_boundary(generate_fixture(kind,
                                                    distortion=distortion))

            def all_positive(loop, m):
                assert all(
                    signed_area(*m.triangle_points(t)) > 0.0
                    for t in m.triangles
                ), f"{kind.value}: inversion at loop {loop}"

            result = smooth(mesh, SmootherConfig(i_max=10),
                            on_loop=all_positive)
            assert all(r.inverted_elements == 0 for r in result.reports)
            assert result.reports[-1].min_q2 >= result.reports[0].min_q2 - 1e-12

        # documented failure reproduction: averaging inverts the horseshoe
        lap = freeze_boundary(generate_fixture(FixtureKind.HORSESHOE))
        result = smooth(lap, SmootherConfig(
            i_max=10, smoother_kind=SmootherKind.LAPLACIAN))
        assert any(r.inverted_elements > 0 for r in result.reports)


def test_criterion_5_local_optimizer_contract():
    with criterion(5, "local-optimizer-contract", 2.0):
        rng = random.Random(1234)
        params = ObjectiveParams()
        converged_runs = 0
        for _ in range(200):
            mesh = random_ball_mesh(rng)
            ball = mesh.balls[0]
            frame = freeze_ball(mesh, ball, params)
            pos, trace = optimize_ball(mesh, ball, params)

            accepted = [s.value for s in trace.steps if s.accepted]
            seq = accepted + [ball_objective(mesh, frame, pos, params)]
            assert all(b < a for a, b in zip(seq, seq[1:]))
            assert all(s.grad_dot_dir < 0.0 for s in trace.steps)
            lams = [s.step_size for s in trace.steps]
            assert all(b <= a for a, b in zip(lams, lams[1:]))
            if trace.converged:
                converged_runs += 1
                _w, gx, gy, *_ = ball_grad_hess(mesh, frame, pos, params)
                assert math.hypot(gx, gy) < 1e-8
        assert converged_runs > 0  # the honesty clause is exercised


def test_criterion_6_boundary_smoother_exactness():
    with criterion(6, "boundary-smoother-exactness", 1.0):
        p0 = Point2(0.0, 0.2)
        out = smooth_boundary_node(
            BoundaryTriple(Point2(-1, 0), p0, Point2(1, 0)))
        assert out == p0

        out = smooth_boundary_node(
            BoundaryTriple(Point2(0, 0), Point2(0.5, 0), Point2(2, 0)))
        assert abs(out.x - 1.125) <= 1e-12
        assert abs(out.y) <= 1e-12

        xs = [0.0, 0.01, 0.02, 0.5, 0.52, 0.9, 0.97, 1.0]
        sweeps_needed = None
        for sweep in range(1, 201):
            for i in range(1, len(xs) - 1):
                xs[i] = smooth_boundary_node(
                    BoundaryTriple(Point2(xs[i - 1], 0), Point2(xs[i], 0),
                                   Point2(xs[i + 1], 0))).x
            worst = min(
                boundary_quality(BoundaryTriple(
                    Point2(xs[i - 1], 0), Point2(xs[i], 0),
                    Point2(xs[i + 1], 0)))
                for i in range(1, len(xs) - 1))
            if worst > 0.99:
                sweeps_needed = sweep
                break
        assert sweeps_needed is not None and sweeps_needed <= 200


def test_criterion_7_determinism_and_roundtrip(tmp_path):
    gen = [sys.executable, "-m", "osmot", "gen", "--kind", "patch32",
           "--seed", "1", "--distortion", "0.45"]
    subprocess.run(gen + ["--output", str(tmp_path / "in.mesh")],
                   check=True, capture_output=True)

    def invoke(tag: str):
        d = tmp_path / tag
        d.mkdir()
        cmd = [sys.executable, "-m", "osmot", "smooth",
               "--input", str(tmp_path / "in.mesh"),
               "--output", str(d / "out.mesh"),
               "--report", str(d / "report.csv"),
               "--svg-every", "5", "--svg-dir", str(d / "svg"),
               "--max-loops", "10"]
        subprocess.run(cmd, check=True, capture_output=True)
        return d

    with criterion(7, "determinism-and-roundtrip", 1.0):
        a = invoke("a")
        b = invoke("b")
        assert (a / "out.mesh").read_bytes() == (b / "out.mesh").read_bytes()
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        svgs_a = sorted(p.name for p in (a / "svg").iterdir())
        svgs_b = sorted(p.name for p in (b / "svg").iterdir())
        assert svgs_a == svgs_b and svgs_a
        for name in svgs_a:
            assert (a / "svg" / name).read_bytes() == \
                   (b / "svg" / name).read_bytes()

        for kind, seed, distortion in [
            (FixtureKind.PATCH32, 1, 0.45),
            (FixtureKind.GRADED_INTERFACE, 0, 0.0),
            (FixtureKind.HORSESHOE, 0, 0.0),
            (FixtureKind.INDENTED_BOX, 0, 0.6),
        ]:
            mesh = generate_fixture(kind, seed, distortion)
            path = tmp_path / f"{kind.value}.mesh"
            write_mesh(mesh, str(path))
            assert mesh_to_text(read_mesh(str(path))) == path.read_text()
