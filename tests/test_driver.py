from typing import get_args

import pytest

import osmot.driver
from conftest import regular_hexagon_mesh, synthetic_single_ball
from osmot.driver import (
    SmootherConfig,
    SmootherKind,
    laplacian_baseline_step,
    smooth,
)
from osmot.fixtures import FixtureKind, freeze_boundary, generate_fixture
from osmot.geometry import Point2, signed_area
from osmot.mesh import Mobility
from osmot.newton import StopReason


def positions(mesh):
    return [(p.x, p.y) for p in map(mesh.position, range(len(mesh.nodes)))]


def test_optimal_mesh_is_a_fixpoint():
    mesh = generate_fixture(FixtureKind.PATCH32)
    before = positions(mesh)
    result = smooth(mesh, SmootherConfig(i_max=10))
    assert result.relocations == 0
    assert positions(mesh) == before
    assert result.early_exit_loop == 1
    assert len(result.reports) <= 11


def test_symmetric_movable_boundary_is_a_fixpoint():
    # flat box: the movable top chain is evenly spaced, the interior is
    # optimal, so nothing moves and the first loop triggers the early exit
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.0)
    assert any(n.mobility is Mobility.BOUNDARY for n in mesh.nodes)
    before = positions(mesh)
    result = smooth(mesh, SmootherConfig(i_max=10))
    assert result.relocations == 0
    assert positions(mesh) == before


def test_zero_loops_records_only_initial_state():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    before = positions(mesh)
    result = smooth(mesh, SmootherConfig(i_max=0))
    assert len(result.reports) == 1
    assert result.reports[0].loop == 0
    assert positions(mesh) == before


def test_patch_recovers_quality():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    result = smooth(mesh, SmootherConfig(i_max=10))
    assert result.reports[-1].min_q2 >= 0.80
    # min quality never decreases across loops (plateaus allowed)
    mins = [r.min_q2 for r in result.reports]
    assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))


def test_connectivity_immutable_during_smoothing():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=2, distortion=0.4)
    key = mesh.connectivity_key()
    smooth(mesh, SmootherConfig(i_max=5))
    assert mesh.connectivity_key() == key


def test_determinism_bitwise():
    runs = []
    for _ in range(2):
        mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
        smooth(mesh, SmootherConfig(i_max=10))
        runs.append(positions(mesh))
    assert runs[0] == runs[1]


def test_idempotence_after_convergence():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    smooth(mesh, SmootherConfig(i_max=200))
    settled = positions(mesh)
    again = smooth(mesh, SmootherConfig(i_max=5))
    assert again.relocations == 0
    assert again.early_exit_loop == 1
    assert positions(mesh) == settled


def test_laplacian_step_hexagon_center():
    mesh = regular_hexagon_mesh(center=Point2(0.2, 0.1))
    out = laplacian_baseline_step(mesh, 0)
    assert out.x == pytest.approx(0.0, abs=1e-15)
    assert out.y == pytest.approx(0.0, abs=1e-15)


def test_laplacian_step_two_neighbors_midpoint():
    mesh = synthetic_single_ball(Point2(0.7, 0.9),
                                 [Point2(0, 0), Point2(2, 0)])
    assert laplacian_baseline_step(mesh, 0) == Point2(1.0, 0.0)


def test_laplacian_inverts_horseshoe_but_optimizer_does_not():
    mesh = generate_fixture(FixtureKind.HORSESHOE)
    target = laplacian_baseline_step(mesh, 0)
    mesh.set_position(0, target)
    assert any(
        signed_area(*mesh.triangle_points(t)) <= 0.0 for t in mesh.triangles)

    mesh2 = generate_fixture(FixtureKind.HORSESHOE)
    result = smooth(mesh2, SmootherConfig(i_max=10))
    assert all(r.inverted_elements == 0 for r in result.reports)
    assert all(
        signed_area(*mesh2.triangle_points(t)) > 0.0 for t in mesh2.triangles)


def test_laplacian_under_driver_inverts_horseshoe():
    mesh = generate_fixture(FixtureKind.HORSESHOE)
    cfg = SmootherConfig(i_max=3, smoother_kind=SmootherKind.LAPLACIAN)
    result = smooth(mesh, cfg)
    assert any(r.inverted_elements > 0 for r in result.reports)


def test_stability_on_frozen_fixtures():
    for kind, distortion in [(FixtureKind.HORSESHOE, 0.0),
                             (FixtureKind.INDENTED_BOX, 0.6)]:
        mesh = freeze_boundary(generate_fixture(kind, distortion=distortion))
        result = smooth(mesh, SmootherConfig(i_max=10))
        assert all(r.inverted_elements == 0 for r in result.reports)
        assert result.reports[-1].min_q2 >= result.reports[0].min_q2 - 1e-12


def test_boundary_pass_moves_movable_chain():
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6)
    chain = mesh.chains[0]
    before = [mesh.position(nid) for nid in chain.node_ids]
    smooth(mesh, SmootherConfig(i_max=3))
    after = [mesh.position(nid) for nid in chain.node_ids]
    moved = [
        nid for nid, b, a in zip(chain.node_ids, before, after) if a != b
    ]
    movable = [
        nid for nid in chain.node_ids
        if mesh.nodes[nid].mobility is Mobility.BOUNDARY
    ]
    assert moved  # the deep notch is not an equal-distance fixpoint
    assert set(moved) <= set(movable)


def test_skipped_node_reported_on_degenerate_start():
    mesh = regular_hexagon_mesh()
    # collapse the ball vertex onto a ring node: flagged and unoptimizable
    mesh.set_position(0, Point2(1.0, 0.0))
    result = smooth(mesh, SmootherConfig(i_max=2))
    assert (0, "degenerate-start") in result.skipped
    assert mesh.position(0) == Point2(1.0, 0.0)


def test_reflag_each_loop_stops_at_acceptable_quality():
    # re-flagging releases nodes as soon as their elements pass the check,
    # so the run settles at "everything acceptable", not at the optimum
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    result = smooth(mesh, SmootherConfig(i_max=50, reflag_each_loop=True))
    assert result.reports[-1].min_q2 >= 0.6
    assert result.reports[-1].flagged_elements == 0
    assert result.early_exit_loop is not None


def test_general_exponents_smooth_run():
    # non-default exponents go through the same exact derivative kernel
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    from osmot.objective import ObjectiveParams
    cfg = SmootherConfig(i_max=5,
                         objective=ObjectiveParams(beta=2.0, gamma=4.0))
    result = smooth(mesh, cfg)
    assert result.reports[-1].min_q2 > result.reports[0].min_q2
    assert result.reports[-1].inverted_elements == 0


def test_no_early_exit_runs_all_loops():
    mesh = generate_fixture(FixtureKind.PATCH32)
    result = smooth(mesh, SmootherConfig(i_max=7, early_exit=False))
    assert result.loops_run == 7
    assert len(result.reports) == 8


def test_report_invariants():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    result = smooth(mesh, SmootherConfig(i_max=10))
    for rep in result.reports:
        assert rep.min_q2 <= rep.mean_q2 + 1e-15
        assert sum(rep.histogram) == len(mesh.triangles)
    assert result.wall_time >= 0.0


def test_on_loop_callback_sees_every_recorded_loop():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    seen = []
    result = smooth(mesh, SmootherConfig(i_max=4, early_exit=False),
                    on_loop=lambda loop, m: seen.append(loop))
    assert seen == [r.loop for r in result.reports] == [0, 1, 2, 3, 4]


def test_stop_reasons_count_every_newton_solve(monkeypatch):
    solves = []
    solve = osmot.driver.optimize_ball

    def counted(*args):
        solves.append(args[1].vertex)
        return solve(*args)

    monkeypatch.setattr(osmot.driver, "optimize_ball", counted)
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    result = smooth(mesh, SmootherConfig(i_max=3))
    # every reason is a key, in the order StopReason declares them
    assert list(result.stop_reasons) == list(get_args(StopReason))
    assert sum(result.stop_reasons.values()) == len(solves) > 0
    assert not result.skipped


def test_laplacian_run_counts_no_newton_solve():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    result = smooth(mesh, SmootherConfig(
        i_max=2, smoother_kind=SmootherKind.LAPLACIAN))
    assert result.relocations > 0
    assert set(result.stop_reasons.values()) == {0}
