import dataclasses
from typing import get_args

import pytest

import osmot.driver
import osmot.mesh
from conftest import hexagon_fan, regular_hexagon_mesh, square_ring, synthetic_single_ball
from osmot.boundary import BoundaryTriple, smooth_boundary_node
from osmot.driver import (
    SmootherConfig,
    SmootherKind,
    laplacian_baseline_step,
    smooth,
)
from osmot.fixtures import FixtureKind, freeze_boundary, generate_fixture
from osmot.geometry import Point2, signed_area
from osmot.mesh import Mesh, Mobility, Node, boundary_neighbors, build_topology
from osmot.newton import StopReason
from osmot.objective import ObjectiveParams
from osmot.report import q2_histogram


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


def test_boundary_nodes_without_chain_id_smooth():
    # a hand-assembled mesh whose BOUNDARY nodes keep chain_id=None: the
    # boundary pass walks the chains it is given, so the run is that of the
    # same mesh with chain ids
    built = generate_fixture(FixtureKind.INDENTED_BOX, seed=1, distortion=0.45)
    bare = Mesh(nodes=[Node(n.id, n.mobility) for n in built.nodes],
                triangles=built.triangles, _positions=list(built._positions),
                stars=built.stars, balls=built.balls, chains=built.chains)
    assert any(n.mobility is Mobility.BOUNDARY for n in bare.nodes)
    assert all(n.chain_id is None for n in bare.nodes)
    result = smooth(bare, SmootherConfig())
    expected = smooth(built, SmootherConfig())
    assert result.relocations == expected.relocations > 0
    assert result.reports == expected.reports
    assert positions(bare) == positions(built)


def read_ids(mesh: Mesh, nid: int) -> list[int]:
    """The nodes whose positions the proposal and the guard of boundary
    node nid read: the node, its chain neighbours and its star."""
    ids = {nid, *boundary_neighbors(mesh, nid)}
    for _tid, n1, n2 in mesh.stars[nid]:
        ids |= {n1, n2}
    return sorted(ids)


@pytest.mark.parametrize("build", [
    lambda: build_topology(*hexagon_fan(ring_mobility=Mobility.BOUNDARY)),
    lambda: build_topology(*square_ring()),
    lambda: generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6),
], ids=["hexagon", "square", "indentedbox"])
def test_boundary_triples_are_the_chain_neighbors(monkeypatch, build):
    # every proposal gets the positions of boundary_neighbors' two ids at
    # call time, node by node in chain order, wrap ends included. Loop 1
    # proposes every movable node; a later loop proposes a node exactly
    # when a position it reads differs from that at its last proposal.
    # The boundary pass of a loop ends at its first Newton solve or at its
    # report, whichever comes first
    mesh = build()
    order = [nid for chain in mesh.chains for nid in chain.node_ids
             if mesh.nodes[nid].mobility is Mobility.BOUNDARY]
    reads = {nid: read_ids(mesh, nid) for nid in order}
    last = {}  # node -> the positions it read at its last proposal
    per_loop = []  # the nodes proposed in each loop
    state = {"loop": 0, "at": 0, "done": True}

    def read(nid):
        return [mesh.position(n) for n in reads[nid]]

    def reach(index):
        # the pass went past order[at:index] without proposing them
        for nid in order[state["at"]:index]:
            assert state["loop"] > 1 and read(nid) == last[nid], nid
        state["at"] = index

    def end_pass():
        if not state["done"]:
            reach(len(order))
            state["done"] = True

    relocate = osmot.driver.smooth_boundary_node
    solve = osmot.driver.optimize_ball
    report = osmot.driver.quality_report

    def proposed(triple):
        assert not state["done"]
        index = next(i for i in range(state["at"], len(order))
                     if mesh.position(order[i]) is triple.p0)
        reach(index)
        nid = order[index]
        prev_id, next_id = boundary_neighbors(mesh, nid)
        assert triple == BoundaryTriple(mesh.position(prev_id), mesh.position(nid),
                                        mesh.position(next_id))
        assert state["loop"] == 1 or read(nid) != last[nid], nid
        last[nid] = read(nid)
        per_loop[-1].append(nid)
        state["at"] = index + 1
        return relocate(triple)

    def solved(*args):
        end_pass()
        return solve(*args)

    def reported(*args):
        end_pass()
        per_loop.append([])
        state.update(loop=state["loop"] + 1, at=0, done=False)
        return report(*args)

    monkeypatch.setattr(osmot.driver, "smooth_boundary_node", proposed)
    monkeypatch.setattr(osmot.driver, "optimize_ball", solved)
    monkeypatch.setattr(osmot.driver, "quality_report", reported)
    result = smooth(mesh, SmootherConfig(i_max=3))
    assert per_loop[0] == order
    assert len(per_loop) == result.loops_run + 1


def test_boundary_pass_keeps_the_tracer_contract(monkeypatch):
    # perfbench/spans.py wraps these two names on the driver module; its
    # smooth_boundary_node hook reads args[0].p0, so each call passes one
    # positional BoundaryTriple. Loop 1 proposes every movable node, and a
    # later loop only those that a move since reached.
    # boundary_neighbors is no longer called, but must stay wrappable
    assert osmot.driver.boundary_neighbors is osmot.mesh.boundary_neighbors
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6)
    movable = sum(n.mobility is Mobility.BOUNDARY for n in mesh.nodes)
    calls = []
    relocate = osmot.driver.smooth_boundary_node

    def traced(*args, **kwargs):
        assert len(args) == 1 and not kwargs
        assert isinstance(args[0], BoundaryTriple)
        calls.append(args[0].p0)
        return relocate(*args)

    monkeypatch.setattr(osmot.driver, "smooth_boundary_node", traced)
    result = smooth(mesh, SmootherConfig(i_max=3))
    assert result.loops_run == 3
    assert movable < len(calls) < movable * result.loops_run


def flat_box():
    return generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.0)


def flat_box_with_one_chain_node_shifted():
    mesh = flat_box()
    movable = [nid for nid in mesh.chains[0].node_ids
               if mesh.nodes[nid].mobility is Mobility.BOUNDARY]
    nid = movable[len(movable) // 2]
    p, q = mesh.position(nid), mesh.position(movable[len(movable) // 2 + 1])
    mesh.set_position(nid, Point2(p.x + 0.25 * (q.x - p.x), p.y + 0.25 * (q.y - p.y)))
    return mesh


@pytest.mark.parametrize("build", [flat_box, flat_box_with_one_chain_node_shifted],
                         ids=["fixpoint", "one-shifted"])
def test_unmoved_boundary_node_counts_the_same_as_an_equal_copy(monkeypatch, build):
    # the boundary pass compares coordinates, so a relocation that hands
    # back the node's own Point2 and one that hands back an equal but
    # distinct Point2 give the same run: the same relocations, early exit
    # and positions
    def run(relocate):
        mesh = build()
        monkeypatch.setattr(osmot.driver, "smooth_boundary_node", relocate)
        return smooth(mesh, SmootherConfig(i_max=5)), positions(mesh)

    unmoved = []

    def counted(triple):
        new_pos = smooth_boundary_node(triple)
        unmoved.append(new_pos is triple.p0)
        return new_pos

    def copied(triple):
        new_pos = smooth_boundary_node(triple)
        return Point2(new_pos.x, new_pos.y) if new_pos is triple.p0 else new_pos

    expected, expected_positions = run(counted)
    result, result_positions = run(copied)
    assert result.relocations == expected.relocations
    assert result.early_exit_loop == expected.early_exit_loop
    assert result.reports == expected.reports
    assert result_positions == expected_positions
    assert any(unmoved)
    if build is flat_box:
        # every call hands back p0, so the first loop exits early
        assert all(unmoved) and result.relocations == 0
        assert result.early_exit_loop == 1
    else:
        assert not all(unmoved) and result.relocations > 0


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
    totals = []
    result = smooth(mesh, SmootherConfig(i_max=10),
                    on_loop=lambda loop, m: totals.append(sum(q2_histogram(m))))
    for rep in result.reports:
        assert rep.min_q2 <= rep.mean_q2 + 1e-15
    assert totals == [len(mesh.triangles)] * len(result.reports)
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


def test_newton_stop_does_not_depend_on_the_objective_scale():
    # a uniform r_ref multiplies every w by r_ref^-beta, so the minimiser,
    # and the mesh the smoother reaches, cannot depend on it
    final = []
    for r_ref in (1.0, 1e9):
        mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
        result = smooth(mesh, SmootherConfig(
            i_max=3, objective=ObjectiveParams(r_ref=r_ref)))
        final.append(result.reports[-1].min_q2)
    assert abs(final[0] - final[1]) <= 1e-3, final


@pytest.mark.parametrize("exponent", [-50, -200, 100])
def test_a_run_does_not_depend_on_the_mesh_scale(exponent):
    # scaling by a power of two is exact, and at beta = 1 it leaves every
    # gradient norm as it is, so a run on the scaled indented box makes the
    # unit-scale moves, stops and reports (min q1 scaled by 1/k); the
    # boundary pass's coincidence test is relative, so no movable node of
    # a tiny mesh is skipped
    k = 2.0 ** exponent
    unit = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6)
    mesh = build_topology([n.mobility for n in unit.nodes],
                          [Point2(k * x, k * y) for x, y in positions(unit)],
                          list(unit.triangles))
    cfg = SmootherConfig(i_max=10)
    expected, result = smooth(unit, cfg), smooth(mesh, cfg)
    assert result.skipped == expected.skipped == []
    assert result.relocations == expected.relocations
    assert result.stop_reasons == expected.stop_reasons
    assert [dataclasses.replace(r, min_q1=r.min_q1 * k)
            for r in result.reports] == expected.reports
    assert [(x / k, y / k) for x, y in positions(mesh)] == positions(unit)


@pytest.mark.xfail(strict=True, reason=(
    "the gradient test |grad w| < EPS is absolute: scaling the lengths "
    "by k scales every gradient by 1/k, so a large mesh stops early"))
def test_newton_stop_does_not_depend_on_the_length_scale():
    # with r_ref scaled alike, w is the same function of the scaled mesh,
    # so the run should make the unit-scale moves; today the indented box
    # scaled by 2^100 stops every solve as converged at once and ends at
    # min q2 0.183 after 33 relocations, against 0.403 after 141
    k = 2.0 ** 100
    unit = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6)
    mesh = build_topology([n.mobility for n in unit.nodes],
                          [Point2(k * x, k * y) for x, y in positions(unit)],
                          list(unit.triangles))
    expected = smooth(unit, SmootherConfig(i_max=10))
    result = smooth(mesh, SmootherConfig(
        i_max=10, objective=ObjectiveParams(r_ref=k)))
    assert result.relocations == expected.relocations
    assert result.reports[-1].min_q2 == pytest.approx(
        expected.reports[-1].min_q2, abs=1e-3)


@pytest.mark.xfail(strict=True, reason=(
    "the gradient test |grad w| < EPS is absolute: a larger w meets it "
    "sooner, and at beta = 400 every ball of this mesh starts below it"))
def test_newton_work_does_not_depend_on_the_objective_scale(monkeypatch):
    # the direction does not depend on the scale of w, so neither should
    # the solve's stop: the same mesh takes about as many Newton iterations
    # at every uniform r_ref (132 at r_ref = 1 and 65 at 1e9 today), and
    # a steep objective still moves the nodes of a distorted patch
    iterations = []
    solve = osmot.driver.optimize_ball

    def counted(*args):
        pos, trace = solve(*args)
        iterations[-1] += trace.iterations
        return pos, trace

    monkeypatch.setattr(osmot.driver, "optimize_ball", counted)
    for r_ref in (1.0, 1e9):
        iterations.append(0)
        mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
        smooth(mesh, SmootherConfig(
            i_max=3, objective=ObjectiveParams(r_ref=r_ref)))
    iterations.append(0)  # the steep run counts into a slot of its own
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    steep = smooth(mesh, SmootherConfig(objective=ObjectiveParams(beta=400.0)))
    assert abs(iterations[0] - iterations[1]) <= 0.1 * iterations[0], iterations
    assert steep.relocations > 0
