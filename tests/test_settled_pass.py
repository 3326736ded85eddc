"""The boundary pass that skips settled nodes runs as one that proposes
every movable node in every loop.

Within one ``smooth`` call, a movable boundary node is skipped while the
positions its proposal and guard read (its own and those of its star)
equal the ones its last proposal read, if that proposal moved nothing.
The reference is a run that never settles: every read compares unequal
to the memo, and the run is checked to propose every movable node in
every loop. Runs cut after each loop must agree with it on the
positions, relocations, skipped nodes, reports, stop reasons and early
exit, on open and closed chains, under both smoother kinds, with
coincident chain neighbours, and over rounds of a die pressed into the
indented box between ``smooth`` calls. An ``on_loop`` callback is
watched like any other writer: a node is proposed after it only if a
position it reads has changed.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter

import pytest

import osmot.driver
from conftest import hexagon_fan, square_ring
from osmot.boundary import smooth_boundary_node
from osmot.driver import RunReport, SmootherConfig, SmootherKind, smooth
from osmot.fixtures import FixtureKind, generate_fixture
from osmot.geometry import Point2
from osmot.mesh import Mesh, Mobility, build_topology
from osmot.report import quality_report

LOOPS = 6
# the middle of the indented box's movable chain, lowered between rounds
DIE_IDS = (39, 40, 41)


def horseshoe_ring() -> Mesh:
    """The horseshoe fixture with its chevron ring movable: a closed chain
    around a non-convex ball."""
    mesh = generate_fixture(FixtureKind.HORSESHOE)
    mobility = [Mobility.INTERNAL] + [Mobility.BOUNDARY] * (len(mesh.nodes) - 1)
    return build_topology(mobility, list(mesh._positions), list(mesh.triangles))


def pinched_square() -> Mesh:
    """The square ring with node 1 and both its chain neighbours at one
    point: node 1 raises CoincidentNeighborsError in every loop."""
    mesh = build_topology(*square_ring())
    prev_id, next_id = osmot.driver.boundary_neighbors(mesh, 1)
    for nid in (prev_id, next_id):
        mesh.set_position(nid, mesh.position(1))
    return mesh


MESHES = {
    "indentedbox-0.3": lambda: generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.3),
    "indentedbox-0.6": lambda: generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6),
    "indentedbox-0.9": lambda: generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.9),
    "horseshoe": horseshoe_ring,
    "hexagon": lambda: build_topology(*hexagon_fan(ring_mobility=Mobility.BOUNDARY)),
    "square": lambda: build_topology(*square_ring()),
    "pinched-square": pinched_square,
}
CONFIGS = {
    "default": SmootherConfig(),
    "reflag": SmootherConfig(reflag_each_loop=True),
    "laplacian": SmootherConfig(smoother_kind=SmootherKind.LAPLACIAN),
    "no-early-exit": SmootherConfig(early_exit=False),
}


def outcome(mesh: Mesh, result) -> tuple:
    return (list(mesh._positions), result.relocations, result.skipped,
            result.reports, result.stop_reasons, result.loops_run,
            result.early_exit_loop)


def proposals_per_loop(monkeypatch, mesh: Mesh, cfg: SmootherConfig, on_loop=None
                       ) -> tuple[RunReport, list[list[tuple[int, object]]]]:
    """The run's report, and the (node id, triple) of every boundary
    proposal of the run, per loop; each report opens the next loop's list.
    A node is found by its position, so of coincident nodes the first in
    id order is named."""
    movable = [nid for nid, node in enumerate(mesh.nodes)
               if node.mobility is Mobility.BOUNDARY]
    per_loop: list[list[tuple[int, object]]] = []

    def proposed(triple):
        nid = next(n for n in movable if mesh.position(n) is triple.p0)
        per_loop[-1].append((nid, triple))
        return smooth_boundary_node(triple)

    def reported(*args):
        per_loop.append([])
        return quality_report(*args)

    monkeypatch.setattr(osmot.driver, "smooth_boundary_node", proposed)
    monkeypatch.setattr(osmot.driver, "quality_report", reported)
    result = smooth(mesh, cfg, on_loop)
    return result, per_loop[:-1]


class Unequal(tuple):
    """Read positions that equal nothing, their own memo included."""

    def __eq__(self, other):
        return False

    __hash__ = tuple.__hash__


def never_settling(*ids):
    """A stand-in for the driver's per-node ``itemgetter`` whose reads
    never equal a memo, so no node settles."""
    get = itemgetter(*ids)
    return lambda positions: Unequal(get(positions))


def run(mesh: Mesh, cfg: SmootherConfig, settle: bool) -> tuple:
    """Smooth the mesh; without ``settle``, as a run that never settles,
    which must propose every movable node in every loop it runs."""
    if settle:
        return outcome(mesh, smooth(mesh, cfg))
    movable = sum(node.mobility is Mobility.BOUNDARY for node in mesh.nodes)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(osmot.driver, "itemgetter", never_settling)
        result, per_loop = proposals_per_loop(monkeypatch, mesh, cfg)
    assert [len(proposals) for proposals in per_loop] == [movable] * result.loops_run
    return outcome(mesh, result)


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("name", list(MESHES))
def test_skipping_settled_nodes_changes_nothing(name, config):
    build = MESHES[name]
    for i_max in range(1, LOOPS + 1):
        cfg = dataclasses.replace(CONFIGS[config], i_max=i_max)
        assert run(build(), cfg, True) == run(build(), cfg, False), i_max


def test_coincident_neighbours_are_skipped_in_every_loop():
    result = smooth(pinched_square(), SmootherConfig(i_max=4, early_exit=False))
    coincident = [nid for nid, reason in result.skipped
                  if reason == "coincident-neighbors"]
    assert coincident == [1] * result.loops_run


@pytest.mark.parametrize("config", ["default", "laplacian"])
def test_die_rounds_skip_nothing_that_moves(config):
    # the die nodes are moved between smooth calls, as the rezone workload
    # moves its die: each call starts with every node unsettled
    meshes = {settle: generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6)
              for settle in (True, False)}
    cfg = dataclasses.replace(CONFIGS[config], i_max=4)
    for _round in range(4):
        outcomes = []
        for settle, mesh in meshes.items():
            for nid in DIE_IDS:
                p = mesh.position(nid)
                mesh.set_position(nid, Point2(p.x, p.y - 0.05))
            outcomes.append(run(mesh, cfg, settle))
        assert outcomes[0] == outcomes[1]


def test_a_no_op_callback_reproposes_nothing(monkeypatch):
    # the square ring is a fixpoint: every node settles in loop 1, and a
    # callback that moves nothing leaves every read as it was, so loop 2
    # proposes none
    mesh = build_topology(*square_ring())
    cfg = SmootherConfig(i_max=2, early_exit=False)
    _result, per_loop = proposals_per_loop(
        monkeypatch, mesh, cfg, lambda _loop, _mesh: None)
    assert [nid for nid, _triple in per_loop[0]] == list(mesh.chains[0].node_ids)
    assert per_loop[1] == []


def test_a_callback_that_moves_a_chain_neighbour_reproposes_the_node(monkeypatch):
    # the square ring is a fixpoint, so with no move loop 2 proposes no
    # node. A callback that moves node 1's next chain neighbour after loop
    # 1 makes loop 2 propose node 1 with that neighbour's new position
    cfg = SmootherConfig(i_max=2, early_exit=False)
    mesh = build_topology(*square_ring())
    order = list(mesh.chains[0].node_ids)
    _prev_id, next_id = osmot.driver.boundary_neighbors(mesh, 1)
    p = mesh.position(next_id)
    shifted = Point2(p.x * 1.25, p.y * 1.25)

    def push(loop, mesh_):
        if loop == 1:
            mesh_.set_position(next_id, shifted)

    _result, pushed = proposals_per_loop(monkeypatch, mesh, cfg, push)
    assert [nid for nid, _triple in pushed[0]] == order
    assert [triple.p2 for nid, triple in pushed[1] if nid == 1] == [shifted]
