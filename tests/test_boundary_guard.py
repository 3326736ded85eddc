"""A guarded boundary move never leaves its star worse.

The driver relocates each movable boundary node along the quadratic
through its chain neighbours, then shortens the move (halving the
natural coordinate) until no triangle of the node's star is degenerate
or inverted and the star's minimum radius ratio is not below its value
before the move, or refuses it. These tests watch every boundary move a
run makes, at every distortion of the indented box, and check the
deep-notch runs that an unguarded move left with an inverted element.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import osmot.driver
from conftest import hexagon_fan
from osmot.boundary import GUARD_HALVINGS, curve_point, natural_coordinate
from osmot.driver import SmootherConfig, smooth
from osmot.fixtures import FixtureKind, generate_fixture
from osmot.geometry import Point2, degenerate_area_eps, signed_area, triangle_geometry
from osmot.mesh import Mesh, Mobility, build_topology, star_min_q2
from osmot.quality import q2_shape


def star_state(mesh: Mesh, nid: int, p: Point2) -> tuple[float, bool]:
    """The star's min q2 with node nid at p, from ``triangle_geometry`` and
    ``q2_shape`` in each triangle's own vertex order, the quality table's;
    and whether every star triangle has a signed area above its degeneracy
    threshold."""
    q2s, valid = [], True
    for tid, _n1, _n2 in mesh.stars[nid]:
        points = [p if n == nid else mesh.position(n)
                  for n in mesh.triangles[tid].nodes]
        geom = triangle_geometry(*points)
        q2s.append(q2_shape(geom))
        valid &= signed_area(*points) > degenerate_area_eps(geom.a, geom.b, geom.c)
    return min(q2s), valid


def watch_boundary_moves(monkeypatch, mesh: Mesh) -> list[tuple]:
    """Record (node, min q2 before, min q2 after, valid after) for every
    move of a movable boundary node, at the moment it is written."""
    moves = []
    write = Mesh.set_position

    def watched(self, node_id, p):
        if self is mesh and mesh.nodes[node_id].mobility is Mobility.BOUNDARY:
            before, _ = star_state(mesh, node_id, mesh.position(node_id))
            after, valid = star_state(mesh, node_id, p)
            moves.append((node_id, before, after, valid))
        write(self, node_id, p)

    monkeypatch.setattr(Mesh, "set_position", watched)
    return moves


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.95))
@example(0.9)
@example(0.95)
def test_no_guarded_move_lowers_its_star(distortion):
    with pytest.MonkeyPatch.context() as monkeypatch:
        mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=distortion)
        moves = watch_boundary_moves(monkeypatch, mesh)
        smooth(mesh, SmootherConfig(i_max=4))
    for nid, before, after, valid in moves:
        assert valid, (nid, after)
        assert after >= before, (nid, before, after)


@pytest.mark.parametrize("distortion", [0.9, 0.95])
def test_deep_notch_ends_no_worse(distortion):
    # unguarded, the movable chain over a deep notch inverted an element
    # and lowered min q2, and the interior nodes next to it were skipped
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=distortion)
    result = smooth(mesh, SmootherConfig(i_max=10))
    first, last = result.reports[0], result.reports[-1]
    assert last.min_q2 >= first.min_q2
    assert all(r.inverted_elements == 0 for r in result.reports)
    assert result.skipped == []


def test_the_guard_keeps_shortens_and_refuses_moves(monkeypatch):
    # a run over the indented box proposes moves of all three kinds: the
    # guard returns the proposed move itself, the curve point at xi / 2^k
    # for the smallest k in 1..12 that passes, or the old position
    outcomes = {"kept": 0, "shortened": 0, "refused": 0}
    guard = osmot.driver.guard_boundary_move

    def watched(triple, proposed, mesh, nid):
        guarded = guard(triple, proposed, mesh, nid)
        (x1, y1), (x0, y0), (x2, y2) = triple
        before = star_min_q2(mesh, nid, x0, y0)
        if guarded is proposed:
            outcomes["kept"] += 1
        elif guarded is triple.p0:
            outcomes["refused"] += 1
        else:
            outcomes["shortened"] += 1
            xi = natural_coordinate(x1, y1, x0, y0, x2, y2)
            halved = [curve_point(x1, y1, x0, y0, x2, y2, xi / 2.0 ** k)
                      for k in range(1, GUARD_HALVINGS + 1)]
            scores = [star_min_q2(mesh, nid, *p) for p in halved]
            passes = [q > 0.0 and q >= before for q in scores]
            assert guarded == halved[passes.index(True)]
        after = star_min_q2(mesh, nid, *guarded)
        assert after >= before
        return guarded

    monkeypatch.setattr(osmot.driver, "guard_boundary_move", watched)
    smooth(generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.3),
           SmootherConfig(i_max=10))
    assert all(outcomes.values()), outcomes


def test_star_min_q2_matches_the_quality_helpers():
    # the guard scores each star triangle in its own vertex order, so it
    # reads the quality table's bits, not those of a rotation of them
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6)
    table = mesh.quality_table()
    for nid in range(len(mesh.nodes)):
        p = mesh.position(nid)
        q2, valid = star_state(mesh, nid, p)
        assert valid
        assert star_min_q2(mesh, nid, *p) == q2
        assert q2 == min(table.q2[tid] for tid, _n1, _n2 in mesh.stars[nid])
    # a position that inverts a star triangle scores 0
    nid = mesh.chains[0].node_ids[1]
    p = mesh.position(nid)
    assert star_min_q2(mesh, nid, p.x, p.y - 10.0) == 0.0


def test_the_hexagon_ring_ends_no_worse_as_the_table_scores_it():
    # scored as (node, n1, n2), a rotation of each triangle's own order,
    # the ring's guard let node 4 lower its star's minimum by one ulp as
    # the table scores it, and the run ended below the q2 it started at
    mesh = build_topology(*hexagon_fan(ring_mobility=Mobility.BOUNDARY))
    result = smooth(mesh, SmootherConfig())
    assert result.relocations > 0
    assert result.reports[-1].min_q2 >= result.reports[0].min_q2
