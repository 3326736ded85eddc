import math

import pytest

from osmot.fixtures import FixtureKind, freeze_boundary, generate_fixture
from osmot.geometry import Point2, signed_area
from osmot.mesh import (
    InconsistentMobilityError,
    InvertedElementError,
    MeshError,
    Mobility,
    NonManifoldError,
    NotBoundaryError,
    OrphanNodeError,
    TangledBallError,
    Triangle,
    boundary_neighbors,
    build_topology,
    flag_nodes,
)
from osmot.meshio import ValidationError, mesh_to_text, parse_mesh_text
from osmot.quality import QualityConfig

from conftest import hand_written_text, hexagon_fan, square_ring, wound_fan


def single_triangle(mobility=Mobility.FIXED):
    positions = [Point2(0, 0), Point2(1, 0), Point2(0, 1)]
    return [mobility] * 3, positions, [Triangle(0, (0, 1, 2))]


def test_single_triangle_all_fixed():
    mesh = build_topology(*single_triangle())
    assert mesh.balls == {}
    assert mesh.chains == []


def test_patch_interior_balls():
    mesh = generate_fixture(FixtureKind.PATCH32)
    assert len(mesh.balls) == 9
    sizes = sorted(len(b.elements) for b in mesh.balls.values())
    assert set(sizes) <= {4, 6, 8}
    assert sizes == [4, 4, 4, 4, 8, 8, 8, 8, 8]


def test_ball_coverage():
    mesh = generate_fixture(FixtureKind.PATCH32)
    # every triangle appears once per internal vertex it owns
    counts = {}
    for ball in mesh.balls.values():
        for tid, _n1, _n2 in ball.elements:
            counts[tid] = counts.get(tid, 0) + 1
    for tri in mesh.triangles:
        internal = sum(
            1 for nid in tri.nodes
            if mesh.nodes[nid].mobility is Mobility.INTERNAL
        )
        assert counts.get(tri.id, 0) == internal


def cyclic_rotations(tri):
    return tri, tri[1:] + tri[:1], tri[2:] + tri[:2]


def test_ball_rotation_puts_vertex_first():
    mesh = generate_fixture(FixtureKind.PATCH32)
    for ball in mesh.balls.values():
        tids = [tid for tid, _n1, _n2 in ball.elements]
        assert tids == sorted(tids)
        for tid, n1, n2 in ball.elements:
            tri = mesh.triangles[tid].nodes
            rotated = (ball.vertex, n1, n2)
            assert rotated in cyclic_rotations(tri)
            # cyclic rotation preserves the signed area; on the dyadic
            # lattice coordinates this is bit-exact
            pts = [mesh.position(n) for n in tri]
            rpts = [mesh.position(n) for n in rotated]
            assert signed_area(*rpts) == signed_area(*pts)


def test_ball_rotation_sign_on_distorted_mesh():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=3, distortion=0.4)
    for ball in mesh.balls.values():
        for tid, n1, n2 in ball.elements:
            tri = mesh.triangles[tid].nodes
            rotated = (ball.vertex, n1, n2)
            assert rotated in cyclic_rotations(tri)
            pts = [mesh.position(n) for n in tri]
            rpts = [mesh.position(n) for n in rotated]
            a0 = signed_area(*pts)
            a1 = signed_area(*rpts)
            assert a1 > 0.0
            assert a1 == pytest.approx(a0, rel=1e-12)


def test_closed_chain_on_hexagon():
    mesh = build_topology(*hexagon_fan(ring_mobility=Mobility.BOUNDARY))
    assert len(mesh.chains) == 1
    chain = mesh.chains[0]
    assert chain.closed
    assert sorted(chain.node_ids) == [1, 2, 3, 4, 5, 6]
    prev_id, next_id = boundary_neighbors(mesh, chain.node_ids[2])
    assert prev_id == chain.node_ids[1]
    assert next_id == chain.node_ids[3]
    first_prev, first_next = boundary_neighbors(mesh, chain.node_ids[0])
    assert first_prev == chain.node_ids[-1]
    assert first_next == chain.node_ids[1]


def test_open_chain_neighbors():
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.5)
    assert len(mesh.chains) == 1
    chain = mesh.chains[0]
    assert not chain.closed
    for nid in chain.node_ids[1:-1]:
        idx = chain.node_ids.index(nid)
        assert boundary_neighbors(mesh, nid) == (
            chain.node_ids[idx - 1], chain.node_ids[idx + 1])
    # endpoints are fixed and refuse the query
    with pytest.raises(NotBoundaryError):
        boundary_neighbors(mesh, chain.node_ids[0])


@pytest.mark.parametrize("build", [
    lambda: generate_fixture(FixtureKind.PATCH32, 1, 0.45),
    lambda: generate_fixture(FixtureKind.GRADED_INTERFACE),
    lambda: generate_fixture(FixtureKind.HORSESHOE),
    lambda: generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.5),
    lambda: build_topology(*hexagon_fan(ring_mobility=Mobility.BOUNDARY)),
], ids=["patch32", "graded", "horseshoe", "indentedbox", "hexagon"])
def test_chain_covers_every_boundary_edge(build):
    # boundary edges counted without direction, independently of the
    # directed-edge derivation in build_topology
    mesh = build()
    edge_use = {}
    for tri in mesh.triangles:
        a, b, c = tri.nodes
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            edge_use[key] = edge_use.get(key, 0) + 1
    boundary_edges = {k for k, n in edge_use.items() if n == 1}
    chain_edges = set()
    for chain in mesh.chains:
        ids = chain.node_ids + (chain.node_ids[0],) if chain.closed else chain.node_ids
        for u, v in zip(ids, ids[1:]):
            chain_edges.add((min(u, v), max(u, v)))
    # chains cover exactly the boundary edges that touch a movable node
    movable = {
        n.id for n in mesh.nodes if n.mobility is Mobility.BOUNDARY
    }
    touching = {e for e in boundary_edges if movable & set(e)}
    assert touching <= chain_edges <= boundary_edges
    # every movable boundary node sits in exactly one chain
    for nid in movable:
        owners = [c for c in mesh.chains if nid in c.node_ids]
        assert len(owners) == 1
        assert mesh.nodes[nid].chain_id == owners[0].chain_id


def test_single_fixed_node_loop_chain():
    # a boundary loop with exactly one fixed node yields one open chain
    # that starts and ends at that node
    mobility, positions, triangles = hexagon_fan(ring_mobility=Mobility.BOUNDARY)
    mobility[3] = Mobility.FIXED
    mesh = build_topology(mobility, positions, triangles)
    assert len(mesh.chains) == 1
    chain = mesh.chains[0]
    assert not chain.closed
    assert chain.node_ids[0] == 3 and chain.node_ids[-1] == 3
    assert len(chain.node_ids) == 7
    first_movable = chain.node_ids[1]
    prev_id, _next = boundary_neighbors(mesh, first_movable)
    assert prev_id == 3


def test_not_boundary_error_for_internal():
    mesh = build_topology(*hexagon_fan())
    with pytest.raises(NotBoundaryError):
        boundary_neighbors(mesh, 0)


def test_nonmanifold_edge_rejected():
    # CCW triangles stacked on the same side of one edge all use it in the
    # same direction, which no manifold, consistently oriented mesh does
    positions = [Point2(0, 0), Point2(1, 0), Point2(0.5, 1), Point2(0.5, 2),
                 Point2(0.5, 3)]
    triangles = [
        Triangle(0, (0, 1, 2)),
        Triangle(1, (0, 1, 3)),
        Triangle(2, (0, 1, 4)),
    ]
    for n_stacked in (2, 3):
        with pytest.raises(NonManifoldError, match=r"directed edge \(0, 1\)"):
            build_topology([Mobility.FIXED] * (n_stacked + 2),
                           positions[:n_stacked + 2], triangles[:n_stacked])


def test_pinched_boundary_vertex_rejected():
    # two triangles meeting only at node 0: it starts two boundary edges
    positions = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(-1, 0),
                 Point2(-1, -1)]
    triangles = [Triangle(0, (0, 1, 2)), Triangle(1, (0, 3, 4))]
    with pytest.raises(NonManifoldError, match="node 0 has more than one"):
        build_topology([Mobility.FIXED] * 5, positions, triangles)


def test_doubly_wound_ball_rejected():
    # test_node_fault_names_the_node checks the node and the file line of
    # both fans; these two check the winding reported
    with pytest.raises(TangledBallError) as err:
        build_topology(*wound_fan(Mobility.INTERNAL))
    assert err.value.winding == 2


def test_doubly_wound_fixed_centre_rejected():
    # node 0 starts no boundary edge, so its star is checked like an
    # internal node's ball
    with pytest.raises(TangledBallError) as err:
        build_topology(*wound_fan(Mobility.FIXED))
    assert err.value.winding == 2


def test_fixed_interior_node_loads():
    # pinning internal nodes of a valid mesh keeps it valid: their stars
    # wind once, and they leave the balls
    mesh = generate_fixture(FixtureKind.PATCH32, 1, 0.45)
    pinned = sorted(mesh.balls)[::2]
    mobility = [Mobility.FIXED if n.id in pinned else n.mobility
                for n in mesh.nodes]
    positions = [mesh.position(n.id) for n in mesh.nodes]
    rebuilt = build_topology(mobility, positions, mesh.triangles)
    assert sorted(rebuilt.balls) == sorted(set(mesh.balls) - set(pinned))


def test_inverted_element_rejected():
    mobility, positions, triangles = single_triangle()
    positions[1], positions[2] = Point2(0, 1), Point2(1, 0)
    with pytest.raises(InvertedElementError) as err:
        build_topology(mobility, positions, triangles)
    assert "triangle 0" in str(err.value)


def with_orphan(mobility, positions, triangles):
    return mobility + [Mobility.FIXED], positions + [Point2(5, 5)], triangles


def with_internal(node_id, mobility, positions, triangles):
    mobility = list(mobility)
    mobility[node_id] = Mobility.INTERNAL
    return mobility, positions, triangles


@pytest.mark.parametrize("build, error, node_id", [
    (lambda: with_orphan(*single_triangle()), OrphanNodeError, 3),
    (lambda: with_internal(1, *single_triangle()), InconsistentMobilityError, 1),
    (lambda: hexagon_fan(center_mobility=Mobility.BOUNDARY),
     InconsistentMobilityError, 0),
    (lambda: wound_fan(Mobility.INTERNAL), TangledBallError, 0),
    (lambda: wound_fan(Mobility.FIXED), TangledBallError, 0),
    # two faulty nodes: the lower id is named, whatever its fault
    (lambda: with_orphan(*with_internal(1, *single_triangle())),
     InconsistentMobilityError, 1),
], ids=["orphan", "internal-on-boundary", "boundary-label-off-boundary",
        "tangled-internal", "tangled-fixed", "lower-id-of-two-faults"])
def test_node_fault_names_the_node(build, error, node_id):
    columns = build()
    text = hand_written_text(*columns)
    with pytest.raises(error) as err:
        build_topology(*columns)
    assert err.value.node_id == node_id
    with pytest.raises(ValidationError) as err:
        parse_mesh_text(text)
    assert err.value.line_no == 3 + node_id  # header and count come first


def test_shared_edge_endpoints_marked_internal_rejected():
    # two triangles sharing an edge: every node is on the boundary strip,
    # so marking the shared-edge endpoints internal is inconsistent
    mobility = [Mobility.INTERNAL, Mobility.INTERNAL, Mobility.FIXED, Mobility.FIXED]
    positions = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, -1)]
    triangles = [Triangle(0, (0, 1, 2)), Triangle(1, (0, 3, 1))]
    with pytest.raises(InconsistentMobilityError):
        build_topology(mobility, positions, triangles)


def test_closed_chain_of_length_four():
    # cyclic neighbor lookups on a 4-node closed chain
    mesh = build_topology(*square_ring())
    assert len(mesh.chains) == 1
    chain = mesh.chains[0]
    assert chain.closed and len(chain.node_ids) == 4
    for idx, nid in enumerate(chain.node_ids):
        prev_id, next_id = boundary_neighbors(mesh, nid)
        assert prev_id == chain.node_ids[(idx - 1) % 4]
        assert next_id == chain.node_ids[(idx + 1) % 4]


def test_unknown_node_reference_rejected():
    mobility, positions, _ = single_triangle()
    with pytest.raises(MeshError):
        build_topology(mobility, positions, [Triangle(0, (0, 1, 99))])


def test_mobility_and_positions_of_different_lengths_rejected():
    mobility, positions, triangles = single_triangle()
    with pytest.raises(MeshError, match="4 mobility labels for 3 nodes"):
        build_topology(mobility + [Mobility.FIXED], positions, triangles)


def test_flag_nodes_empty_when_all_good():
    mesh = build_topology(*hexagon_fan())
    assert flag_nodes(mesh, QualityConfig(q_min=0.9)) == set()


def test_flag_nodes_degenerate_element():
    mesh = build_topology(*hexagon_fan())
    # collapse one element after the build: its three nodes get flagged
    mesh.set_position(0, Point2(1.0, 0.0))
    flagged = flag_nodes(mesh, QualityConfig(q_min=0.5))
    assert {0, 1, 2} <= flagged


def test_flag_nodes_on_distorted_patch():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    flagged = flag_nodes(mesh, QualityConfig(q_min=0.6))
    bad_tris = [
        t for t in mesh.triangles
        if any(nid in flagged for nid in t.nodes)
    ]
    assert flagged
    assert bad_tris
    # every node of every sub-threshold element is in the set
    from osmot.geometry import triangle_geometry
    from osmot.quality import q2_shape
    for tri in mesh.triangles:
        if q2_shape(triangle_geometry(*mesh.triangle_points(tri))) < 0.6:
            assert set(tri.nodes) <= flagged


def test_connectivity_key_stable_under_position_change():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.3)
    key = mesh.connectivity_key()
    mesh.set_position(6, Point2(0.3, 0.3))
    assert mesh.connectivity_key() == key


def test_set_position_replaces_no_node():
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.5)
    before = list(mesh.nodes)
    # an internal, a movable boundary and a fixed node
    for nid in (next(iter(mesh.balls)), mesh.chains[0].node_ids[1], 0):
        p = mesh.position(nid)
        mesh.set_position(nid, Point2(p.x + 0.01, p.y))
    assert len(mesh.nodes) == len(before)
    assert all(node is old for node, old in zip(mesh.nodes, before))


def test_moving_a_frozen_copy_leaves_the_original():
    text = mesh_to_text(generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.5))
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.5)
    frozen = freeze_boundary(mesh)
    for nid in (next(iter(frozen.balls)), mesh.chains[0].node_ids[1]):
        p = frozen.position(nid)
        frozen.set_position(nid, Point2(p.x + 0.01, p.y - 0.01))
        assert mesh.position(nid) == p
    assert mesh_to_text(mesh) == text


def test_meshes_differing_in_one_coordinate_are_unequal():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.3)
    other = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.3)
    assert mesh == other
    p = other.position(6)
    other.set_position(6, Point2(p.x, math.nextafter(p.y, math.inf)))
    assert mesh != other
    assert mesh.connectivity_key() == other.connectivity_key()
