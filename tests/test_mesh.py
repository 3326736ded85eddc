import pytest

from osmot.fixtures import FixtureKind, generate_fixture
from osmot.geometry import Point2, signed_area
from osmot.mesh import (
    InconsistentMobilityError,
    InvertedElementError,
    MeshError,
    Mobility,
    Node,
    NonManifoldError,
    NotBoundaryError,
    OrphanNodeError,
    TangledBallError,
    Triangle,
    boundary_neighbors,
    build_topology,
    flag_nodes,
)
from osmot.meshio import ValidationError, parse_mesh_text
from osmot.quality import QualityConfig

from conftest import hand_written_text, hexagon_fan, wound_fan


def single_triangle(mobility=Mobility.FIXED):
    nodes = [
        Node(0, Point2(0, 0), mobility),
        Node(1, Point2(1, 0), mobility),
        Node(2, Point2(0, 1), mobility),
    ]
    return nodes, [Triangle(0, (0, 1, 2))]


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
            pts = [mesh.nodes[n].position for n in tri]
            rpts = [mesh.nodes[n].position for n in rotated]
            assert signed_area(*rpts) == signed_area(*pts)


def test_ball_rotation_sign_on_distorted_mesh():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=3, distortion=0.4)
    for ball in mesh.balls.values():
        for tid, n1, n2 in ball.elements:
            tri = mesh.triangles[tid].nodes
            rotated = (ball.vertex, n1, n2)
            assert rotated in cyclic_rotations(tri)
            pts = [mesh.nodes[n].position for n in tri]
            rpts = [mesh.nodes[n].position for n in rotated]
            a0 = signed_area(*pts)
            a1 = signed_area(*rpts)
            assert a1 > 0.0
            assert a1 == pytest.approx(a0, rel=1e-12)


def test_closed_chain_on_hexagon():
    nodes, triangles = hexagon_fan(ring_mobility=Mobility.BOUNDARY)
    mesh = build_topology(nodes, triangles)
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
    nodes, triangles = hexagon_fan(ring_mobility=Mobility.BOUNDARY)
    nodes[3] = Node(3, nodes[3].position, Mobility.FIXED)
    mesh = build_topology(nodes, triangles)
    assert len(mesh.chains) == 1
    chain = mesh.chains[0]
    assert not chain.closed
    assert chain.node_ids[0] == 3 and chain.node_ids[-1] == 3
    assert len(chain.node_ids) == 7
    first_movable = chain.node_ids[1]
    prev_id, _next = boundary_neighbors(mesh, first_movable)
    assert prev_id == 3


def test_not_boundary_error_for_internal():
    nodes, triangles = hexagon_fan()
    mesh = build_topology(nodes, triangles)
    with pytest.raises(NotBoundaryError):
        boundary_neighbors(mesh, 0)


def test_nonmanifold_edge_rejected():
    # CCW triangles stacked on the same side of one edge all use it in the
    # same direction, which no manifold, consistently oriented mesh does
    nodes = [
        Node(0, Point2(0, 0), Mobility.FIXED),
        Node(1, Point2(1, 0), Mobility.FIXED),
        Node(2, Point2(0.5, 1), Mobility.FIXED),
        Node(3, Point2(0.5, 2), Mobility.FIXED),
        Node(4, Point2(0.5, 3), Mobility.FIXED),
    ]
    triangles = [
        Triangle(0, (0, 1, 2)),
        Triangle(1, (0, 1, 3)),
        Triangle(2, (0, 1, 4)),
    ]
    for n_stacked in (2, 3):
        with pytest.raises(NonManifoldError, match=r"directed edge \(0, 1\)"):
            build_topology(nodes[:n_stacked + 2], triangles[:n_stacked])


def test_pinched_boundary_vertex_rejected():
    # two triangles meeting only at node 0: it starts two boundary edges
    nodes = [
        Node(0, Point2(0, 0), Mobility.FIXED),
        Node(1, Point2(1, 0), Mobility.FIXED),
        Node(2, Point2(1, 1), Mobility.FIXED),
        Node(3, Point2(-1, 0), Mobility.FIXED),
        Node(4, Point2(-1, -1), Mobility.FIXED),
    ]
    triangles = [Triangle(0, (0, 1, 2)), Triangle(1, (0, 3, 4))]
    with pytest.raises(NonManifoldError, match="node 0 has more than one"):
        build_topology(nodes, triangles)


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
    nodes = [Node(n.id, n.position,
                  Mobility.FIXED if n.id in pinned else n.mobility)
             for n in mesh.nodes]
    rebuilt = build_topology(nodes, mesh.triangles)
    assert sorted(rebuilt.balls) == sorted(set(mesh.balls) - set(pinned))


def test_inverted_element_rejected():
    nodes, triangles = single_triangle()
    nodes[1], nodes[2] = (
        Node(1, Point2(0, 1), Mobility.FIXED),
        Node(2, Point2(1, 0), Mobility.FIXED),
    )
    with pytest.raises(InvertedElementError) as err:
        build_topology(nodes, triangles)
    assert "triangle 0" in str(err.value)


def with_orphan(nodes, triangles):
    return nodes + [Node(len(nodes), Point2(5, 5), Mobility.FIXED)], triangles


def with_internal(node_id, nodes, triangles):
    nodes = list(nodes)
    nodes[node_id] = Node(node_id, nodes[node_id].position, Mobility.INTERNAL)
    return nodes, triangles


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
    nodes, triangles = build()
    text = hand_written_text(nodes, triangles)
    with pytest.raises(error) as err:
        build_topology(nodes, triangles)
    assert err.value.node_id == node_id
    with pytest.raises(ValidationError) as err:
        parse_mesh_text(text)
    assert err.value.line_no == 3 + node_id  # header and count come first


def test_shared_edge_endpoints_marked_internal_rejected():
    # two triangles sharing an edge: every node is on the boundary strip,
    # so marking the shared-edge endpoints internal is inconsistent
    nodes = [
        Node(0, Point2(0, 0), Mobility.INTERNAL),
        Node(1, Point2(1, 0), Mobility.INTERNAL),
        Node(2, Point2(1, 1), Mobility.FIXED),
        Node(3, Point2(0, -1), Mobility.FIXED),
    ]
    triangles = [Triangle(0, (0, 1, 2)), Triangle(1, (0, 3, 1))]
    with pytest.raises(InconsistentMobilityError):
        build_topology(nodes, triangles)


def test_closed_chain_of_length_four():
    # square ring around one internal node: a 4-node closed chain with
    # cyclic neighbor lookups
    nodes = [Node(0, Point2(0.0, 0.0), Mobility.INTERNAL)]
    ring = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    nodes += [Node(i + 1, Point2(x, y), Mobility.BOUNDARY)
              for i, (x, y) in enumerate(ring)]
    triangles = [Triangle(t, (0, 1 + t, 1 + (t + 1) % 4)) for t in range(4)]
    mesh = build_topology(nodes, triangles)
    assert len(mesh.chains) == 1
    chain = mesh.chains[0]
    assert chain.closed and len(chain.node_ids) == 4
    for idx, nid in enumerate(chain.node_ids):
        prev_id, next_id = boundary_neighbors(mesh, nid)
        assert prev_id == chain.node_ids[(idx - 1) % 4]
        assert next_id == chain.node_ids[(idx + 1) % 4]


def test_unknown_node_reference_rejected():
    nodes, _ = single_triangle()
    with pytest.raises(MeshError):
        build_topology(nodes, [Triangle(0, (0, 1, 99))])


def test_flag_nodes_empty_when_all_good():
    nodes, triangles = hexagon_fan()
    mesh = build_topology(nodes, triangles)
    assert flag_nodes(mesh, QualityConfig(q_min=0.9)) == set()


def test_flag_nodes_degenerate_element():
    nodes, triangles = hexagon_fan()
    mesh = build_topology(nodes, triangles)
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
