import gc

import pytest

from osmot.fixtures import FixtureKind, generate_fixture
from osmot.geometry import Point2
from osmot.mesh import Ball, Mesh, Mobility, Node, Triangle
from osmot.meshio import (
    ParseError,
    ValidationError,
    mesh_to_text,
    parse_mesh_text,
    read_mesh,
    write_mesh,
)

SINGLE = """\
osmot-mesh v1
nodes 3
0 0 0 F
1 1 0 F
2 0 1 F
triangles 1
0 0 1 2
"""


def test_single_triangle_roundtrip():
    mesh = parse_mesh_text(SINGLE)
    assert len(mesh.nodes) == 3
    assert len(mesh.triangles) == 1
    assert mesh.balls == {}


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\nosmot-mesh v1\n# nodes next\nnodes 3\n" \
           "0 0 0 F\n\n1 1 0 F\n2 0 1 F\n# tris\ntriangles 1\n0 0 1 2\n"
    mesh = parse_mesh_text(text)
    assert len(mesh.nodes) == 3


@pytest.mark.parametrize("kind,seed,distortion", [
    (FixtureKind.PATCH32, 1, 0.45),
    (FixtureKind.PATCH32, 0, 0.0),
    (FixtureKind.GRADED_INTERFACE, 0, 0.0),
    (FixtureKind.HORSESHOE, 0, 0.0),
    (FixtureKind.INDENTED_BOX, 0, 0.6),
])
def test_roundtrip_identity_on_fixtures(tmp_path, kind, seed, distortion):
    mesh = generate_fixture(kind, seed, distortion)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, str(path))
    text = path.read_text()
    back = read_mesh(str(path))
    assert mesh_to_text(back) == text
    assert [(back.position(n.id).x, back.position(n.id).y) for n in back.nodes] == \
           [(mesh.position(n.id).x, mesh.position(n.id).y) for n in mesh.nodes]
    assert [t.nodes for t in back.triangles] == [t.nodes for t in mesh.triangles]
    assert [n.mobility for n in back.nodes] == [n.mobility for n in mesh.nodes]


def test_seventeen_digit_coordinates_roundtrip(tmp_path):
    mesh = parse_mesh_text(SINGLE)
    mesh.set_position(0, type(mesh.position(0))(1.0 / 3.0, 2.0 / 7.0))
    # rebuild is not needed to serialize; write and read back
    path = tmp_path / "m.mesh"
    write_mesh(mesh, str(path))
    back = read_mesh(str(path))
    assert back.position(0).x == 1.0 / 3.0
    assert back.position(0).y == 2.0 / 7.0


def test_bad_header():
    with pytest.raises(ParseError) as err:
        parse_mesh_text("wrong v9\nnodes 0\ntriangles 0\n")
    assert err.value.line_no == 1


def test_bad_mobility_token():
    text = SINGLE.replace("0 0 0 F", "0 0 0 Q")
    with pytest.raises(ParseError) as err:
        parse_mesh_text(text)
    assert err.value.line_no == 3


def test_truncated_file():
    with pytest.raises(ParseError) as err:
        parse_mesh_text("osmot-mesh v1\nnodes 2\n0 0 0 F\n")
    assert err.value.line_no == 4
    # without a final newline, and with a comment as the last line
    with pytest.raises(ParseError) as err:
        parse_mesh_text("osmot-mesh v1\nnodes 2\n0 0 0 F\n1 1 0 F\n# end")
    assert err.value.line_no == 6


def test_unknown_node_reference_is_validation_error():
    text = SINGLE.replace("0 0 1 2", "0 0 1 99")
    with pytest.raises(ValidationError):
        parse_mesh_text(text)


def test_inverted_triangle_names_id_and_line():
    text = SINGLE.replace("0 0 1 2", "0 0 2 1")
    with pytest.raises(ValidationError) as err:
        parse_mesh_text(text)
    assert "triangle 0" in str(err.value)
    assert "line 7" in str(err.value)


def test_rref_section_roundtrip(tmp_path):
    mesh = generate_fixture(FixtureKind.PATCH32)
    mesh.rref[3] = 0.75
    mesh.rref[10] = 1.5
    path = tmp_path / "m.mesh"
    write_mesh(mesh, str(path))
    back = read_mesh(str(path))
    assert back.rref == {3: 0.75, 10: 1.5}


def test_rref_bad_triangle_id():
    text = SINGLE + "rref 1\n5 1.0\n"
    with pytest.raises(ParseError):
        parse_mesh_text(text)


def test_rref_nonpositive_value():
    text = SINGLE + "rref 1\n0 -1.0\n"
    with pytest.raises(ParseError):
        parse_mesh_text(text)


@pytest.mark.parametrize("text,line_no", [
    ("osmot-mesh v1\nnodes -1\ntriangles 0\n", 2),
    (SINGLE.replace("triangles 1", "triangles -5"), 6),
], ids=["nodes", "triangles"])
def test_negative_section_count(text, line_no):
    with pytest.raises(ParseError) as err:
        parse_mesh_text(text)
    assert err.value.line_no == line_no


def test_rref_repeated_triangle_id():
    text = SINGLE + "rref 2\n0 0.5\n0 0.7\n"
    with pytest.raises(ParseError) as err:
        parse_mesh_text(text)
    assert err.value.line_no == 10


def test_hand_made_boundary_nodes_roundtrip():
    # a Mesh assembled without build_topology has no chain ids on its
    # boundary nodes; its text must still read back
    ring = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    positions = [Point2(0.5, 0.5)] + [Point2(*p) for p in ring]
    nodes = [Node(0, Mobility.INTERNAL)]
    nodes += [Node(i + 1, Mobility.BOUNDARY) for i in range(len(ring))]
    triangles = [Triangle(t, (0, 1 + t, 1 + (t + 1) % 4)) for t in range(4)]
    mesh = Mesh(nodes=nodes, triangles=triangles, _positions=list(positions),
                balls={}, chains=[])
    text = mesh_to_text(mesh)
    back = parse_mesh_text(text)
    assert mesh_to_text(back) == text
    assert [(back.position(n.id), n.mobility) for n in back.nodes] == \
           [(positions[n.id], n.mobility) for n in nodes]
    assert [t.nodes for t in back.triangles] == [t.nodes for t in triangles]
    assert len(back.chains) == 1 and list(back.balls) == [0]


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    threshold = gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("text, error", [
    (SINGLE, None),
    ("osmot-mesh v1\nnodes 2\n0 0 0 F\n", ParseError),
    (SINGLE.replace("0 0 1 2", "0 0 2 1"), ValidationError),
], ids=["valid", "parse-error", "validation-error"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_load_puts_back_the_collector_state(tmp_path, restore_gc, text, error,
                                            enabled):
    # a load pauses the cyclic collector and leaves it as it found it,
    # whether the load returns or raises
    path = tmp_path / "mesh.mesh"
    path.write_text(text)
    (gc.enable if enabled else gc.disable)()
    for load, arg in ((parse_mesh_text, text), (read_mesh, str(path))):
        if error is None:
            load(arg)
        else:
            with pytest.raises(error):
                load(arg)
        assert gc.isenabled() is enabled


def test_no_collection_starts_during_a_load(restore_gc):
    text = mesh_to_text(generate_fixture(FixtureKind.INDENTED_BOX, 0, 0.6))
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    # with a threshold of 1, every new container would start a collection
    gc.set_threshold(1)
    gc.callbacks.append(on_gc)
    try:
        before = len(starts)
        mesh = parse_mesh_text(text)
        # len() allocates no container, so it starts no collection
        during = len(starts) - before
        # instances of a new class come from no free list, so each one
        # counts towards the threshold
        probe = [type("Probe", (), {})() for _ in range(10)]
    finally:
        gc.callbacks.remove(on_gc)
    assert mesh.triangles and mesh.balls
    assert during == 0
    # the same probe outside a load sees collections start
    assert probe and len(starts) > before


def test_read_mesh_builds_exact_record_types(tmp_path):
    path = tmp_path / "box.mesh"
    write_mesh(generate_fixture(FixtureKind.INDENTED_BOX, 0, 0.6), str(path))
    mesh = read_mesh(str(path))
    assert mesh._positions and all(type(p) is Point2 for p in mesh._positions)
    assert mesh.triangles and all(type(t) is Triangle for t in mesh.triangles)
    assert mesh.balls and all(type(b) is Ball for b in mesh.balls.values())
