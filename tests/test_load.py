"""Loading a mesh: the topology against a reference derivation, and the
error, message and file line of every load fault."""

import random

import pytest

from osmot.fixtures import FixtureKind, freeze_boundary, generate_fixture
from osmot.geometry import Point2, signed_area
from osmot.mesh import (
    Ball,
    InvertedElementError,
    Mobility,
    NonManifoldError,
    TangledBallError,
    Triangle,
    _build_chains,
    build_topology,
)
from osmot.meshio import ParseError, ValidationError, mesh_to_text, parse_mesh_text

from conftest import hand_written_text, hexagon_fan, wound_fan


def reference_winding(positions, vertex, star):
    """Signed crossings of the ray from the vertex towards +x by the ring
    edges n1 -> n2: upward with the vertex on the left adds one, downward
    with it on the right subtracts one."""
    p = positions[vertex]
    winding = 0
    for _tid, n1, n2 in star:
        q1, q2 = positions[n1], positions[n2]
        if q1.y <= p.y:
            if q2.y > p.y and signed_area(q1, q2, p) > 0.0:
                winding += 1
        elif q2.y <= p.y and signed_area(q1, q2, p) < 0.0:
            winding -= 1
    return winding


def reference_topology(mobility, positions, triangles):
    """The balls, boundary successors and windings of a valid mesh, from
    (u, v) tuple edges, ``signed_area`` and a membership test per edge."""
    edges = set()
    stars = [[] for _ in positions]
    for tri in triangles:
        a, b, c = tri.nodes
        pa, pb, pc = (positions[n] for n in tri.nodes)
        assert signed_area(pa, pb, pc) > 0.0
        for edge in ((a, b), (b, c), (c, a)):
            assert edge not in edges
            edges.add(edge)
        stars[a].append((tri.id, b, c))
        stars[b].append((tri.id, c, a))
        stars[c].append((tri.id, a, b))
    boundary_next = {u: v for u, v in edges if (v, u) not in edges}
    balls, windings = {}, {}
    for nid, (mob, star) in enumerate(zip(mobility, stars)):
        if nid not in boundary_next:
            windings[nid] = reference_winding(positions, nid, star)
            if mob is Mobility.INTERNAL:
                balls[nid] = Ball(nid, tuple(star))
    return balls, boundary_next, windings


def columns(mesh):
    """The (mobility, positions, triangles) that build the mesh again."""
    return ([n.mobility for n in mesh.nodes],
            [mesh.position(n.id) for n in mesh.nodes], mesh.triangles)


def relabelled(mobility, positions, triangles, rng):
    """The same mesh with shuffled node ids, shuffled triangle order and
    each triangle's nodes rotated."""
    perm = list(range(len(positions)))
    rng.shuffle(perm)
    new_mobility = [None] * len(positions)
    new_positions = [None] * len(positions)
    for nid, (mob, p) in enumerate(zip(mobility, positions)):
        new_mobility[perm[nid]] = mob
        new_positions[perm[nid]] = p
    order = list(triangles)
    rng.shuffle(order)
    new_triangles = []
    for tid, tri in enumerate(order):
        ids = [perm[n] for n in tri.nodes]
        k = rng.randrange(3)
        new_triangles.append(Triangle(tid, tuple(ids[k:] + ids[:k])))
    return new_mobility, new_positions, new_triangles


def with_pinned_interior(mesh):
    pinned = set(sorted(mesh.balls)[::3])
    mobility, positions, triangles = columns(mesh)
    return ([Mobility.FIXED if nid in pinned else mob for nid, mob in enumerate(mobility)],
            positions, triangles)


def valid_meshes():
    cases = {}
    for kind in FixtureKind:
        for seed, distortion in ((0, 0.0), (1, 0.45), (3, 0.9)):
            mesh = generate_fixture(kind, seed, distortion)
            cases[f"{kind.value}-{seed}-{distortion}"] = columns(mesh)
    box = generate_fixture(FixtureKind.INDENTED_BOX, 2, 0.6)
    cases["indentedbox-frozen"] = columns(freeze_boundary(box))
    patch = generate_fixture(FixtureKind.PATCH32, 2, 0.6)
    cases["patch32-pinned"] = with_pinned_interior(patch)
    cases["hexagon-closed-chain"] = hexagon_fan(ring_mobility=Mobility.BOUNDARY)
    rng = random.Random(16)
    for name in ("indentedbox-1-0.45", "graded-0-0.0", "hexagon-closed-chain"):
        for k in range(3):
            cases[f"{name}-relabelled-{k}"] = relabelled(*cases[name], rng)
    return cases


VALID = valid_meshes()


@pytest.mark.parametrize("name", sorted(VALID))
def test_topology_matches_reference(name):
    mobility, positions, triangles = VALID[name]
    mesh = build_topology(mobility, positions, triangles)
    balls, boundary_next, windings = reference_topology(mobility, positions, triangles)
    assert set(windings.values()) == {1}
    assert mesh.balls == balls
    assert mesh.chains == _build_chains(mobility, boundary_next)
    assert [n.id for n in mesh.nodes] == list(range(len(positions)))
    assert [n.mobility for n in mesh.nodes] == mobility
    chain_of = {nid: chain.chain_id for chain in mesh.chains for nid in chain.node_ids}
    assert [n.chain_id for n in mesh.nodes] == [
        chain_of[nid] if mob is Mobility.BOUNDARY else None
        for nid, mob in enumerate(mobility)]


@pytest.mark.parametrize("name", ["patch32-1-0.45", "indentedbox-3-0.9", "graded-0-0.0"])
def test_inverted_element_carries_signed_area(name):
    mobility, positions, triangles = VALID[name]
    for tid, tri in enumerate(triangles):
        a, b, c = tri.nodes
        flipped = list(triangles)
        flipped[tid] = Triangle(tid, (a, c, b))
        with pytest.raises(InvertedElementError) as err:
            build_topology(mobility, positions, flipped)
        want = signed_area(positions[a], positions[c], positions[b])
        assert err.value.triangle_id == tid
        assert err.value.area.hex() == want.hex()
        assert str(err.value) == f"triangle {tid} has non-positive signed area {want:g}"


def test_collinear_element_area_is_zero():
    positions = [Point2(0.0, 0.0), Point2(0.5, 0.5), Point2(1.0, 1.0)]
    with pytest.raises(InvertedElementError) as err:
        build_topology([Mobility.FIXED] * 3, positions, [Triangle(0, (0, 1, 2))])
    want = signed_area(*positions)
    assert err.value.area.hex() == want.hex() == (0.0).hex()


@pytest.mark.parametrize("turns", [2, 3])
@pytest.mark.parametrize("mobility", [Mobility.INTERNAL, Mobility.FIXED])
@pytest.mark.parametrize("centre", [(0.0, 0.0), (0.1, -0.05), (-0.2, 0.15)])
def test_tangled_winding_matches_reference(turns, mobility, centre):
    fan = wound_fan(mobility, turns, Point2(*centre))
    _balls, _next, windings = reference_topology(*fan)
    with pytest.raises(TangledBallError) as err:
        build_topology(*fan)
    assert err.value.node_id == 0
    assert err.value.winding == windings[0] == turns


def pinched_strip(n_triangles):
    """Triangles along the x axis, each meeting the next only at one node:
    every shared node starts two boundary edges."""
    positions = [Point2(float(k), 0.0) for k in range(n_triangles + 1)]
    positions += [Point2(k + 0.5, 1.0) for k in range(n_triangles)]
    triangles = [Triangle(k, (k, k + 1, n_triangles + 1 + k)) for k in range(n_triangles)]
    return [Mobility.FIXED] * len(positions), positions, triangles, set(range(1, n_triangles))


@pytest.mark.parametrize("n_triangles", [3, 4])
def test_pinched_vertices_name_the_lowest(n_triangles):
    mobility, positions, triangles, pinched = pinched_strip(n_triangles)
    rng = random.Random(n_triangles)
    for _ in range(40):
        perm = list(range(len(positions)))
        rng.shuffle(perm)
        new_positions = [None] * len(positions)
        for nid, p in enumerate(positions):
            new_positions[perm[nid]] = p
        order = list(triangles)
        rng.shuffle(order)
        new_triangles = [Triangle(tid, tuple(perm[n] for n in tri.nodes))
                         for tid, tri in enumerate(order)]
        lowest = min(perm[n] for n in pinched)
        with pytest.raises(NonManifoldError,
                           match=f"^node {lowest} has more than one outgoing boundary edge$") as err:
            build_topology(mobility, new_positions, new_triangles)
        assert (err.value.node_id, err.value.triangle_id) == (lowest, None)


# Load faults under comments and blank lines. Each fault edits the lines of
# a clean file and returns them with the index of the faulty line (EOF for
# a truncated file), the exception class and its message.

EOF = -1

NOISE = ["", "   ", "\t", "#", "# comment", "   # indented comment", "#nodes 3"]


def base_lines():
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, 1, 0.5)
    return mesh, mesh_to_text(mesh).splitlines()


def node_line(nid):
    return 2 + nid


def triangle_line(lines, tid):
    return 3 + int(lines[1].split()[1]) + tid


def fault_flipped(rng):
    mesh, lines = base_lines()
    tid = rng.randrange(len(mesh.triangles))
    a, b, c = mesh.triangles[tid].nodes
    at = triangle_line(lines, tid)
    lines[at] = f"{tid} {a} {c} {b}"
    p = [mesh.position(n) for n in (a, c, b)]
    return lines, at, ValidationError, f"triangle {tid} has non-positive signed area {signed_area(*p):g}"


def fault_repeated_edge(rng):
    mesh, lines = base_lines()
    m = len(mesh.triangles)
    a, b, c = mesh.triangles[rng.randrange(m)].nodes
    lines[triangle_line(lines, 0) - 1] = f"triangles {m + 1}"
    lines.append(f"{m} {b} {c} {a}")
    return (lines, len(lines) - 1, ValidationError,
            f"directed edge ({b}, {c}) belongs to more than one triangle")


def fault_repeated_node(rng):
    mesh, lines = base_lines()
    tid = rng.randrange(len(mesh.triangles))
    a, b, _c = mesh.triangles[tid].nodes
    nodes = rng.choice([(a, a, b), (a, b, b), (a, b, a)])
    at = triangle_line(lines, tid)
    lines[at] = f"{tid} {nodes[0]} {nodes[1]} {nodes[2]}"
    return lines, at, ValidationError, f"triangle {tid} has repeated nodes {nodes}"


def fault_unknown_node(rng):
    mesh, lines = base_lines()
    tid = rng.randrange(len(mesh.triangles))
    a, b, _c = mesh.triangles[tid].nodes
    unknown = rng.choice([len(mesh.nodes), len(mesh.nodes) + 7, -1])
    at = triangle_line(lines, tid)
    lines[at] = f"{tid} {a} {b} {unknown}"
    return lines, at, ValidationError, f"triangle {tid} references unknown node {unknown}"


def fault_orphan(rng):
    mesh, lines = base_lines()
    n = len(mesh.nodes)
    lines[1] = f"nodes {n + 1}"
    lines.insert(node_line(n), f"{n} 9 9 F")
    return lines, node_line(n), ValidationError, f"node {n} belongs to no triangle"


def fault_internal_on_boundary(rng):
    mesh, lines = base_lines()
    # every node of the indented box that is not internal lies on its boundary
    nid = rng.choice([n.id for n in mesh.nodes if n.mobility is not Mobility.INTERNAL])
    at = node_line(nid)
    lines[at] = lines[at].rsplit(" ", 1)[0] + " I"
    return lines, at, ValidationError, f"node {nid} is marked internal but lies on a boundary edge"


def fault_boundary_off_boundary(rng):
    mesh, lines = base_lines()
    nid = rng.choice(sorted(mesh.balls))
    at = node_line(nid)
    lines[at] = lines[at].rsplit(" ", 1)[0] + " B7"
    return (lines, at, ValidationError,
            f"node {nid} is marked movable-boundary but lies on no boundary edge")


def fault_tangled(rng):
    fan = wound_fan(rng.choice([Mobility.INTERNAL, Mobility.FIXED]))
    lines = hand_written_text(*fan).splitlines()
    return (lines, node_line(0), ValidationError,
            "triangles around interior node 0 wind 2 times around it")


def fault_pinched(rng):
    mobility, positions, triangles, pinched = pinched_strip(rng.choice([3, 4]))
    lines = hand_written_text(mobility, positions, triangles).splitlines()
    lowest = min(pinched)
    return (lines, node_line(lowest), ValidationError,
            f"node {lowest} has more than one outgoing boundary edge")


def fault_bad_token(rng):
    mesh, lines = base_lines()
    if rng.random() < 0.5:
        nid = rng.randrange(len(mesh.nodes))
        at = node_line(nid)
        lines[at] = lines[at].replace(" ", " x", 1)
        return lines, at, ParseError, f"bad node fields in {lines[at]!r}"
    tid = rng.randrange(len(mesh.triangles))
    at = triangle_line(lines, tid)
    lines[at] = lines[at] + ".0"
    return lines, at, ParseError, f"bad triangle fields in {lines[at]!r}"


def fault_truncated(rng):
    _mesh, lines = base_lines()
    header = triangle_line(lines, 0) - 1
    cut, expect = rng.choice([(rng.randrange(2, header), "a node line"),
                              (header, "'triangles <count>'"),
                              (rng.randrange(header + 1, len(lines)), "a triangle line")])
    return lines[:cut], EOF, ParseError, f"unexpected end of file, expected {expect}"


FAULTS = [fault_flipped, fault_repeated_edge, fault_repeated_node, fault_unknown_node,
          fault_orphan, fault_internal_on_boundary, fault_boundary_off_boundary,
          fault_tangled, fault_pinched, fault_bad_token, fault_truncated]


def with_noise(lines, rng, faulty=None):
    """The text of the lines with blank and comment lines inserted at
    random places, and the file line of ``lines[faulty]`` in it."""
    out = []
    line_no = None
    for i, line in enumerate(lines):
        while rng.random() < 0.3:
            out.append(rng.choice(NOISE))
        if i == faulty:
            line_no = len(out) + 1
        out.append(line)
    out += [rng.choice(NOISE) for _ in range(rng.randrange(3))]
    return "\n".join(out) + "\n", line_no


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__[len("fault_"):])
@pytest.mark.parametrize("seed", range(6))
def test_load_fault_under_comments(fault, seed):
    rng = random.Random(seed)
    lines, faulty, error, message = fault(rng)
    text, line_no = with_noise(lines, rng, faulty)
    if faulty == EOF:
        # a file that ends early names the line after its last line
        line_no = len(text.splitlines()) + 1
    with pytest.raises(error) as err:
        parse_mesh_text(text)
    assert type(err.value) is error
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("seed", range(4))
def test_comments_and_blank_lines_load_the_same_mesh(seed):
    rng = random.Random(seed)
    for kind in FixtureKind:
        mesh = generate_fixture(kind, seed, 0.3)
        mesh.rref[0] = 0.5
        text = mesh_to_text(mesh)
        noisy, _ = with_noise(text.splitlines(), rng)
        assert noisy != text
        assert parse_mesh_text(noisy) == mesh
