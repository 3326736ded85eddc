"""Loading a mesh: the topology against a reference derivation, and the
error, message and file line of every load fault."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from osmot import meshio

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

from conftest import SLIVER_FAN_TEXT, hand_written_text, hexagon_fan, wound_fan


def exact_area2(p0, p1, p2):
    """Twice the signed area of the triangle p0, p1, p2, in exact rational
    arithmetic."""
    x0, y0, x1, y1, x2, y2 = map(Fraction, (*p0, *p1, *p2))
    return (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)


def reference_winding(positions, vertex, star):
    """Signed crossings of the ray from the vertex towards +x by the ring
    edges n1 -> n2, with exact side tests: upward with the vertex on the
    left adds one, downward with it on the right subtracts one."""
    p = positions[vertex]
    winding = 0
    for _tid, n1, n2 in star:
        q1, q2 = positions[n1], positions[n2]
        if q1.y <= p.y:
            if q2.y > p.y and exact_area2(q1, q2, p) > 0:
                winding += 1
        elif q2.y <= p.y and exact_area2(q1, q2, p) < 0:
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


def test_sliver_fan_loads():
    # every triangle is positive in exact arithmetic and node 1's ring
    # winds once around it
    mesh = parse_mesh_text(SLIVER_FAN_TEXT)
    positions = [mesh.position(n.id) for n in mesh.nodes]
    assert all(exact_area2(*(positions[n] for n in tri.nodes)) > 0
               for tri in mesh.triangles)
    assert reference_winding(positions, 1, mesh.stars[1]) == 1
    assert mesh.balls[1] == Ball(1, mesh.stars[1])


@st.composite
def fan_pair(draw):
    """Two fans, each of fixed ring nodes around one interior node, with
    node ids shuffled. A fan's ring winds 1-3 times around its centre, and
    each ring node's height is the centre's plus a multiple of a step from
    -2 to 2, so ring nodes share heights with the centre and with each
    other. Every triangle is positive in exact arithmetic and by
    ``signed_area``."""
    fans = []
    for _ in range(2):
        cx, cy = (draw(st.floats(-4.0, 4.0)) for _ in range(2))
        scale = draw(st.sampled_from([1.0, 1e-3, 1e-6]))
        step = scale * draw(st.floats(0.2, 1.0))
        ring = []
        for _lap in range(draw(st.integers(1, 3))):
            m = draw(st.integers(4, 7))
            for j in range(m):
                t = 2.0 * math.pi * (j + draw(st.floats(0.0, 0.9))) / m
                k = max(-2, min(2, round(scale * math.sin(t) / step)))
                ring.append(Point2(cx + scale * math.cos(t), cy + k * step))
        centre = Point2(cx, cy)
        for q1, q2 in zip(ring, ring[1:] + ring[:1]):
            assume(exact_area2(centre, q1, q2) > 0 and signed_area(centre, q1, q2) > 0.0)
        fans.append((draw(st.sampled_from([Mobility.INTERNAL, Mobility.FIXED])),
                     centre, ring))
    positions, mobility, triangles, centres = [], [], [], []
    for mob, centre, ring in fans:
        c, n = len(positions), len(ring)
        centres.append(c)
        positions += [centre, *ring]
        mobility += [mob] + [Mobility.FIXED] * n
        triangles += [(c, c + 1 + i, c + 1 + (i + 1) % n) for i in range(n)]
    perm = draw(st.permutations(range(len(positions))))
    new_positions, new_mobility = [None] * len(positions), [None] * len(positions)
    for nid, (mob, p) in enumerate(zip(mobility, positions)):
        new_positions[perm[nid]] = p
        new_mobility[perm[nid]] = mob
    new_triangles = [Triangle(tid, tuple(perm[n] for n in nodes))
                     for tid, nodes in enumerate(triangles)]
    return new_mobility, new_positions, new_triangles, [perm[c] for c in centres]


@settings(max_examples=100, deadline=None)
@given(fan_pair())
def test_interior_winding_is_exact(case):
    # a mesh loads exactly when each interior node's ring winds once around
    # it in exact arithmetic; otherwise the lowest node whose ring does not
    # is named, with its exact winding
    mobility, positions, triangles, centres = case
    stars = {c: [(t.id, *t.nodes[1:]) for t in triangles if t.nodes[0] == c]
             for c in centres}
    windings = {c: reference_winding(positions, c, stars[c]) for c in centres}
    tangled = sorted(c for c in centres if windings[c] != 1)
    if not tangled:
        mesh = build_topology(mobility, positions, triangles)
        assert sorted(mesh.balls) == sorted(c for c in centres
                                            if mobility[c] is Mobility.INTERNAL)
        return
    with pytest.raises(TangledBallError) as err:
        build_topology(mobility, positions, triangles)
    assert err.value.node_id == tangled[0]
    assert err.value.winding == windings[tangled[0]]


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
# a truncated file), the exception class and its message. Its base mesh
# says where the fault goes: the indented box puts it on a line drawn at
# random; the lattice, whose sections span more than one chunk of the
# reader's bulk parse (meshio.CHUNK lines), on the last line of a chunk or
# on the first line of the next.

EOF = -1

NOISE = ["", "   ", "\t", "#", "# comment", "   # indented comment", "#nodes 3"]


def node_line(nid):
    return 2 + nid


def triangle_line(lines, tid):
    return 3 + int(lines[1].split()[1]) + tid


def lattice_columns():
    """A square lattice of about meshio.CHUNK cells, interior nodes
    jittered: its nodes and its triangles each fill more than one chunk.
    The corners are fixed and each side is a chain of boundary nodes."""
    cells = math.isqrt(meshio.CHUNK) + 1
    rng = random.Random(cells)
    mobility, positions = [], []
    for j in range(cells + 1):
        for i in range(cells + 1):
            sides = (i in (0, cells)) + (j in (0, cells))
            mobility.append([Mobility.INTERNAL, Mobility.BOUNDARY, Mobility.FIXED][sides])
            dx = dy = 0.0
            if not sides:
                dx, dy = 0.3 * (rng.random() - 0.5), 0.3 * (rng.random() - 0.5)
            positions.append(Point2(i + dx, j + dy))
    triangles = []
    for j in range(cells):
        for i in range(cells):
            a, b = j * (cells + 1) + i, j * (cells + 1) + i + 1
            c, d = b + cells + 1, a + cells + 1
            triangles += [Triangle(len(triangles), (a, b, c)),
                          Triangle(len(triangles) + 1, (a, c, d))]
    return mobility, positions, triangles


def moved(columns, old, new):
    """The columns with node ``old`` renumbered ``new``; the nodes between
    shift by one to make room."""
    mobility, positions, triangles = columns
    order = list(range(len(positions)))
    order.insert(new, order.pop(old))
    rank = {nid: k for k, nid in enumerate(order)}
    return ([mobility[nid] for nid in order], [positions[nid] for nid in order],
            [Triangle(t.id, tuple(rank[nid] for nid in t.nodes)) for t in triangles])


def with_node(lines, nid, fields):
    """The lines with node line ``nid`` inserted; the nodes after it, and
    every reference to them, grow by one."""
    n = int(lines[1].split()[1])
    head = triangle_line(lines, 0) - 1
    m = int(lines[head].split()[1])
    after = [f"{k + 1} {line.split(' ', 1)[1]}"
             for k, line in enumerate(lines[2 + nid:2 + n], start=nid)]
    tris = [" ".join([tid] + [str(int(v) + (int(v) >= nid)) for v in nodes])
            for tid, *nodes in map(str.split, lines[head + 1:head + 1 + m])]
    return [lines[0], f"nodes {n + 1}", *lines[2:2 + nid], f"{nid} {fields}", *after,
            lines[head], *tris, *lines[head + 1 + m:]]


def with_triangle(lines, tid, nodes):
    """The lines with triangle line ``tid`` inserted; the ids of the
    triangles after it grow by one."""
    head = triangle_line(lines, 0) - 1
    m = int(lines[head].split()[1])
    after = [f"{k + 1} {line.split(' ', 1)[1]}"
             for k, line in enumerate(lines[head + 1 + tid:head + 1 + m], start=tid)]
    return [*lines[:head], f"triangles {m + 1}", *lines[head + 1:head + 1 + tid],
            f"{tid} {nodes[0]} {nodes[1]} {nodes[2]}", *after, *lines[head + 1 + m:]]


class Box:
    """The indented box: a fault goes on a line drawn at random."""

    def __init__(self):
        self.mesh = generate_fixture(FixtureKind.INDENTED_BOX, 1, 0.5)
        self.lines = mesh_to_text(self.mesh).splitlines()

    def node(self, rng, ids):
        return rng.choice(ids)

    def triangle(self, rng):
        return rng.randrange(len(self.mesh.triangles))

    def slot(self, count):
        """The id of an added node or triangle: after the last."""
        return count

    def cut(self, rng, first, end):
        """Where a file is cut in the section of lines ``first`` to ``end``."""
        return rng.randrange(first, end)

    def foreign(self, columns, nid):
        """The lines of another mesh, and the id of its node ``nid`` there."""
        return hand_written_text(*columns).splitlines(), nid


class Lattice:
    """The lattice: a fault goes on node or triangle ``edge``, the last
    line of a chunk (meshio.CHUNK - 1) or the first line of the next."""

    def __init__(self, edge):
        self.edge = edge
        self.columns = lattice_columns()
        self._build()

    def _build(self):
        self.mesh = build_topology(*self.columns)
        self.lines = mesh_to_text(self.mesh).splitlines()

    def node(self, rng, ids):
        # the node drawn is renumbered to the edge
        self.columns = moved(self.columns, rng.choice(ids), self.edge)
        self._build()
        return self.edge

    def triangle(self, rng):
        return self.edge

    def slot(self, count):
        return self.edge

    def cut(self, rng, first, end):
        return first + self.edge + 1

    def foreign(self, columns, nid):
        # the other mesh is added to the lattice, node nid renumbered to the edge
        mobility, positions, triangles = self.columns
        n, m = len(positions), len(triangles)
        union = (mobility + columns[0], positions + columns[1],
                 triangles + [Triangle(m + t.id, tuple(n + v for v in t.nodes))
                              for t in columns[2]])
        return hand_written_text(*moved(union, n + nid, self.edge)).splitlines(), self.edge


BASES = {"box": Box,
         "chunk_end": lambda: Lattice(meshio.CHUNK - 1),
         "chunk_start": lambda: Lattice(meshio.CHUNK)}


def fault_flipped(rng, base):
    tid = base.triangle(rng)
    lines = base.lines
    a, b, c = base.mesh.triangles[tid].nodes
    at = triangle_line(lines, tid)
    lines[at] = f"{tid} {a} {c} {b}"
    p = [base.mesh.position(n) for n in (a, c, b)]
    return lines, at, ValidationError, f"triangle {tid} has non-positive signed area {signed_area(*p):g}"


def fault_repeated_edge(rng, base):
    tid = base.slot(len(base.mesh.triangles))
    a, b, c = base.mesh.triangles[rng.randrange(tid)].nodes
    lines = with_triangle(base.lines, tid, (b, c, a))
    return (lines, triangle_line(lines, tid), ValidationError,
            f"directed edge ({b}, {c}) belongs to more than one triangle")


def fault_repeated_node(rng, base):
    tid = base.triangle(rng)
    lines = base.lines
    a, b, _c = base.mesh.triangles[tid].nodes
    nodes = rng.choice([(a, a, b), (a, b, b), (a, b, a)])
    at = triangle_line(lines, tid)
    lines[at] = f"{tid} {nodes[0]} {nodes[1]} {nodes[2]}"
    return lines, at, ValidationError, f"triangle {tid} has repeated nodes {nodes}"


def fault_unknown_node(rng, base):
    tid = base.triangle(rng)
    lines = base.lines
    a, b, _c = base.mesh.triangles[tid].nodes
    unknown = rng.choice([len(base.mesh.nodes), len(base.mesh.nodes) + 7, -1])
    at = triangle_line(lines, tid)
    lines[at] = f"{tid} {a} {b} {unknown}"
    return lines, at, ValidationError, f"triangle {tid} references unknown node {unknown}"


def fault_orphan(rng, base):
    nid = base.slot(len(base.mesh.nodes))
    lines = with_node(base.lines, nid, "9 9 F")
    return lines, node_line(nid), ValidationError, f"node {nid} belongs to no triangle"


def fault_internal_on_boundary(rng, base):
    # every node of either base that is not internal lies on its boundary
    nid = base.node(rng, [n.id for n in base.mesh.nodes if n.mobility is not Mobility.INTERNAL])
    lines = base.lines
    at = node_line(nid)
    lines[at] = lines[at].rsplit(" ", 1)[0] + " I"
    return lines, at, ValidationError, f"node {nid} is marked internal but lies on a boundary edge"


def fault_boundary_off_boundary(rng, base):
    nid = base.node(rng, sorted(base.mesh.balls))
    lines = base.lines
    at = node_line(nid)
    lines[at] = lines[at].rsplit(" ", 1)[0] + " B7"
    return (lines, at, ValidationError,
            f"node {nid} is marked movable-boundary but lies on no boundary edge")


def fault_tangled(rng, base):
    fan = wound_fan(rng.choice([Mobility.INTERNAL, Mobility.FIXED]))
    lines, nid = base.foreign(fan, 0)
    return (lines, node_line(nid), ValidationError,
            f"triangles around interior node {nid} wind 2 times around it")


def fault_pinched(rng, base):
    mobility, positions, triangles, pinched = pinched_strip(rng.choice([3, 4]))
    lines, lowest = base.foreign((mobility, positions, triangles), min(pinched))
    return (lines, node_line(lowest), ValidationError,
            f"node {lowest} has more than one outgoing boundary edge")


def fault_bad_token(rng, base):
    if rng.random() < 0.5:
        nid = base.node(rng, range(len(base.mesh.nodes)))
        lines = base.lines
        at = node_line(nid)
        lines[at] = lines[at].replace(" ", " x", 1)
        return lines, at, ParseError, f"bad node fields in {lines[at]!r}"
    tid = base.triangle(rng)
    lines = base.lines
    at = triangle_line(lines, tid)
    lines[at] = lines[at] + ".0"
    return lines, at, ParseError, f"bad triangle fields in {lines[at]!r}"


def fault_id_gap(rng, base):
    # from one line to the end of its section, every id is one too high
    if rng.random() < 0.5:
        kind, first = "node", base.node(rng, range(len(base.mesh.nodes)))
        lines = base.lines
        at, end = node_line(first), node_line(len(base.mesh.nodes))
    else:
        kind, first = "triangle", base.triangle(rng)
        lines = base.lines
        at, end = triangle_line(lines, first), triangle_line(lines, len(base.mesh.triangles))
    for k in range(at, end):
        rid, rest = lines[k].split(" ", 1)
        lines[k] = f"{int(rid) + 1} {rest}"
    return lines, at, ParseError, f"{kind} ids must be dense, expected {first}"


def fault_truncated(rng, base):
    lines = base.lines
    header = triangle_line(lines, 0) - 1
    cut, expect = rng.choice([(base.cut(rng, 2, header), "a node line"),
                              (header, "'triangles <count>'"),
                              (base.cut(rng, header + 1, len(lines)), "a triangle line")])
    return lines[:cut], EOF, ParseError, f"unexpected end of file, expected {expect}"


FAULTS = [fault_flipped, fault_repeated_edge, fault_repeated_node, fault_unknown_node,
          fault_orphan, fault_internal_on_boundary, fault_boundary_off_boundary,
          fault_tangled, fault_pinched, fault_bad_token, fault_id_gap, fault_truncated]


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
@pytest.mark.parametrize("base, seed", [
    *(pytest.param("box", seed, id=str(seed)) for seed in range(6)),
    *(pytest.param(edge, seed, id=f"{edge}-{seed}")
      for edge in ("chunk_end", "chunk_start") for seed in range(3)),
])
def test_load_fault_under_comments(fault, base, seed):
    rng = random.Random(seed)
    lines, faulty, error, message = fault(rng, BASES[base]())
    text, line_no = with_noise(lines, rng, faulty)
    if faulty == EOF:
        # a file that ends early names the line after its last line
        line_no = len(text.splitlines()) + 1
    with pytest.raises(error) as err:
        parse_mesh_text(text)
    assert type(err.value) is error
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def test_lattice_sections_span_chunks():
    mobility, positions, triangles = lattice_columns()
    assert len(positions) > meshio.CHUNK + 1 and len(triangles) > meshio.CHUNK + 1
    # the bulk parse learns each chain's boundary token as it meets one
    lines = mesh_to_text(build_topology(mobility, positions, triangles)).splitlines()
    assert {line.split()[3] for line in lines[2:2 + len(positions)]} == {
        "F", "I", "B0", "B1", "B2", "B3"}


@pytest.mark.parametrize("seed", range(4))
def test_comments_and_blank_lines_load_the_same_mesh(seed):
    rng = random.Random(seed)
    meshes = [generate_fixture(kind, seed, 0.3) for kind in FixtureKind]
    # every lattice triangle has an rref entry, so that section spans
    # chunks too
    lattice = lattice_columns()
    meshes.append(build_topology(*lattice, {tid: 0.5 + (tid % 7) / 8 for tid in
                                            range(len(lattice[2]))}))
    for mesh in meshes:
        mesh.rref[0] = 0.5
        text = mesh_to_text(mesh)
        noisy, _ = with_noise(text.splitlines(), rng)
        assert noisy != text
        assert parse_mesh_text(noisy) == mesh


TOKENS = ["x", "0", "1", "-1", "7", "+3", "007", "2.5", "1e400", "nan", "-inf",
          "F", "I", "B", "B0", "B9", "Bx", "B-2", "1_000", "0x10"]


def load_outcome(text):
    try:
        return parse_mesh_text(text)
    except (ParseError, ValidationError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("seed", range(4))
def test_bulk_parse_agrees_with_the_line_parse(monkeypatch, seed):
    # a chunk passes the bulk tests exactly when the line parse accepts
    # it: files with one token replaced, dropped or repeated load to the
    # same mesh, or fail with the same error, when every chunk is parsed
    # line by line
    rng = random.Random(seed)
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, seed, 0.5)
    mesh.rref.update((tid, 0.5 + tid / 64) for tid in range(0, len(mesh.triangles), 3))
    lines = mesh_to_text(mesh).splitlines()
    rows = [at for at, line in enumerate(lines) if line[0].isdigit()]
    monkeypatch.setattr(meshio, "CHUNK", 7)

    def line_by_line(lines, start, end, fields):
        return ((lo, min(lo + meshio.CHUNK, end), None)
                for lo in range(start, end, meshio.CHUNK))

    for _ in range(120):
        edited = list(lines)
        at = rng.choice(rows)
        parts = edited[at].split()
        k = rng.randrange(len(parts))
        edit = rng.randrange(4)
        if edit == 0:
            parts[k] = rng.choice(TOKENS)
        elif edit == 1:
            del parts[k]
        elif edit == 2:
            parts.insert(k, parts[k])
        else:
            parts[0] = str(int(parts[0]) + rng.choice([-1, 1]))
        edited[at] = " ".join(parts)
        text = "\n".join(edited) + "\n"
        bulk = load_outcome(text)
        with monkeypatch.context() as patch:
            patch.setattr(meshio, "_chunks", line_by_line)
            assert load_outcome(text) == bulk, edited[at]
