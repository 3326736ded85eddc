"""The per-triangle quality table never goes stale.

Random sequences of ``set_position`` moves (jitters, inverting jumps,
moves onto another node or onto the midpoint of two nodes, of internal,
boundary and fixed nodes alike) and rref edits are interleaved with reads
through ``quality_report``, ``flag_nodes`` and ``mesh_to_svg``. Every
read must give the same bits as the same read on a fresh copy of the
mesh, which builds its table from scratch. The below-q_min set the table
keeps by deltas must equal a recount of its own q2 list after every
step, and a read must re-evaluate only the triangles around the nodes
moved since the last one.

The table's inlined evaluation gives the bits of ``triangle_geometry``
with ``q2_shape`` and ``size_radius``, and the report's ``min_q1`` gives
the bits of the per-element minimum it no longer forms.
"""

from __future__ import annotations

import dataclasses
import math
from operator import truediv

import pytest
from hypothesis import example, given, settings, strategies as st

from osmot.fixtures import FixtureKind, generate_fixture
from osmot.geometry import Point2, triangle_geometry
from osmot.mesh import Mesh, Mobility, Node, QualityTable, Triangle, flag_nodes
from osmot.meshio import ValidationError, mesh_to_text, parse_mesh_text, read_mesh, write_mesh
from osmot.quality import QualityConfig, q2_shape, size_radius
from osmot.report import quality_report
from osmot.svgout import ColorBy, mesh_to_svg

MESHES = {
    "patch32": lambda: generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45),
    "indentedbox": lambda: generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6),
}
R_REFS = (0.5, 1.0, 2.5)
Q_MINS = (0.3, 0.6, 1.0)

index = st.integers(min_value=0, max_value=10**6)
offset = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
moves = st.one_of(
    st.tuples(st.just("jitter"), index, offset, offset),
    st.tuples(st.just("jump"), index, offset, offset),  # often inverts
    st.tuples(st.just("onto"), index, index),  # coincident nodes
    st.tuples(st.just("midpoint"), index, index, index),  # collinear nodes
)
edits = st.one_of(
    st.tuples(st.just("rref"), index, st.floats(min_value=0.1, max_value=4.0)),
    st.tuples(st.just("unrref"), index),
)
reads = st.one_of(
    st.tuples(st.just("report"), st.sampled_from(R_REFS)),
    st.tuples(st.just("flag"), st.sampled_from(Q_MINS)),
    st.tuples(st.just("svg"), st.sampled_from(list(ColorBy))),
)
steps = st.lists(st.one_of(moves, moves, edits, reads), max_size=40)


def fresh_copy(mesh: Mesh) -> Mesh:
    """The mesh rebuilt from its text, with no quality table yet.

    A mesh with an inverted element fails validation on parse; it is
    rebuilt from the same (frozen) nodes, positions and topology instead.
    """
    try:
        return parse_mesh_text(mesh_to_text(mesh))
    except ValidationError:
        return Mesh(nodes=list(mesh.nodes), triangles=list(mesh.triangles),
                    _positions=[mesh.position(n.id) for n in mesh.nodes],
                    stars=list(mesh.stars), balls=dict(mesh.balls),
                    chains=list(mesh.chains), rref=dict(mesh.rref))


def bits(value):
    """A comparable form in which two floats are equal only bit for bit."""
    if dataclasses.is_dataclass(value):
        return bits(dataclasses.astuple(value))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return value.hex()
    return value


def read(mesh: Mesh, step) -> object:
    kind, arg = step
    if kind == "report":
        return bits(quality_report(mesh, QualityConfig(), arg, 7))
    if kind == "flag":
        return flag_nodes(mesh, QualityConfig(q_min=arg))
    return mesh_to_svg(mesh, arg)


def apply(mesh: Mesh, step) -> None:
    kind, *args = step
    n_nodes = len(mesh.nodes)
    if kind == "jitter" or kind == "jump":
        i, dx, dy = args
        scale = 0.05 if kind == "jitter" else 1.5
        p = mesh.position(i % n_nodes)
        mesh.set_position(i % n_nodes, Point2(p.x + scale * dx, p.y + scale * dy))
    elif kind == "onto":
        i, j = args
        mesh.set_position(i % n_nodes, mesh.position(j % n_nodes))
    elif kind == "midpoint":
        i, j, k = args
        p, q = mesh.position(j % n_nodes), mesh.position(k % n_nodes)
        mesh.set_position(i % n_nodes, Point2(0.5 * (p.x + q.x), 0.5 * (p.y + q.y)))
    elif kind == "rref":
        i, value = args
        mesh.rref[i % len(mesh.triangles)] = value
    else:
        mesh.rref.pop(args[0] % len(mesh.triangles), None)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(list(MESHES)), steps=steps,
       triangle_nodes=st.booleans())
def test_table_reads_match_a_fresh_mesh(name, steps, triangle_nodes):
    mesh = MESHES[name]()
    if triangle_nodes:
        # move the three nodes of one triangle, so that all three coincide
        a, b, c = mesh.triangles[0].nodes
        steps = [("onto", a, b), ("onto", c, b), *steps]
    for step in steps:
        if step[0] in ("report", "flag", "svg"):
            assert read(mesh, step) == read(fresh_copy(mesh), step)
        else:
            apply(mesh, step)
        if mesh._quality is not None:
            assert_below_set_matches_q2(mesh._quality)
    final = fresh_copy(mesh)
    for r_ref in R_REFS:
        assert read(mesh, ("report", r_ref)) == read(final, ("report", r_ref))
    for q_min in Q_MINS:
        assert read(mesh, ("flag", q_min)) == read(final, ("flag", q_min))
    assert read(mesh, ("svg", ColorBy.Q2)) == read(final, ("svg", ColorBy.Q2))


def assert_below_set_matches_q2(table: QualityTable) -> None:
    assert table._below == {tid for tid, q2 in enumerate(table.q2)
                            if q2 < table._q_min}


def test_report_after_each_loop_sees_the_moves_of_that_loop():
    mesh = MESHES["patch32"]()
    before = quality_report(mesh, QualityConfig(), 1.0, 0)
    nid = next(n.id for n in mesh.nodes if n.id in mesh.balls)
    a = mesh.balls[nid].elements[0][1]
    mesh.set_position(nid, mesh.position(a))
    after = quality_report(mesh, QualityConfig(), 1.0, 1)
    assert after.min_q2 == 0.0 < before.min_q2
    assert bits(after) == bits(
        quality_report(fresh_copy(mesh), QualityConfig(), 1.0, 1))


def test_direct_position_write_raises():
    # a node holds no position and its fields are frozen: set_position is
    # the only way to move a node, so no cache misses one
    mesh = MESHES["patch32"]()
    nid = next(iter(mesh.balls))
    assert "position" not in {f.name for f in dataclasses.fields(Node)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.nodes[nid].mobility = Mobility.FIXED


def test_read_evaluates_only_the_triangles_around_moved_nodes(monkeypatch):
    mesh = MESHES["patch32"]()
    table = mesh.quality_table()
    evaluated: list[int] = []
    evaluate = QualityTable._evaluate

    def counting(self, mesh, tids):
        tids = list(tids)
        evaluated.extend(tids)
        evaluate(self, mesh, tids)

    monkeypatch.setattr(QualityTable, "_evaluate", counting)
    moved = sorted(mesh.balls)[:3]
    for nid in moved + moved[:1]:  # the first node moves twice
        p = mesh.position(nid)
        mesh.set_position(nid, Point2(p.x + 0.01, p.y - 0.01))
    quality_report(mesh, QualityConfig(), 1.0, 1)
    around = {tid for nid in moved for tid, _n1, _n2 in mesh.stars[nid]}
    assert sorted(evaluated) == sorted(around)
    assert len(around) < len(mesh.triangles)
    evaluated.clear()
    quality_report(mesh, QualityConfig(), 1.0, 2)
    flag_nodes(mesh, QualityConfig())
    assert evaluated == []


def test_read_mesh_builds_no_table(tmp_path):
    path = tmp_path / "patch.mesh"
    write_mesh(MESHES["patch32"](), str(path))
    mesh = read_mesh(str(path))
    mesh_to_text(mesh)
    mesh_to_svg(mesh, ColorBy.NONE)  # a first render formats every polygon
    assert mesh._quality is None
    quality_report(mesh, QualityConfig(), 1.0, 0)
    assert mesh._quality is not None


def test_uncoloured_render_after_a_move_builds_no_table():
    mesh = MESHES["patch32"]()
    mesh_to_svg(mesh, ColorBy.NONE)
    nid = next(iter(mesh.balls))
    p = mesh.position(nid)
    mesh.set_position(nid, Point2(p.x + 0.01, p.y - 0.02))
    text = mesh_to_svg(mesh, ColorBy.NONE)
    assert mesh._quality is None
    assert text == mesh_to_svg(fresh_copy(mesh), ColorBy.NONE)


def test_table_is_not_part_of_equality_or_repr():
    mesh, other = MESHES["patch32"](), MESHES["patch32"]()
    text = repr(mesh)
    flag_nodes(mesh, QualityConfig())
    assert mesh == other
    assert repr(mesh) == text == repr(other)


def test_rref_edit_reaches_the_next_report():
    mesh = MESHES["indentedbox"]()
    mesh.rref[0] = 2.0
    cfg = QualityConfig()
    first = quality_report(mesh, cfg, 1.0, 0)
    mesh.rref[5] = 1e-3
    edited = quality_report(mesh, cfg, 1.0, 0)
    assert edited.min_q1 < first.min_q1
    assert bits(edited) == bits(quality_report(fresh_copy(mesh), cfg, 1.0, 0))
    del mesh.rref[5]
    assert bits(quality_report(mesh, cfg, 1.0, 0)) == bits(first)


# Coordinates of every sign and of very different sizes: tiny ones make
# a*b*c underflow, huge ones make it overflow.
scale = st.sampled_from([1.0, 2.0**-360, 2.0**340])
coordinate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       st.floats(min_value=-1e3, max_value=1e3))
point = st.builds(Point2, coordinate, coordinate)


@st.composite
def triangle_points(draw):
    # a random triangle is inverted about half the time
    p0, p1, p2 = draw(point), draw(point), draw(point)
    kind = draw(st.sampled_from(["random", "collinear", "coincident", "point"]))
    if kind == "collinear":
        t = draw(st.floats(min_value=-2.0, max_value=2.0))
        p2 = Point2(p0.x + t * (p1.x - p0.x), p0.y + t * (p1.y - p0.y))
    elif kind == "coincident":
        p1 = p0
    elif kind == "point":
        p1 = p2 = p0
    k = draw(scale)
    return [Point2(k * p.x, k * p.y) for p in (p0, p1, p2)]


def expected_row(points) -> tuple:
    geom = triangle_geometry(*points)
    q2 = q2_shape(geom)
    return (q2.hex(), size_radius(geom).hex(),
            int(geom.area_signed <= 0.0))


def table_row(table: QualityTable) -> tuple:
    return (table.q2[0].hex(), table.circumradius[0].hex(), table.inverted[0])


@settings(max_examples=300, deadline=None)
@given(first=triangle_points(), second=triangle_points())
def test_inlined_evaluation_matches_the_helpers(first, second):
    nodes = [Node(i, Mobility.FIXED) for i in range(3)]
    # the stars of the three nodes, which set_position's refresh reads
    stars = [((0, 1, 2),), ((0, 2, 0),), ((0, 0, 1),)]
    mesh = Mesh(nodes=nodes, triangles=[Triangle(0, (0, 1, 2))],
                _positions=list(first), stars=stars)
    table = mesh.quality_table()  # evaluated as the table is built
    assert table_row(table) == expected_row(first)
    for nid, p in enumerate(second):
        mesh.set_position(nid, p)
    mesh.quality_table()  # evaluated again by a refresh
    assert table_row(table) == expected_row(second)
    assert_below_set_matches_q2(table)


radius = st.one_of(st.just(math.inf),
                   st.floats(min_value=5e-324, max_value=math.inf))
positive = st.one_of(st.sampled_from([0.5, 1.0, 2.5, 5e-324, 1e-300, 1e300]),
                     st.floats(min_value=5e-324, allow_infinity=False))


@given(radii=st.lists(radius, min_size=1, max_size=20), r_ref=positive)
@example(radii=[3.0, 1e10], r_ref=1e-300)  # the minimum 1e-310 is subnormal
@example(radii=[1e-300, 2.0], r_ref=1e300)  # one quotient overflows
def test_min_q1_is_r_ref_over_the_largest_radius(radii, r_ref):
    # Rounding is monotone: R_i <= R_j gives r_ref / R_i >= r_ref / R_j,
    # subnormal and overflowing quotients included.
    assert (r_ref / max(radii)).hex() == min(
        map(truediv, [r_ref] * len(radii), radii)).hex()


def test_min_q1_of_a_report_without_rref():
    mesh = MESHES["patch32"]()
    a, b, _c = mesh.triangles[0].nodes
    mesh.set_position(a, mesh.position(b))  # one radius becomes +inf
    assert not mesh.rref
    for r_ref in R_REFS + (1e-310,):
        report = quality_report(mesh, QualityConfig(), r_ref, 0)
        radii = mesh.quality_table().circumradius
        assert math.inf in radii
        assert report.min_q1.hex() == min(r_ref / r for r in radii).hex()
