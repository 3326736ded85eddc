"""The mesh-file and SVG text kept on a mesh never goes stale.

``mesh_to_text`` and ``mesh_to_svg`` format again only what moved since
the mesh was last written. Random sequences of ``set_position`` moves and
rref edits are interleaved with writes and renders in both colourings of
one mesh. Every output must equal, byte for byte, the output of the
reference formatters below, which format the whole mesh, and evaluate
the radius ratio of every triangle, on every call.
"""

from __future__ import annotations

from xml.etree import ElementTree

from hypothesis import given, settings, strategies as st

from osmot.fixtures import FixtureKind, generate_fixture
from osmot.geometry import Point2, triangle_geometry
from osmot.mesh import Mesh, Mobility, Node
from osmot.meshio import HEADER, mesh_to_text, write_mesh
from osmot.quality import QualityConfig, q2_shape
from osmot.report import quality_report
from osmot.svgout import ColorBy, _fill, mesh_to_svg, render_svg


def reference_text(mesh: Mesh) -> str:
    out = [HEADER, f"nodes {len(mesh.nodes)}"]
    for node in mesh.nodes:
        if node.mobility is Mobility.BOUNDARY:
            mob = f"B{node.chain_id}"
        else:
            mob = node.mobility.value
        p = mesh.position(node.id)
        out.append(f"{node.id} {p.x:.17g} {p.y:.17g} {mob}")
    out.append(f"triangles {len(mesh.triangles)}")
    for tri in mesh.triangles:
        out.append(f"{tri.id} {tri.nodes[0]} {tri.nodes[1]} {tri.nodes[2]}")
    if mesh.rref:
        out.append(f"rref {len(mesh.rref)}")
        for tid in sorted(mesh.rref):
            out.append(f"{tid} {mesh.rref[tid]:.17g}")
    return "\n".join(out) + "\n"


def reference_svg(mesh: Mesh, color_by: ColorBy) -> str:
    points = [mesh.position(n.id) for n in mesh.nodes]
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    width = xmax - xmin
    height = ymax - ymin
    margin = 0.05 * max(width, height, 1e-30)
    stroke = 0.01 * max(width, height, 1e-30)
    view = (f"{xmin - margin:.6g} {-(ymax + margin):.6g} "
            f"{width + 2 * margin:.6g} {height + 2 * margin:.6g}")
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" '
        f'width="800" height="{800 * (height + 2 * margin) / max(width + 2 * margin, 1e-30):.6g}">',
    ]
    coords = [f"{p.x:.6g},{-p.y:.6g}" for p in points]
    stroke_attrs = f'stroke="black" stroke-width="{stroke:.6g}"'
    for tri in mesh.triangles:
        fill = "white"
        if color_by is ColorBy.Q2:
            fill = _fill(q2_shape(triangle_geometry(*mesh.triangle_points(tri))))
        n0, n1, n2 = tri.nodes
        out.append(f'<polygon points="{coords[n0]} {coords[n1]} {coords[n2]}" '
                   f'fill="{fill}" {stroke_attrs}/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


MESHES = {
    "patch32": lambda: generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45),
    "indentedbox": lambda: generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6),
}

index = st.integers(min_value=0, max_value=10**6)
offset = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
moves = st.one_of(
    st.tuples(st.just("set"), index, offset, offset),
    st.tuples(st.just("set onto"), index, index),  # may keep the same position
)
edits = st.one_of(
    st.tuples(st.just("rref"), index, st.floats(min_value=0.1, max_value=4.0)),
    st.tuples(st.just("unrref"), index),
)
outputs = st.one_of(
    st.tuples(st.just("text")),
    st.tuples(st.just("svg"), st.sampled_from(list(ColorBy))),
)
steps = st.lists(st.one_of(moves, moves, edits, outputs, outputs), max_size=40)


def apply(mesh: Mesh, step) -> None:
    kind, *args = step
    n_nodes = len(mesh.nodes)
    if kind == "set":
        i, dx, dy = args
        p = mesh.position(i % n_nodes)
        mesh.set_position(i % n_nodes, Point2(p.x + 0.05 * dx, p.y + 0.05 * dy))
    elif kind == "set onto":
        i, j = args
        mesh.set_position(i % n_nodes, mesh.position(j % n_nodes))
    elif kind == "rref":
        i, value = args
        mesh.rref[i % len(mesh.triangles)] = value
    else:
        mesh.rref.pop(args[0] % len(mesh.triangles), None)


def check_output(mesh: Mesh, step) -> None:
    # each output consumes the moves recorded for it
    if step[0] == "text":
        assert mesh_to_text(mesh) == reference_text(mesh)
        assert not mesh._file_text.moved
    else:
        assert mesh_to_svg(mesh, step[1]) == reference_svg(mesh, step[1])
        assert not mesh._svg_text.moved


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(list(MESHES)), steps=steps)
def test_outputs_match_the_reference_formatters(name, steps):
    mesh = MESHES[name]()
    for step in steps:
        if step[0] in ("text", "svg"):
            check_output(mesh, step)
        else:
            apply(mesh, step)
    for step in (("text",), ("svg", ColorBy.Q2), ("svg", ColorBy.NONE)):
        check_output(mesh, step)


def test_table_catching_up_recolours_the_polygon():
    # A report between the move and the render catches the quality table
    # up first; the SVG text keeps its own record of the moved node, so the
    # render still recolours the polygons around it. Handing the node its
    # own position through set_position then changes nothing.
    mesh = MESHES["patch32"]()
    nid = next(iter(mesh.balls))
    mesh_to_svg(mesh, ColorBy.Q2)
    mesh.set_position(nid, Point2(0.99, 0.99))
    quality_report(mesh, QualityConfig(), 1.0, 0)
    assert mesh_to_svg(mesh, ColorBy.Q2) == reference_svg(mesh, ColorBy.Q2)
    mesh.set_position(nid, mesh.position(nid))
    assert mesh_to_svg(mesh, ColorBy.Q2) == reference_svg(mesh, ColorBy.Q2)


def test_negative_zero_is_a_new_position():
    # Point2(0.0, y) == Point2(-0.0, y), but .17g and .6g print 0 and -0:
    # set_position records the node whatever the new value
    mesh = MESHES["patch32"]()
    checks = (("text",), ("svg", ColorBy.Q2), ("svg", ColorBy.NONE))
    for step in checks:
        check_output(mesh, step)
    p = mesh.position(0)
    assert p.x == 0.0 and str(p.x) == "0.0"
    mesh.set_position(0, Point2(-0.0, p.y))
    assert mesh.position(0) == p
    for step in checks:
        check_output(mesh, step)
    assert " -0 " in mesh_to_text(mesh)


def test_written_files_equal_the_returned_text(tmp_path):
    mesh = MESHES["indentedbox"]()
    mesh.rref[3] = 0.75
    for rnd in range(3):
        for nid in (39, 40, 41):
            p = mesh.position(nid)
            mesh.set_position(nid, Point2(p.x, p.y - 0.05))
        mesh_path = tmp_path / f"round{rnd}.mesh"
        write_mesh(mesh, str(mesh_path))
        assert mesh_path.read_text() == mesh_to_text(mesh) == reference_text(mesh)
        for color_by in ColorBy:
            svg_path = tmp_path / f"round{rnd}-{color_by.value}.svg"
            render_svg(mesh, str(svg_path), color_by)
            assert (svg_path.read_text() == mesh_to_svg(mesh, color_by)
                    == reference_svg(mesh, color_by))


def test_zero_triangle_meshes(tmp_path):
    empty = Mesh(nodes=[], triangles=[], _positions=[])
    assert mesh_to_text(empty) == reference_text(empty) == f"{HEADER}\nnodes 0\ntriangles 0\n"
    path = tmp_path / "empty.svg"
    render_svg(empty, str(path))
    assert path.read_text() == mesh_to_svg(empty)
    root = ElementTree.parse(path).getroot()
    assert root.get("viewBox") == "-0.05 -1.05 1.1 1.1"
    assert len(root) == 0

    # nodes but no triangles: framed by the nodes, with no polygon
    lone = Mesh(nodes=[Node(0, Mobility.FIXED), Node(1, Mobility.FIXED)], triangles=[],
                _positions=[Point2(0.0, 0.0), Point2(2.0, 1.0)])
    assert mesh_to_text(lone) == reference_text(lone)
    for color_by in ColorBy:
        assert mesh_to_svg(lone, color_by) == reference_svg(lone, color_by)
