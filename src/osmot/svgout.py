"""Standalone SVG rendering of a mesh, optionally colored by shape quality.

The Q2 colouring reads each triangle's radius ratio from the mesh's
per-triangle quality table (``Mesh.quality_table``), which re-evaluates
only the triangles whose nodes moved since its last read. A triangle's
radius ratio changes only with the position of one of its nodes.

Rendering keeps its text on the mesh (``Mesh._svg_text``): the ``.6g``
coordinates of every node, and each triangle's polygon element up to its
stroke attributes. The stroke width and the viewBox follow the bounding
box of the mesh's one list of positions (``Mesh._positions``), so they
are formatted on every render and never cached inside a polygon.
Positions change only through ``Mesh.set_position``, which records the
node in the text's ``moved`` set, so a later render formats again the
coordinates of the nodes moved since the previous render and the
polygons of the triangles in their stars (``Mesh.stars``, the mesh's one
node-to-triangle incidence). A render in the other colouring formats
every polygon again; only the Q2 colouring reads the quality table. A
fill colour is formatted once per (red, green) pair and kept for every
later polygon and mesh.
"""

from __future__ import annotations

import enum

from .geometry import Point2
from .mesh import Mesh


class ColorBy(enum.Enum):
    Q2 = "q2"
    NONE = "none"


class SvgText:
    """The formatted node coordinates and polygons of one mesh."""

    __slots__ = ("moved", "coords", "polygons", "color_by")

    def __init__(self, mesh: Mesh) -> None:
        self.moved: set[int] = set()
        self.coords = list(map(_coords, mesh._positions))
        self.polygons = [""] * len(mesh.triangles)
        self.color_by: ColorBy | None = None  # colouring of the polygons


def _coords(p: Point2) -> str:
    return f"{p.x:.6g},{-p.y:.6g}"


# the fill string of each (red, green) formatted so far; an entry depends
# only on its key, and red + green is 254, 255 or 256, so the dict stays
# below 800 entries whatever meshes the process renders
_FILLS: dict[tuple[int, int], str] = {}


def _fill(q2: float) -> str:
    # linear red (0) -> green (1)
    q2 = min(max(q2, 0.0), 1.0)
    key = round(255 * (1.0 - q2)), round(255 * q2)
    fill = _FILLS.get(key)
    if fill is None:
        fill = _FILLS[key] = f"rgb({key[0]},{key[1]},0)"
    return fill


def _update(mesh: Mesh, color_by: ColorBy) -> SvgText:
    """Bring the mesh's cached coordinates and polygons up to date."""
    text = mesh._svg_text
    if text is None:
        text = mesh._svg_text = SvgText(mesh)
    positions, triangles = mesh._positions, mesh.triangles
    coords = text.coords
    moved = text.moved
    for nid in moved:
        coords[nid] = _coords(positions[nid])

    table = mesh.quality_table() if color_by is ColorBy.Q2 else None
    if text.color_by is not color_by:
        dirty = range(len(triangles))
        text.color_by = color_by
    else:
        dirty = {tid for nid in moved for tid, _n1, _n2 in mesh.stars[nid]}
    moved.clear()

    q2s = None if table is None else table.q2
    polygons = text.polygons
    for tid in dirty:
        n0, n1, n2 = triangles[tid].nodes
        fill = "white" if q2s is None else _fill(q2s[tid])
        polygons[tid] = (f'<polygon points="{coords[n0]} {coords[n1]} '
                         f'{coords[n2]}" fill="{fill}"')
    return text


def _svg_sections(mesh: Mesh, color_by: ColorBy) -> tuple[str, str, str]:
    """The document in three consecutive pieces: the header, the polygons
    joined by their common stroke attributes, and the footer, which ends
    the last polygon."""
    text = _update(mesh, color_by)
    if mesh._positions:
        xs = [p.x for p in mesh._positions]
        ys = [p.y for p in mesh._positions]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
    else:
        # nothing to frame: show the unit square
        xmin, xmax, ymin, ymax = 0.0, 1.0, 0.0, 1.0
    width = xmax - xmin
    height = ymax - ymin
    margin = 0.05 * max(width, height, 1e-30)
    stroke = 0.01 * max(width, height, 1e-30)

    # flip y so the picture matches the mathematical orientation
    view = (f"{xmin - margin:.6g} {-(ymax + margin):.6g} "
            f"{width + 2 * margin:.6g} {height + 2 * margin:.6g}")
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" '
        f'width="800" height="{800 * (height + 2 * margin) / max(width + 2 * margin, 1e-30):.6g}">\n')
    end = f' stroke="black" stroke-width="{stroke:.6g}"/>\n'
    footer = "</svg>\n"
    if text.polygons:
        footer = end + footer
    return header, end.join(text.polygons), footer


def mesh_to_svg(mesh: Mesh, color_by: ColorBy = ColorBy.Q2) -> str:
    return "".join(_svg_sections(mesh, color_by))


def render_svg(mesh: Mesh, path: str, color_by: ColorBy = ColorBy.Q2) -> None:
    # one write per section, so that no whole-document string is built
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for section in _svg_sections(mesh, color_by):
            fh.write(section)
