"""Standalone SVG rendering of a mesh, optionally colored by shape quality.

The Q2 colouring reads each triangle's radius ratio from the mesh's
per-triangle quality table (``Mesh.quality_table``), which re-evaluates
only the triangles whose nodes moved since its last read. Each node's
coordinates and the common stroke attributes are formatted once.
"""

from __future__ import annotations

import enum

from .mesh import Mesh


class ColorBy(enum.Enum):
    Q2 = "q2"
    NONE = "none"


def _fill(q2: float) -> str:
    # linear red (0) -> green (1)
    q2 = min(max(q2, 0.0), 1.0)
    red = round(255 * (1.0 - q2))
    green = round(255 * q2)
    return f"rgb({red},{green},0)"


def mesh_to_svg(mesh: Mesh, color_by: ColorBy = ColorBy.Q2) -> str:
    xs = [n.position.x for n in mesh.nodes]
    ys = [n.position.y for n in mesh.nodes]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    width = xmax - xmin
    height = ymax - ymin
    margin = 0.05 * max(width, height, 1e-30)
    stroke = 0.01 * max(width, height, 1e-30)

    # flip y so the picture matches the mathematical orientation
    view = (f"{xmin - margin:.6g} {-(ymax + margin):.6g} "
            f"{width + 2 * margin:.6g} {height + 2 * margin:.6g}")
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" '
        f'width="800" height="{800 * (height + 2 * margin) / max(width + 2 * margin, 1e-30):.6g}">',
    ]
    coords = [f"{n.position.x:.6g},{-n.position.y:.6g}" for n in mesh.nodes]
    q2s = mesh.quality_table().q2 if color_by is ColorBy.Q2 else None
    stroke_attrs = f'stroke="black" stroke-width="{stroke:.6g}"'
    for tid, tri in enumerate(mesh.triangles):
        fill = "white" if q2s is None else _fill(q2s[tid])
        n0, n1, n2 = tri.nodes
        out.append(f'<polygon points="{coords[n0]} {coords[n1]} {coords[n2]}" '
                   f'fill="{fill}" {stroke_attrs}/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_svg(mesh: Mesh, path: str, color_by: ColorBy = ColorBy.Q2) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(mesh_to_svg(mesh, color_by))
