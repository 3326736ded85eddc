"""Seeded input meshes for the benchmark workloads.

Each generator returns the text of an ``osmot-mesh v1`` file, written
directly with 17 significant digits, so that the bytes depend only on the
seed and on the parameters fixed here. Nothing here imports osmot: the
program under test receives only the generated files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

HEADER = "osmot-mesh v1"

# jitter64: unit square, 64 x 64 cells, fixed boundary
JITTER_CELLS = 64
JITTER_AMPLITUDE = 0.225  # of the cell pitch, per coordinate

# rezone: 128 x 32 cells of pitch REZONE_PITCH, rigid die on the top
# surface, movable top chains on either side of it
REZONE_COLS = 128
REZONE_ROWS = 32
REZONE_PITCH = 1.0 / 32.0
REZONE_DIE_CELLS = 2  # die spans 3 top nodes, as in scripts/indentation_demo.py
REZONE_JITTER = 0.05  # of the pitch; small enough that no element is flagged

# graded-general: 32 x 32 cells of a conformal (complex exponential) map,
# so that cell size grows by GRADED_RATIO across the mesh while cells stay
# nearly square; every element carries its own reference radius
GRADED_CELLS = 32
GRADED_RATIO = 4.0
GRADED_JITTER = 0.225  # of the local pitch, per coordinate


@dataclass(frozen=True)
class GeneratedMesh:
    text: str
    die_ids: tuple[int, ...] = ()  # rezone only: nodes the script lowers


def _checkerboard(cols: int, rows: int, nid) -> list[tuple[int, int, int]]:
    """Counter-clockwise triangles of a cell lattice, diagonals alternating."""
    tris = []
    for j in range(rows):
        for i in range(cols):
            n00, n10 = nid(i, j), nid(i + 1, j)
            n01, n11 = nid(i, j + 1), nid(i + 1, j + 1)
            if (i + j) % 2:
                tris += [(n00, n10, n01), (n10, n11, n01)]
            else:
                tris += [(n00, n10, n11), (n00, n11, n01)]
    return tris


def _mesh_text(points: list[tuple[float, float, str]],
               tris: list[tuple[int, int, int]],
               rref: list[float] | None = None) -> str:
    out = [HEADER, f"nodes {len(points)}"]
    out += [f"{k} {x:.17g} {y:.17g} {mob}" for k, (x, y, mob) in enumerate(points)]
    out.append(f"triangles {len(tris)}")
    out += [f"{k} {a} {b} {c}" for k, (a, b, c) in enumerate(tris)]
    if rref is not None:
        out.append(f"rref {len(rref)}")
        out += [f"{k} {v:.17g}" for k, v in enumerate(rref)]
    return "\n".join(out) + "\n"


def jitter_lattice(seed: int, cells: int = JITTER_CELLS) -> GeneratedMesh:
    """Unit-square checkerboard lattice, interior nodes jittered by
    up to JITTER_AMPLITUDE * h in each coordinate, boundary fixed."""
    rng = random.Random(seed)
    h = 1.0 / cells
    amp = JITTER_AMPLITUDE * h
    points = []
    for j in range(cells + 1):
        for i in range(cells + 1):
            x, y = i * h, j * h
            if 0 < i < cells and 0 < j < cells:
                x += rng.uniform(-amp, amp)
                y += rng.uniform(-amp, amp)
                points.append((x, y, "I"))
            else:
                points.append((x, y, "F"))
    tris = _checkerboard(cells, cells, lambda i, j: j * (cells + 1) + i)
    return GeneratedMesh(_mesh_text(points, tris))


def die_box(seed: int, cols: int = REZONE_COLS, rows: int = REZONE_ROWS,
            die_cells: int = REZONE_DIE_CELLS) -> GeneratedMesh:
    """Box under a rigid die: the centred top nodes of the die are fixed
    (the script moves them), the rest of the top surface forms two movable
    chains, the other sides are fixed and the interior is jittered slightly."""
    rng = random.Random(seed)
    h = REZONE_PITCH
    amp = REZONE_JITTER * h
    die_lo = (cols - die_cells) // 2
    die_cols = range(die_lo, die_lo + die_cells + 1)

    def nid(i: int, j: int) -> int:
        return j * (cols + 1) + i

    # _build_chains numbers chains by their smallest node id: the chain
    # left of the die ends at the top-left corner, so it comes first
    points = []
    for j in range(rows + 1):
        for i in range(cols + 1):
            x, y = i * h, j * h
            if j == rows and 0 < i < cols and i not in die_cols:
                mob = "B0" if i < die_lo else "B1"
            elif i in (0, cols) or j in (0, rows):
                mob = "F"
            else:
                x += rng.uniform(-amp, amp)
                y += rng.uniform(-amp, amp)
                mob = "I"
            points.append((x, y, mob))
    tris = _checkerboard(cols, rows, nid)
    return GeneratedMesh(_mesh_text(points, tris),
                         die_ids=tuple(nid(i, rows) for i in die_cols))


def graded_lattice(seed: int, cells: int = GRADED_CELLS) -> GeneratedMesh:
    """Size-graded lattice with a reference radius for every element.

    The lattice (u, v) in [0, k]^2 is mapped by z -> exp(u + iv), with
    k = ln GRADED_RATIO: an annular sector whose cells grow by that ratio
    from the inner to the outer arc. Each element's reference radius is
    the circumradius of its unjittered shape, so the size term of the
    objective holds the grading in place.
    """
    rng = random.Random(seed)
    k = math.log(GRADED_RATIO)
    du = k / cells

    def nid(i: int, j: int) -> int:
        return j * (cells + 1) + i

    ideal = []
    points = []
    for j in range(cells + 1):
        for i in range(cells + 1):
            r, t = math.exp(i * du), j * du
            x, y = r * math.cos(t), r * math.sin(t)
            ideal.append((x, y))
            if 0 < i < cells and 0 < j < cells:
                amp = GRADED_JITTER * r * du
                x += rng.uniform(-amp, amp)
                y += rng.uniform(-amp, amp)
                points.append((x, y, "I"))
            else:
                points.append((x, y, "F"))
    tris = _checkerboard(cells, cells, nid)
    rref = [_circumradius(ideal[a], ideal[b], ideal[c]) for a, b, c in tris]
    return GeneratedMesh(_mesh_text(points, tris, rref))


def _circumradius(p0, p1, p2) -> float:
    a = math.dist(p0, p1)
    b = math.dist(p1, p2)
    c = math.dist(p2, p0)
    area = 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                     - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    return a * b * c / (4.0 * area)
