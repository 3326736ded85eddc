"""Built-in test meshes.

Four families:

- ``PATCH32``: a structured 32-element square patch on the unit square
  with fixed, optimally placed boundary nodes and 9 interior nodes
  displaced pseudo-randomly. Cell diagonals alternate rising/falling in a
  checkerboard, so the uniform lattice is the quality optimum.
- ``GRADED_INTERFACE``: a fine structured zone joined to a coarse
  structured zone through a small unstructured strip of distorted
  elements. Exercises whether a smoother preserves element-size grading.
- ``HORSESHOE``: a single non-convex ball whose neighbor centroid lies
  outside the kernel, so averaging-based relocation inverts an element.
- ``INDENTED_BOX``: a rectangle compressed under a deep indentation of
  the top boundary, with squeezed and skewed elements near the notch and
  a movable top-boundary chain.

All generators are deterministic for a given (seed, distortion).
"""

from __future__ import annotations

import enum
import math
import random

from .geometry import Point2, signed_area
from .mesh import Mesh, Mobility, Triangle, build_topology


class FixtureKind(enum.Enum):
    PATCH32 = "patch32"
    GRADED_INTERFACE = "graded"
    HORSESHOE = "horseshoe"
    INDENTED_BOX = "indentedbox"


PATCH32_DIVISIONS = 4  # 4x4 cells, 5x5 nodes, 32 triangles
PATCH32_PITCH = 1.0 / PATCH32_DIVISIONS

GRADED_FINE_PITCH = 0.25
GRADED_FINE_XMAX = 1.0
GRADED_COARSE_XMIN = 1.75
GRADED_COARSE_PITCH = 0.5
GRADED_COARSE_COLS = 4  # cells
GRADED_HEIGHT = 1.0

INDENTED_COLS = 8  # cells
INDENTED_ROWS = 4
INDENTED_PITCH = 0.5
INDENTED_NOTCH_X = 2.0
INDENTED_NOTCH_WIDTH = 0.55


def generate_fixture(kind: FixtureKind, seed: int = 0,
                     distortion: float = 0.0) -> Mesh:
    if not 0.0 <= distortion < 1.0:
        raise ValueError("distortion must be in [0, 1)")
    if kind is FixtureKind.PATCH32:
        return _patch32(seed, distortion)
    if kind is FixtureKind.GRADED_INTERFACE:
        return _graded_interface()
    if kind is FixtureKind.HORSESHOE:
        return _horseshoe()
    if kind is FixtureKind.INDENTED_BOX:
        return _indented_box(distortion)
    raise ValueError(f"unknown fixture kind {kind!r}")


def _lattice_triangles(cols: int, rows: int, node_id, alternate: bool
                       ) -> list[tuple[int, int, int]]:
    """Triangulate a cols x rows cell lattice.

    With ``alternate`` the diagonal direction checkerboards between
    rising and falling; otherwise every cell uses the rising diagonal.
    """
    tris: list[tuple[int, int, int]] = []
    for j in range(rows):
        for i in range(cols):
            n00 = node_id(i, j)
            n10 = node_id(i + 1, j)
            n01 = node_id(i, j + 1)
            n11 = node_id(i + 1, j + 1)
            if alternate and (i + j) % 2 == 1:
                tris.append((n00, n10, n01))
                tris.append((n10, n11, n01))
            else:
                tris.append((n00, n10, n11))
                tris.append((n00, n11, n01))
    return tris


def _patch32(seed: int, distortion: float) -> Mesh:
    n = PATCH32_DIVISIONS
    h = PATCH32_PITCH

    def nid(i: int, j: int) -> int:
        return j * (n + 1) + i

    mobility, positions = [], []
    for j in range(n + 1):
        for i in range(n + 1):
            on_boundary = i in (0, n) or j in (0, n)
            mobility.append(Mobility.FIXED if on_boundary else Mobility.INTERNAL)
            positions.append(Point2(i * h, j * h))

    tris = _lattice_triangles(n, n, nid, alternate=True)
    triangles = [Triangle(t, nodes_) for t, nodes_ in enumerate(tris)]

    if distortion > 0.0:
        rng = random.Random(seed)
        lattice = patch32_lattice_positions()
        area_floor = 1e-6 * h * h
        for _attempt in range(10_000):
            for k, base in lattice.items():
                angle = rng.uniform(0.0, 2.0 * math.pi)
                positions[k] = Point2(
                    base.x + distortion * h * math.cos(angle),
                    base.y + distortion * h * math.sin(angle),
                )
            ok = all(
                signed_area(positions[a], positions[b], positions[c]) > area_floor
                for a, b, c in tris
            )
            if ok:
                break
        else:
            raise RuntimeError("could not distort the patch without inverting it")

    return build_topology(mobility, positions, triangles)


def patch32_lattice_positions() -> dict[int, Point2]:
    """Interior node id -> undistorted lattice position."""
    n = PATCH32_DIVISIONS
    h = PATCH32_PITCH
    return {
        j * (n + 1) + i: Point2(i * h, j * h)
        for j in range(1, n)
        for i in range(1, n)
    }


def _graded_interface() -> Mesh:
    fine_n = round(GRADED_FINE_XMAX / GRADED_FINE_PITCH)      # 4 cells
    fine_rows = round(GRADED_HEIGHT / GRADED_FINE_PITCH)      # 4 cells
    coarse_rows = round(GRADED_HEIGHT / GRADED_COARSE_PITCH)  # 2 cells

    mobility, positions = [], []

    def fine_id(i: int, j: int) -> int:
        return j * (fine_n + 1) + i

    n_fine = (fine_n + 1) * (fine_rows + 1)

    def coarse_id(i: int, j: int) -> int:
        return n_fine + j * (GRADED_COARSE_COLS + 1) + i

    for j in range(fine_rows + 1):
        for i in range(fine_n + 1):
            x = i * GRADED_FINE_PITCH
            y = j * GRADED_FINE_PITCH
            on_hull = i == 0 or j in (0, fine_rows)
            mobility.append(Mobility.FIXED if on_hull else Mobility.INTERNAL)
            positions.append(Point2(x, y))
    for j in range(coarse_rows + 1):
        for i in range(GRADED_COARSE_COLS + 1):
            x = GRADED_COARSE_XMIN + i * GRADED_COARSE_PITCH
            y = j * GRADED_COARSE_PITCH
            on_hull = i == GRADED_COARSE_COLS or j in (0, coarse_rows)
            mobility.append(Mobility.FIXED if on_hull else Mobility.INTERNAL)
            positions.append(Point2(x, y))

    tris = _lattice_triangles(fine_n, fine_rows, fine_id, alternate=False)
    # ladder strip joining the mismatched columns (5 fine nodes, 3 coarse)
    left = [fine_id(fine_n, j) for j in range(fine_rows + 1)]
    right = [coarse_id(0, j) for j in range(coarse_rows + 1)]
    tris += [
        (left[0], right[0], left[1]),
        (left[1], right[0], right[1]),
        (left[1], right[1], left[2]),
        (left[2], right[1], left[3]),
        (left[3], right[1], right[2]),
        (left[3], right[2], left[4]),
    ]
    tris += _lattice_triangles(GRADED_COARSE_COLS, coarse_rows, coarse_id,
                               alternate=False)
    triangles = [Triangle(t, nodes_) for t, nodes_ in enumerate(tris)]
    return build_topology(mobility, positions, triangles)


def graded_zone_ids(mesh: Mesh) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Triangle ids of the fine and coarse structured zones.

    Classified by element centroid; call on the freshly generated fixture
    (zone membership is defined by the initial configuration).
    """
    fine: list[int] = []
    coarse: list[int] = []
    for tri in mesh.triangles:
        p0, p1, p2 = mesh.triangle_points(tri)
        cx = (p0.x + p1.x + p2.x) / 3.0
        if cx < GRADED_FINE_XMAX:
            fine.append(tri.id)
        elif cx > GRADED_COARSE_XMIN:
            coarse.append(tri.id)
    return tuple(fine), tuple(coarse)


def _horseshoe() -> Mesh:
    """One internal node inside a chevron-shaped ring of fixed nodes.

    The ring's vertex centroid (0, 0.96) lies above the notch tip
    (0, 0.8), outside the polygon, so averaging relocation must invert a
    fan element while the barrier-guarded optimizer cannot.
    """
    ring = [(-2.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 0.8), (-2.0, 2.0)]
    k = len(ring)
    mobility = [Mobility.INTERNAL] + [Mobility.FIXED] * k
    positions = [Point2(0.0, 0.4)] + [Point2(x, y) for x, y in ring]
    triangles = [
        Triangle(t, (0, 1 + t, 1 + (t + 1) % k)) for t in range(k)
    ]
    return build_topology(mobility, positions, triangles)


def _indented_box(distortion: float) -> Mesh:
    """Rectangle with the top boundary pressed in by a Gaussian notch.

    ``distortion`` is the notch depth as a fraction of the box height.
    Material below the notch is compressed vertically, producing the
    squeezed and skewed elements typical of an indented domain. Top
    boundary nodes (except the corners) form one movable chain.
    """
    cols, rows, h = INDENTED_COLS, INDENTED_ROWS, INDENTED_PITCH
    height = rows * h
    depth = distortion * height

    def nid(i: int, j: int) -> int:
        return j * (cols + 1) + i

    def notch(x: float) -> float:
        t = (x - INDENTED_NOTCH_X) / INDENTED_NOTCH_WIDTH
        return depth * math.exp(-t * t)

    mobility, positions = [], []
    for j in range(rows + 1):
        for i in range(cols + 1):
            x = i * h
            y = j * h * (height - notch(x)) / height
            if j == rows and 0 < i < cols:
                mobility.append(Mobility.BOUNDARY)
            elif i in (0, cols) or j in (0, rows):
                mobility.append(Mobility.FIXED)
            else:
                mobility.append(Mobility.INTERNAL)
            positions.append(Point2(x, y))

    tris = _lattice_triangles(cols, rows, nid, alternate=False)
    triangles = [Triangle(t, nodes_) for t, nodes_ in enumerate(tris)]
    return build_topology(mobility, positions, triangles)


def freeze_boundary(mesh: Mesh) -> Mesh:
    """Copy of the mesh with every movable boundary node made fixed."""
    mobility = [
        Mobility.FIXED if n.mobility is Mobility.BOUNDARY else n.mobility
        for n in mesh.nodes
    ]
    # a copy, so that moving a node of one mesh never moves the other's
    return build_topology(mobility, list(mesh._positions),
                          list(mesh.triangles), mesh.rref)
