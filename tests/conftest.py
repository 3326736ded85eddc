"""Shared fixtures: random triangles, random star-shaped balls, FD oracles."""

from __future__ import annotations

import math
import random

from osmot.geometry import Point2, triangle_geometry
from osmot.mesh import Ball, Mesh, Mobility, Node, Triangle, build_topology
from osmot.meshio import HEADER
from osmot.quality import q2_shape


def random_triangle(rng: random.Random, min_q2: float = 0.05
                    ) -> tuple[Point2, Point2, Point2]:
    """Random CCW triangle with vertices in [0,1]^2 and shape quality
    at least min_q2."""
    while True:
        pts = [Point2(rng.random(), rng.random()) for _ in range(3)]
        geom = triangle_geometry(*pts)
        if geom.area_signed < 0.0:
            pts[1], pts[2] = pts[2], pts[1]
            geom = triangle_geometry(*pts)
        if not geom.degenerate and q2_shape(geom) >= min_q2:
            return pts[0], pts[1], pts[2]


def random_ball_mesh(rng: random.Random) -> Mesh:
    """A valid single-ball mesh: one internal vertex inside a star-shaped
    ring of fixed nodes, fan-triangulated. The vertex starts at a random
    point of the kernel (near the star center)."""
    k = rng.randint(4, 9)
    angles = [(i + 0.8 * rng.random()) * 2.0 * math.pi / k for i in range(k)]
    radii = [0.5 + rng.random() for _ in range(k)]
    ring = [Point2(r * math.cos(t), r * math.sin(t))
            for r, t in zip(radii, angles)]
    # small offset keeps the start strictly inside the kernel of the fan
    start = Point2(0.05 * (rng.random() - 0.5), 0.05 * (rng.random() - 0.5))
    mobility = [Mobility.INTERNAL] + [Mobility.FIXED] * k
    triangles = [Triangle(t, (0, 1 + t, 1 + (t + 1) % k)) for t in range(k)]
    return build_topology(mobility, [start] + ring, triangles)


def regular_hexagon_mesh(center: Point2 = Point2(0.0, 0.0)) -> Mesh:
    """Six unit equilateral triangles around one internal vertex."""
    mobility, positions, triangles = hexagon_fan()
    positions[0] = center
    return build_topology(mobility, positions, triangles)


def synthetic_single_ball(vertex_pos: Point2, neighbors: list[Point2]) -> Mesh:
    """Hand-assembled mesh around one ball, bypassing validation.

    Used to exercise ball-level operations on configurations a valid mesh
    cannot represent (e.g. a one-triangle ball with an internal vertex).
    """
    k = len(neighbors)
    nodes = [Node(0, Mobility.INTERNAL)] + [Node(i + 1, Mobility.FIXED) for i in range(k)]
    triangles = [Triangle(t, (0, 1 + t, 1 + (t + 1) % k))
                 for t in range(max(k - 1, 1))]
    elements = tuple((t.id, t.nodes[1], t.nodes[2]) for t in triangles)
    balls = {0: Ball(vertex=0, elements=elements)}
    return Mesh(nodes=nodes, triangles=triangles, _positions=[vertex_pos, *neighbors],
                balls=balls, chains=[])


# The helpers below return the node columns and triangles that
# build_topology takes: (mobility, positions, triangles), with node i's
# mobility and position at index i.

def hexagon_fan(center_mobility=Mobility.INTERNAL, ring_mobility=Mobility.FIXED):
    """Regular 6-triangle ball: unit hexagon ring around the origin."""
    mobility = [center_mobility] + [ring_mobility] * 6
    positions = [Point2(0.0, 0.0)]
    for i in range(6):
        t = i * math.pi / 3.0
        positions.append(Point2(math.cos(t), math.sin(t)))
    triangles = [Triangle(i, (0, 1 + i, 1 + (i + 1) % 6)) for i in range(6)]
    return mobility, positions, triangles


def wound_fan(centre_mobility, turns=2, centre=Point2(0.0, 0.0)):
    """7 * turns CCW triangles around node 0 whose ring circles it ``turns``
    times: every edge is shared correctly, but the elements of the star
    overlap. The first ring node of each turn lies on the horizontal of a
    centre at the origin."""
    n = 7 * turns
    mobility = [centre_mobility] + [Mobility.FIXED] * n
    positions = [centre]
    for i in range(n):
        t = i * 2.0 * math.pi / 7.0
        r = 1.0 + i // 7
        positions.append(Point2(r * math.cos(t), r * math.sin(t)))
    triangles = [Triangle(i, (0, 1 + i, 1 + (i + 1) % n)) for i in range(n)]
    return mobility, positions, triangles


def hand_written_text(mobility, positions, triangles):
    """The mesh file of the node columns and triangles, written without
    building a mesh, so that a file of an invalid mesh can be read.
    Every BOUNDARY node is labelled ``B0``, as ``mesh_to_text`` labels one
    whose chain id is unset; the reader renumbers chains."""
    labels = {Mobility.FIXED: "F", Mobility.INTERNAL: "I", Mobility.BOUNDARY: "B0"}
    lines = [HEADER, f"nodes {len(positions)}"]
    lines += [f"{i} {p.x!r} {p.y!r} {labels[mob]}"
              for i, (mob, p) in enumerate(zip(mobility, positions))]
    lines.append(f"triangles {len(triangles)}")
    lines += [f"{t.id} {t.nodes[0]} {t.nodes[1]} {t.nodes[2]}" for t in triangles]
    return "\n".join(lines) + "\n"


def fd_gradient(f, x: float, y: float, h: float) -> tuple[float, float]:
    gx = (f(x + h, y) - f(x - h, y)) / (2.0 * h)
    gy = (f(x, y + h) - f(x, y - h)) / (2.0 * h)
    return gx, gy


def fd_jacobian(g, x: float, y: float, h: float):
    """Central differences of a vector function g(x, y) -> (gx, gy)."""
    gpx = g(x + h, y)
    gmx = g(x - h, y)
    gpy = g(x, y + h)
    gmy = g(x, y - h)
    return (
        ((gpx[0] - gmx[0]) / (2.0 * h), (gpy[0] - gmy[0]) / (2.0 * h)),
        ((gpx[1] - gmx[1]) / (2.0 * h), (gpy[1] - gmy[1]) / (2.0 * h)),
    )


def rel_err(got: float, want: float, floor: float = 1.0) -> float:
    return abs(got - want) / max(abs(want), floor)
