"""Heuristic relocation of movable boundary nodes.

A movable boundary node and its two chain neighbors are assumed to lie on
a quadratic curve parameterized over [-1, 1] with the node at 0 and the
neighbors at -1 and +1. Weighted averaging of the two neighbor distances
gives the natural coordinate that equalizes them; evaluating the curve
there is the new node position. The node is already optimal (and returned
bit-exactly) when the two distances are equal.

The curve knows nothing of the triangles around the node, so a proposed
move can squeeze or invert one of them. ``guard_boundary_move`` keeps
the smoother's promise that a move never leaves the mesh worse: it halves
the natural coordinate, up to ``GUARD_HALVINGS`` (12) times, until every
triangle of the node's star has a signed area above its degeneracy
threshold and the star's minimum radius ratio q2 is not below its value
at the old position (``star_min_q2``, which scores each triangle in its
own vertex order, as the quality table does). If no coordinate passes,
the node stays. The driver runs the guard after ``smooth_boundary_node``,
and only for a node that moved.

Both functions read only the positions of the node and of its star
(``Mesh.stars``), so the driver skips a node while those positions equal
the ones its last proposal read, if that proposal moved nothing. The
guard takes the mesh and the node's id and reads both there.
``BoundaryTriple`` is a ``typing.NamedTuple`` of three ``Point2``, which
the driver packs with ``tuple.__new__`` for every node it proposes; the
functions here unpack it and its points once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import Point2
from .mesh import Mesh, star_min_q2

# the natural coordinate of a guarded boundary move is halved at most this
# many times before the node stays where it is
GUARD_HALVINGS = 12


class CoincidentNeighborsError(Exception):
    """All three points of a boundary triple coincide."""


class BoundaryTriple(NamedTuple):
    """Chain-ordered positions (previous, node, next)."""

    p1: Point2
    p0: Point2
    p2: Point2


def shape_functions(xi: float) -> tuple[float, float, float]:
    """Quadratic interpolation weights (N0, N1, N2) at xi in [-1, 1].

    Out-of-range xi is clamped defensively; the weighted-averaging
    coordinate can never leave the interval. The three weights sum to 1.
    """
    if xi < -1.0:
        xi = -1.0
    elif xi > 1.0:
        xi = 1.0
    xi2 = xi * xi
    return 1.0 - xi2, 0.5 * (xi2 - xi), 0.5 * (xi2 + xi)


def _distances(x1: float, y1: float, x0: float, y0: float, x2: float,
               y2: float) -> tuple[float, float]:
    """Distances from the node (x0, y0) to its previous and next neighbor."""
    return math.hypot(x1 - x0, y1 - y0), math.hypot(x2 - x0, y2 - y0)


def natural_coordinate(x1: float, y1: float, x0: float, y0: float,
                       x2: float, y2: float) -> float:
    """The coordinate xi in [-1, 1] that equalizes the distances from the
    node (x0, y0) to its neighbors (x1, y1) and (x2, y2)."""
    d1, d2 = _distances(x1, y1, x0, y0, x2, y2)
    scale = max(abs(x0), abs(y0), abs(x1), abs(y1), abs(x2), abs(y2))
    if d1 + d2 <= 1e-14 * scale:
        raise CoincidentNeighborsError("boundary triple has coincident points")
    return (d2 - d1) / (d1 + d2)


def curve_point(x1: float, y1: float, x0: float, y0: float, x2: float,
                y2: float, xi: float) -> Point2:
    """The point at xi of the quadratic through the neighbors (at -1 and
    +1) and the node (at 0)."""
    n0, n1, n2 = shape_functions(xi)
    return tuple.__new__(Point2, (n0 * x0 + n1 * x1 + n2 * x2,
                                  n0 * y0 + n1 * y1 + n2 * y2))


def smooth_boundary_node(triple: BoundaryTriple) -> Point2:
    """New position of the middle node that equalizes neighbor distances."""
    (x1, y1), p0, (x2, y2) = triple
    x0, y0 = p0
    xi = natural_coordinate(x1, y1, x0, y0, x2, y2)
    if xi == 0.0:
        return p0
    return curve_point(x1, y1, x0, y0, x2, y2, xi)


def guard_boundary_move(triple: BoundaryTriple, new_pos: Point2, mesh: Mesh,
                        nid: int) -> Point2:
    """The first of ``new_pos`` (the move ``smooth_boundary_node`` proposes
    for node nid's ``triple``) and the curve points at xi/2, xi/4, ...,
    xi/2^12 at which no triangle of the node's star is at or below its
    degeneracy area and the star's min q2 (``star_min_q2``) is not below
    its value at the old position ``triple.p0``; ``triple.p0`` itself when
    none is.

    The mesh holds node nid at ``triple.p0`` and its neighbors where they
    are. A triangle scores q2 = 0 when its signed area is at or below its
    degeneracy threshold, so a point passes when its min q2 is positive
    and at least the old one.
    """
    (x1, y1), p0, (x2, y2) = triple
    x0, y0 = p0
    q_old = star_min_q2(mesh, nid, x0, y0)
    x, y = new_pos
    q = star_min_q2(mesh, nid, x, y)
    if q > 0.0 and q >= q_old:
        return new_pos
    xi = natural_coordinate(x1, y1, x0, y0, x2, y2)
    for _ in range(GUARD_HALVINGS):
        xi *= 0.5
        candidate = curve_point(x1, y1, x0, y0, x2, y2, xi)
        if candidate == p0:
            # the move is below the coordinates' rounding: the node stays
            break
        x, y = candidate
        q = star_min_q2(mesh, nid, x, y)
        if q > 0.0 and q >= q_old:
            return candidate
    return p0


def boundary_quality(triple: BoundaryTriple) -> float:
    """Ratio of the smaller to the larger neighbor distance, in [0, 1]."""
    (x1, y1), (x0, y0), (x2, y2) = triple
    d1, d2 = _distances(x1, y1, x0, y0, x2, y2)
    hi = max(d1, d2)
    if hi == 0.0:
        return 0.0
    return min(d1, d2) / hi
