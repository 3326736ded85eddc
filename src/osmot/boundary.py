"""Heuristic relocation of movable boundary nodes.

A movable boundary node and its two chain neighbors are assumed to lie on
a quadratic curve parameterized over [-1, 1] with the node at 0 and the
neighbors at -1 and +1. Weighted averaging of the two neighbor distances
gives the natural coordinate that equalizes them; evaluating the curve
there is the new node position. The node is already optimal (and returned
bit-exactly) when the two distances are equal.

``BoundaryTriple`` is a ``typing.NamedTuple`` of three ``Point2``, which
the driver packs with ``tuple.__new__`` for every node of every loop;
the functions here unpack it and its points once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import Point2


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


def smooth_boundary_node(triple: BoundaryTriple) -> Point2:
    """New position of the middle node that equalizes neighbor distances."""
    (x1, y1), p0, (x2, y2) = triple
    x0, y0 = p0
    d1, d2 = _distances(x1, y1, x0, y0, x2, y2)
    scale = max(abs(x0), abs(y0), abs(x1), abs(y1), abs(x2), abs(y2), 1.0)
    if d1 + d2 <= 1e-14 * scale:
        raise CoincidentNeighborsError("boundary triple has coincident points")
    xi = (d2 - d1) / (d1 + d2)
    if xi == 0.0:
        return p0
    n0, n1, n2 = shape_functions(xi)
    return Point2(n0 * x0 + n1 * x1 + n2 * x2, n0 * y0 + n1 * y1 + n2 * y2)


def boundary_quality(triple: BoundaryTriple) -> float:
    """Ratio of the smaller to the larger neighbor distance, in [0, 1]."""
    (x1, y1), (x0, y0), (x2, y2) = triple
    d1, d2 = _distances(x1, y1, x0, y0, x2, y2)
    hi = max(d1, d2)
    if hi == 0.0:
        return 0.0
    return min(d1, d2) / hi
