"""Per-triangle geometric primitives: signed area, edge lengths, radii.

All functions are pure functions of vertex coordinates. Nothing here caches
by node identity; the optimizer re-evaluates at every trial position.

``Point2`` is a ``typing.NamedTuple``, the tuple (x, y): a hot loop may
unpack it (``x, y = p``), and code that builds points in bulk or per
trial packs them with ``tuple.__new__(Point2, (x, y))``, which skips the
named-field constructor's Python-level call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# Relative degeneracy threshold: a triangle is degenerate when its absolute
# area is at most DEGENERATE_AREA_FACTOR * (longest edge)^2.
DEGENERATE_AREA_FACTOR = 1e-14


class Point2(NamedTuple):
    """A point in the plane. Coordinates must be finite."""

    x: float
    y: float


@dataclass(frozen=True, slots=True)
class TriangleGeometry:
    """Derived scalar quantities of one triangle.

    Edge naming: a connects vertices 0-1, b connects 1-2, c connects 2-0.
    ``r`` is the incircle radius, ``R`` the circumcircle radius. For a
    degenerate triangle ``r`` is 0 and ``R`` is +inf (or 0 if all three
    points coincide); ``degenerate`` marks that case instead of raising.
    """

    a: float
    b: float
    c: float
    s: float
    area_signed: float
    area_abs: float
    r: float
    R: float
    degenerate: bool


def signed_area(p0: Point2, p1: Point2, p2: Point2) -> float:
    """Signed area, positive iff p0, p1, p2 are counter-clockwise."""
    return 0.5 * ((p1.x - p0.x) * (p2.y - p0.y) - (p2.x - p0.x) * (p1.y - p0.y))


def edge_lengths(p0: Point2, p1: Point2, p2: Point2) -> tuple[float, float, float]:
    """Edge lengths (a, b, c) = (|p1-p0|, |p2-p1|, |p0-p2|)."""
    a = math.hypot(p1.x - p0.x, p1.y - p0.y)
    b = math.hypot(p2.x - p1.x, p2.y - p1.y)
    c = math.hypot(p0.x - p2.x, p0.y - p2.y)
    return a, b, c


def degenerate_area_eps(a: float, b: float, c: float) -> float:
    """Area threshold below which a triangle counts as degenerate."""
    m = max(a, b, c)
    return DEGENERATE_AREA_FACTOR * m * m


def triangle_geometry(p0: Point2, p1: Point2, p2: Point2) -> TriangleGeometry:
    """All derived quantities of a triangle.

    The absolute area comes from the determinant, not Heron's radical, so
    rounding can never produce a negative radicand; Heron's formula is kept
    only as a cross-check property in the test suite.
    """
    a, b, c = edge_lengths(p0, p1, p2)
    s = 0.5 * (a + b + c)
    area = signed_area(p0, p1, p2)
    area_abs = abs(area)
    if area_abs <= degenerate_area_eps(a, b, c):
        abc = a * b * c
        big_r = math.inf if abc > 0.0 else 0.0
        return TriangleGeometry(a, b, c, s, area, area_abs, 0.0, big_r, True)
    r = area_abs / s
    big_r = a * b * c / (4.0 * area_abs)
    return TriangleGeometry(a, b, c, s, area, area_abs, r, big_r, False)
