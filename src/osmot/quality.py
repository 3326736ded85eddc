"""Element quality measures used for flagging and reporting.

Two measures: a size measure (reference radius over circumcircle radius)
and the normalized radius ratio 2r/R, which is 1 for an equilateral
triangle. Both divide by ``size_radius``, which is +inf for an invalid
triangle, so both score it 0. A triangle is invalid where the objective's
barrier refuses it: its signed area is at or below ``DEGENERATE_AREA_FACTOR``
times its longest edge squared, so it is degenerate or inverted. Flagging
uses the radius ratio only; the size measure is report-only because the
smoothing objective already accounts for element size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import TriangleGeometry

HISTOGRAM_BUCKETS = 10


@dataclass(frozen=True, slots=True)
class QualityConfig:
    """Flagging threshold: the minimum acceptable radius ratio."""

    q_min: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.q_min <= 1.0:
            raise ValueError("q_min must be in (0, 1]")


def size_radius(geom: TriangleGeometry) -> float:
    """The circumradius R that both measures divide by; +inf for a
    degenerate or an inverted triangle (or one whose R underflows to 0),
    so that r_ref/R and 2r/R score it 0 for any positive, finite r_ref."""
    if geom.degenerate or geom.R == 0.0 or geom.area_signed <= 0.0:
        return math.inf
    return geom.R


def q1_size(geom: TriangleGeometry, r_ref: float) -> float:
    """Size quality r_ref/R. Degenerate and inverted elements score 0."""
    return r_ref / size_radius(geom)


def q2_shape(geom: TriangleGeometry) -> float:
    """Normalized radius ratio 2r/R in [0, 1]. Degenerate and inverted
    elements score 0."""
    return 2.0 * geom.r / size_radius(geom)
