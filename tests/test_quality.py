import math

import pytest
from hypothesis import given, strategies as st

from osmot.geometry import Point2, TriangleGeometry, signed_area, triangle_geometry
from osmot.quality import QualityConfig, q1_size, q2_shape, size_radius

SQRT3 = math.sqrt(3.0)

T345 = (Point2(0, 0), Point2(3, 0), Point2(0, 4))
EQUILATERAL = (Point2(0, 0), Point2(1, 0), Point2(0.5, SQRT3 / 2))
COLLINEAR = (Point2(0, 0), Point2(1, 1), Point2(2, 2))

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
triangles = st.tuples(coord, coord, coord, coord, coord, coord).filter(
    lambda t: abs(signed_area(Point2(t[0], t[1]), Point2(t[2], t[3]),
                              Point2(t[4], t[5]))) > 1e-3
)


def fake_geom(r: float, R: float) -> TriangleGeometry:
    return TriangleGeometry(1, 1, 1, 1.5, 0.4, 0.4, r, R, False)


def test_q1_direct_ratio():
    assert q1_size(fake_geom(0.5, 2.0), 1.0) == 0.5
    assert q1_size(fake_geom(0.5, 1.0), 1.0) == 1.0


def test_q1_345():
    assert q1_size(triangle_geometry(*T345), 1.0) == pytest.approx(0.4)


def test_q1_degenerate_is_zero():
    assert q1_size(triangle_geometry(*COLLINEAR), 1.0) == 0.0


def test_q2_equilateral_is_one():
    assert q2_shape(triangle_geometry(*EQUILATERAL)) == pytest.approx(1.0, abs=1e-12)


def test_q2_collinear_is_zero():
    assert q2_shape(triangle_geometry(*COLLINEAR)) == 0.0


def test_q2_345():
    assert q2_shape(triangle_geometry(*T345)) == pytest.approx(0.8)


def test_config_validation():
    with pytest.raises(ValueError):
        QualityConfig(q_min=0.0)


@given(triangles)
def test_q2_in_unit_interval(t):
    q2 = q2_shape(triangle_geometry(Point2(t[0], t[1]), Point2(t[2], t[3]),
                                    Point2(t[4], t[5])))
    assert 0.0 <= q2 <= 1.0 + 1e-12


@given(triangles, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_q2_scale_invariant(t, k):
    p = [Point2(t[0], t[1]), Point2(t[2], t[3]), Point2(t[4], t[5])]
    q = [Point2(k * v.x, k * v.y) for v in p]
    assert q2_shape(triangle_geometry(*p)) == pytest.approx(
        q2_shape(triangle_geometry(*q)), abs=1e-12)


def positively_oriented(t) -> tuple[Point2, Point2, Point2]:
    p0, p1, p2 = Point2(t[0], t[1]), Point2(t[2], t[3]), Point2(t[4], t[5])
    if signed_area(p0, p1, p2) < 0.0:
        p1, p2 = p2, p1
    return p0, p1, p2


@given(triangles)
def test_q2_orientation_invariant(t):
    # a positively oriented triangle scores the same from each of its
    # three starting vertices, each of which keeps the orientation
    p0, p1, p2 = positively_oriented(t)
    q2 = q2_shape(triangle_geometry(p0, p1, p2))
    assert q2 > 0.0
    for rotation in ((p1, p2, p0), (p2, p0, p1)):
        assert q2_shape(triangle_geometry(*rotation)) == pytest.approx(
            q2, abs=1e-14)


@given(triangles)
def test_q2_reversed_triangle_scores_zero(t):
    # an inverted triangle is the worst there is, not its mirror image:
    # its size radius is +inf, so it scores q1 = 0 as it scores q2 = 0
    p0, p1, p2 = positively_oriented(t)
    geom = triangle_geometry(p0, p2, p1)
    assert not geom.degenerate and geom.R < math.inf
    assert q2_shape(geom) == 0.0
    assert size_radius(geom) == math.inf
    assert q1_size(geom, 1.0) == 0.0


TINY = 2.0 ** -360
NAMED_TRIANGLES = {
    "valid": T345,
    "degenerate": COLLINEAR,
    "inverted": (T345[0], T345[2], T345[1]),
    # a*b*c underflows to 0 in a triangle that is not degenerate
    "underflowing": (Point2(0, 0), Point2(TINY, 0), Point2(0, TINY)),
}


@pytest.mark.parametrize("name", list(NAMED_TRIANGLES))
def test_q2_is_2r_over_the_size_radius(name):
    # q1 and q2 divide by one radius, so they agree on which triangles
    # score 0
    geom = triangle_geometry(*NAMED_TRIANGLES[name])
    q2 = q2_shape(geom)
    assert q2.hex() == (2.0 * geom.r / size_radius(geom)).hex()
    assert (q2 > 0.0) is (name == "valid")
    assert (q1_size(geom, 1.0) > 0.0) is (name == "valid")


@given(triangles, st.integers(min_value=-7, max_value=7))
def test_q1_scales_inversely(t, e):
    # scaling by k = 2^e rounds no coordinate, edge or area, so R scales by
    # exactly k and q1 = 1/R by exactly 1/k; another k rounds the scaled
    # coordinates, which a sliver's R does not survive
    k = 2.0 ** e
    p = [Point2(t[0], t[1]), Point2(t[2], t[3]), Point2(t[4], t[5])]
    q = [Point2(k * v.x, k * v.y) for v in p]
    q1p = q1_size(triangle_geometry(*p), 1.0)
    q1q = q1_size(triangle_geometry(*q), 1.0)
    assert q1q == q1p / k
