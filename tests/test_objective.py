import math
import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    fd_gradient,
    fd_jacobian,
    random_ball_mesh,
    random_triangle,
    regular_hexagon_mesh,
    rel_err,
    synthetic_single_ball,
)
from osmot.geometry import (
    DEGENERATE_AREA_FACTOR,
    Point2,
    degenerate_area_eps,
    edge_lengths,
    signed_area,
    triangle_geometry,
)
from osmot.objective import (
    BallFrame,
    DegenerateElementError,
    ObjectiveParams,
    ball_grad_hess,
    ball_objective,
    element_grad_hess,
    element_objective,
    freeze_ball,
)

SQRT3 = math.sqrt(3.0)
EQUILATERAL = (Point2(0, 0), Point2(1, 0), Point2(0.5, SQRT3 / 2))
PARAMS = ObjectiveParams()


def test_equilateral_value():
    w = element_objective(*EQUILATERAL, PARAMS)
    assert w == pytest.approx(8.0 / SQRT3, rel=1e-12)


def test_scaling_law():
    scaled = tuple(Point2(2 * p.x, 2 * p.y) for p in EQUILATERAL)
    w = element_objective(*scaled, PARAMS)
    assert w == pytest.approx(2.0 * 8.0 / SQRT3, rel=1e-12)


def test_inverted_triangle_hits_barrier():
    w = element_objective(Point2(0, 0), Point2(0, 1), Point2(1, 0), PARAMS)
    assert w == math.inf


def test_collinear_hits_barrier():
    w = element_objective(Point2(0, 0), Point2(1, 1), Point2(2, 2), PARAMS)
    assert w == math.inf


def test_specialized_matches_general_formula():
    rng = random.Random(7)
    for _ in range(50):
        p0, p1, p2 = random_triangle(rng)
        geom = triangle_geometry(p0, p1, p2)
        expected = (geom.R / PARAMS.r_ref) * (geom.R / geom.r) ** 3
        assert element_objective(p0, p1, p2, PARAMS) == pytest.approx(
            expected, rel=1e-11)


def test_general_exponent_path():
    params = ObjectiveParams(beta=2.0, gamma=1.0, r_ref=0.5)
    p0, p1, p2 = random_triangle(random.Random(3))
    geom = triangle_geometry(p0, p1, p2)
    expected = (geom.R / 0.5) ** 2 * (geom.R / geom.r)
    assert element_objective(p0, p1, p2, params) == pytest.approx(expected)


def test_gradient_matches_finite_differences():
    rng = random.Random(42)
    for _ in range(300):
        p0, p1, p2 = random_triangle(rng)
        params = ObjectiveParams(r_ref=1.0)
        gh = element_grad_hess(p0, p1, p2, params)
        h = 1e-6 * max(edge_lengths(p0, p1, p2))

        def f(x, y):
            return element_objective(Point2(x, y), p1, p2, params)

        gx, gy = fd_gradient(f, p0.x, p0.y, h)
        scale = max(abs(gx), abs(gy), 1.0)
        assert abs(gh.gx - gx) / scale < 1e-5
        assert abs(gh.gy - gy) / scale < 1e-5


def test_hessian_matches_finite_differences_of_gradient():
    rng = random.Random(43)
    for _ in range(300):
        p0, p1, p2 = random_triangle(rng)
        gh = element_grad_hess(p0, p1, p2, PARAMS)
        h = 1e-6 * max(edge_lengths(p0, p1, p2))

        def grad(x, y):
            g = element_grad_hess(Point2(x, y), p1, p2, PARAMS)
            return g.gx, g.gy

        jac = fd_jacobian(grad, p0.x, p0.y, h)
        scale = max(abs(jac[0][0]), abs(jac[0][1]), abs(jac[1][1]), 1.0)
        assert abs(gh.hxx - jac[0][0]) / scale < 1e-4
        assert abs(gh.hyy - jac[1][1]) / scale < 1e-4
        assert abs(gh.hxy - jac[0][1]) / scale < 1e-4


def test_hessian_symmetric_by_construction():
    p0, p1, p2 = random_triangle(random.Random(5))
    gh = element_grad_hess(p0, p1, p2, PARAMS)
    assert gh.hess[0][1] == gh.hess[1][0]


def test_rref_scales_value_and_derivatives():
    p0, p1, p2 = random_triangle(random.Random(11))
    g1 = element_grad_hess(p0, p1, p2, ObjectiveParams(r_ref=1.0))
    g2 = element_grad_hess(p0, p1, p2, ObjectiveParams(r_ref=2.0))
    assert g2.value == pytest.approx(g1.value / 2.0, rel=1e-13)
    assert g2.gx == pytest.approx(g1.gx / 2.0, rel=1e-13)
    assert g2.hxy == pytest.approx(g1.hxy / 2.0, rel=1e-13)


def test_translation_invariance():
    p0, p1, p2 = random_triangle(random.Random(9))
    w0 = element_objective(p0, p1, p2, PARAMS)
    shift = Point2(17.25, -3.5)
    w1 = element_objective(
        Point2(p0.x + shift.x, p0.y + shift.y),
        Point2(p1.x + shift.x, p1.y + shift.y),
        Point2(p2.x + shift.x, p2.y + shift.y), PARAMS)
    assert rel_err(w1, w0) < 1e-10


@given(st.floats(min_value=1e-60, max_value=1e60, allow_nan=False))
def test_value_scales_linearly_with_size(k):
    # the shape factor is scale-free, so with beta=1 the value picks up
    # exactly one factor of k from the size term
    p0, p1, p2 = random_triangle(random.Random(13))
    w0 = element_objective(p0, p1, p2, PARAMS)
    wk = element_objective(Point2(k * p0.x, k * p0.y),
                           Point2(k * p1.x, k * p1.y),
                           Point2(k * p2.x, k * p2.y), PARAMS)
    assert rel_err(wk, k * w0, floor=0.0) < 1e-9


@pytest.mark.parametrize("kwargs", [
    {"r_ref": -1.0}, {"beta": 0.0}, {"gamma": math.inf}, {"r_ref": math.nan},
], ids=["negative-rref", "zero-beta", "inf-gamma", "nan-rref"])
def test_params_must_be_finite_and_positive(kwargs):
    with pytest.raises(ValueError):
        ObjectiveParams(**kwargs)


def test_degenerate_derivative_call_raises():
    with pytest.raises(DegenerateElementError):
        element_grad_hess(Point2(0, 0), Point2(1, 1), Point2(2, 2), PARAMS)
    with pytest.raises(DegenerateElementError):
        element_grad_hess(Point2(0, 0), Point2(0, 1), Point2(1, 0), PARAMS)


def _bisector_stationary_altitude() -> float:
    """Independent root solve for the bisector-family minimizer of w.

    For an isoceles triangle with unit base and apex height t the leg is
    L = sqrt(1/4 + t^2) and d(ln w)/dt = 8t/L^2 + 6t/(L(2L+1)) - 7/t.
    The size factor R^beta pulls the minimizer below the equilateral
    altitude, so the root sits at t* < sqrt(3)/2.
    """
    def dlogw(t: float) -> float:
        L2 = 0.25 + t * t
        L = math.sqrt(L2)
        return 8.0 * t / L2 + 6.0 * t / (L * (2.0 * L + 1.0)) - 7.0 / t

    lo, hi = 0.3, SQRT3 / 2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dlogw(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_minimum_on_perpendicular_bisector():
    # slide the vertex along the bisector of a fixed unit edge
    p1 = Point2(0, 0)
    p2 = Point2(1, 0)

    def w(t):
        return element_objective(Point2(0.5, t), p1, p2, PARAMS)

    t_star = _bisector_stationary_altitude()
    ts = [0.05 + 0.001 * i for i in range(1800)]
    values = [w(t) for t in ts]
    best = ts[values.index(min(values))]
    assert best == pytest.approx(t_star, abs=0.002)
    # the gradient component along the bisector changes sign there
    lo = element_grad_hess(Point2(0.5, t_star - 0.05), p1, p2, PARAMS)
    hi = element_grad_hess(Point2(0.5, t_star + 0.05), p1, p2, PARAMS)
    assert lo.gy < 0.0 < hi.gy

    # the shape factor alone is minimized at the equilateral altitude
    def shape(t):
        geom = triangle_geometry(Point2(0.5, t), p1, p2)
        return (geom.R / geom.r) ** 3

    shapes = [shape(t) for t in ts]
    best_shape = ts[shapes.index(min(shapes))]
    assert best_shape == pytest.approx(SQRT3 / 2, abs=0.002)


def test_barrier_blowup_on_shrinking_altitude():
    p1 = Point2(0, 0)
    p2 = Point2(1, 0)
    alts = [10.0 ** (-k) for k in range(1, 7)]
    values = [element_objective(Point2(0.5, t), p1, p2, PARAMS) for t in alts]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert element_objective(Point2(0.5, 0.0), p1, p2, PARAMS) == math.inf


def test_ball_objective_single_element():
    mesh = random_ball_mesh(random.Random(2))
    ball = mesh.balls[0]
    # sum over the ball equals the element-wise sum rebuilt by hand
    x0 = mesh.position(0)
    total = sum(
        element_objective(x0, mesh.position(n1), mesh.position(n2), PARAMS)
        for _tid, n1, n2 in ball.elements
    )
    assert ball_objective(mesh, ball, x0, PARAMS) == pytest.approx(total, rel=1e-14)


def test_regular_ball_value_and_stationarity():
    mesh = regular_hexagon_mesh()
    ball = mesh.balls[0]
    w = ball_objective(mesh, ball, Point2(0.0, 0.0), PARAMS)
    assert w == pytest.approx(6 * 8.0 / SQRT3, rel=1e-12)
    gh = ball_grad_hess(mesh, ball, Point2(0.0, 0.0), PARAMS)
    assert math.hypot(gh.gx, gh.gy) < 1e-10
    # positive definite at the symmetric minimum
    assert gh.hxx > 0 and gh.hxx * gh.hyy - gh.hxy ** 2 > 0


def test_ball_barrier_outside_kernel():
    mesh = random_ball_mesh(random.Random(8))
    ball = mesh.balls[0]
    assert ball_objective(mesh, ball, Point2(100.0, 100.0), PARAMS) == math.inf


def test_ball_grad_hess_matches_finite_differences():
    rng = random.Random(17)
    for _ in range(25):
        mesh = random_ball_mesh(rng)
        ball = mesh.balls[0]
        x0 = mesh.position(0)
        gh = ball_grad_hess(mesh, ball, x0, PARAMS)
        h = 1e-7

        def f(x, y):
            return ball_objective(mesh, ball, Point2(x, y), PARAMS)

        gx, gy = fd_gradient(f, x0.x, x0.y, h)
        scale = max(abs(gx), abs(gy), 1.0)
        assert abs(gh.gx - gx) / scale < 1e-5
        assert abs(gh.gy - gy) / scale < 1e-5

        def grad(x, y):
            g = ball_grad_hess(mesh, ball, Point2(x, y), PARAMS)
            return g.gx, g.gy

        jac = fd_jacobian(grad, x0.x, x0.y, h)
        hscale = max(abs(jac[0][0]), abs(jac[1][1]), 1.0)
        assert abs(gh.hxx - jac[0][0]) / hscale < 1e-4
        assert abs(gh.hyy - jac[1][1]) / hscale < 1e-4
        assert abs(gh.hxy - jac[0][1]) / hscale < 1e-4


def test_ball_degenerate_propagates_triangle_id():
    mesh = random_ball_mesh(random.Random(4))
    ball = mesh.balls[0]
    # move the vertex onto a ring node: some element degenerates
    target = mesh.position(ball.elements[0][1])
    with pytest.raises(DegenerateElementError) as err:
        ball_grad_hess(mesh, ball, target, PARAMS)
    assert err.value.triangle_id is not None


def test_per_element_rref_override():
    mesh = random_ball_mesh(random.Random(21))
    ball = mesh.balls[0]
    x0 = mesh.position(0)
    w_base = ball_objective(mesh, ball, x0, PARAMS)
    tid, n1, n2 = ball.elements[0]
    mesh.rref[tid] = 2.0
    w_half = ball_objective(mesh, ball, x0, PARAMS)
    w_elem = element_objective(x0, mesh.position(n1), mesh.position(n2), PARAMS)
    assert w_half == pytest.approx(w_base - w_elem / 2.0, rel=1e-12)


EXPONENT_PAIRS = pytest.mark.parametrize(
    "beta,gamma", [(1.0, 3.0), (2.0, 2.0), (2.0, 1.0), (0.5, 1.5)],
    ids=["1-3", "2-2", "2-1", "0.5-1.5"])


@EXPONENT_PAIRS
def test_exact_derivatives_for_every_exponent_pair(beta, gamma):
    # the bounds of acceptance criterion 1, for every exponent pair
    params = ObjectiveParams(beta=beta, gamma=gamma, r_ref=0.7)
    rng = random.Random(31)
    for _ in range(200):
        p0, p1, p2 = random_triangle(rng)
        gh = element_grad_hess(p0, p1, p2, params)
        assert gh.value == element_objective(p0, p1, p2, params)
        h = 1e-6 * max(edge_lengths(p0, p1, p2))

        def f(x, y):
            return element_objective(Point2(x, y), p1, p2, params)

        gx, gy = fd_gradient(f, p0.x, p0.y, h)
        scale = max(abs(gx), abs(gy), 1.0)
        assert abs(gh.gx - gx) / scale <= 1e-5
        assert abs(gh.gy - gy) / scale <= 1e-5

        def grad(x, y):
            g = element_grad_hess(Point2(x, y), p1, p2, params)
            return g.gx, g.gy

        jac = fd_jacobian(grad, p0.x, p0.y, h)
        hscale = max(abs(jac[0][0]), abs(jac[0][1]), abs(jac[1][1]), 1.0)
        assert abs(gh.hxx - jac[0][0]) / hscale <= 1e-4
        assert abs(gh.hxy - jac[0][1]) / hscale <= 1e-4
        assert abs(gh.hyy - jac[1][1]) / hscale <= 1e-4


def _near_barrier(p1: Point2, p2: Point2, t: float, f: float) -> Point2:
    """The point at parameter t along p1 -> p2, lifted to its left so that
    (point, p1, p2) has about f times the degeneracy threshold of area
    when p1-p2 is its longest edge."""
    ex, ey = p2.x - p1.x, p2.y - p1.y
    n = math.hypot(ex, ey)
    h = f * 2.0 * DEGENERATE_AREA_FACTOR * n
    return Point2(p1.x + t * ex - h * ey / n, p1.y + t * ey + h * ex / n)


def _near_barrier_balls():
    """Random balls and the regular hexagon, each with an rref override on
    its first element, and the vertex positions to try: the start, and
    points that put the first element at 0.5 to 2 times the barrier area."""
    rng = random.Random(47)
    for mesh in [random_ball_mesh(rng) for _ in range(20)] + [regular_hexagon_mesh()]:
        ball = mesh.balls[0]
        tid, n1, n2 = ball.elements[0]
        mesh.rref[tid] = 0.3
        p1, p2 = mesh.position(n1), mesh.position(n2)
        points = [mesh.position(0)] + [
            _near_barrier(p1, p2, 0.5, f) for f in (0.5, 0.99, 1.0, 1.01, 2.0)]
        yield mesh, ball, points


def _outcome(kernel, mesh, ball, x0, params):
    """What a ball kernel returns, as float.hex strings, or what it raises."""
    try:
        result = kernel(mesh, ball, x0, params)
    except (DegenerateElementError, ValueError) as err:
        return type(err), getattr(err, "triangle_id", None)
    return tuple(v.hex() for v in (result if isinstance(result, tuple) else (result,)))


def _reference_ball_objective(mesh, ball, x0, params):
    """The ball value as one element at a time, each read from the mesh:
    +inf past the barrier or when w overflows."""
    total = 0.0
    for tid, n1, n2 in ball.elements:
        p1, p2 = mesh.position(n1), mesh.position(n2)
        a = math.hypot(p1.x - x0.x, p1.y - x0.y)
        b = math.hypot(p2.x - p1.x, p2.y - p1.y)
        c = math.hypot(x0.x - p2.x, x0.y - p2.y)
        area = 0.5 * ((p1.x - x0.x) * (p2.y - x0.y) - (p2.x - x0.x) * (p1.y - x0.y))
        if area <= degenerate_area_eps(a, b, c):
            return math.inf
        s = 0.5 * (a + b + c)
        big_r = a * b * c / (4.0 * area)
        r_ref = mesh.rref.get(tid, params.r_ref)
        try:
            w = (big_r / r_ref) ** params.beta * (big_r * s / area) ** params.gamma
        except OverflowError:
            return math.inf
        if w == math.inf:
            return math.inf
        total += w
    return total


def _reference_ball_grad_hess(mesh, ball, x0, params):
    """The ball derivatives as one element at a time, each read from the
    mesh: DegenerateElementError past the barrier, ValueError when w
    overflows."""
    beta, gamma = params.beta, params.gamma
    sums = [0.0] * 6
    for tid, n1, n2 in ball.elements:
        p1, p2 = mesh.position(n1), mesh.position(n2)
        ux, uy = x0.x - p1.x, x0.y - p1.y
        vx, vy = x0.x - p2.x, x0.y - p2.y
        a = math.hypot(ux, uy)
        b = math.hypot(p2.x - p1.x, p2.y - p1.y)
        c = math.hypot(vx, vy)
        area = 0.5 * (ux * vy - vx * uy)
        if area <= degenerate_area_eps(a, b, c):
            raise DegenerateElementError("degenerate", triangle_id=tid)
        s = 0.5 * (a + b + c)
        big_r = a * b * c / (4.0 * area)
        r_ref = mesh.rref.get(tid, params.r_ref)
        try:
            w = (big_r / r_ref) ** beta * (big_r * s / area) ** gamma
        except OverflowError:
            raise ValueError("overflow") from None
        if w == math.inf:
            raise ValueError("overflow")
        ka = beta + gamma
        kA = beta + 2.0 * gamma
        ia2 = 1.0 / (a * a)
        ic2 = 1.0 / (c * c)
        lax, lay = ux * ia2, uy * ia2
        lcx, lcy = vx * ic2, vy * ic2
        lsx = 0.5 * (ux / a + vx / c) / s
        lsy = 0.5 * (uy / a + vy / c) / s
        sxx = 0.5 * (uy * uy * ia2 / a + vy * vy * ic2 / c) / s
        syy = 0.5 * (ux * ux * ia2 / a + vx * vx * ic2 / c) / s
        sxy = -0.5 * (ux * uy * ia2 / a + vx * vy * ic2 / c) / s
        lAx = 0.5 * (p1.y - p2.y) / area
        lAy = 0.5 * (p2.x - p1.x) / area
        gx = ka * (lax + lcx) + gamma * lsx - kA * lAx
        gy = ka * (lay + lcy) + gamma * lsy - kA * lAy
        hxx = (ka * (ia2 + ic2 - 2.0 * (lax * lax + lcx * lcx))
               + gamma * (sxx - lsx * lsx) + kA * lAx * lAx + gx * gx)
        hyy = (ka * (ia2 + ic2 - 2.0 * (lay * lay + lcy * lcy))
               + gamma * (syy - lsy * lsy) + kA * lAy * lAy + gy * gy)
        hxy = (-2.0 * ka * (lax * lay + lcx * lcy)
               + gamma * (sxy - lsx * lsy) + kA * lAx * lAy + gx * gy)
        for k, v in enumerate((w, w * gx, w * gy, w * hxx, w * hxy, w * hyy)):
            sums[k] += v
    return tuple(sums)


def _assert_kernels_match_reference(mesh, ball, x0, params):
    """ball_objective and ball_grad_hess give the reference's bits, +inf or
    exception, from a Ball and from its BallFrame alike."""
    frame = freeze_ball(mesh, ball, params)
    assert isinstance(frame, BallFrame) and frame.vertex == ball.vertex
    assert len(frame.elements) == len(ball.elements)
    for kernel, reference in ((ball_objective, _reference_ball_objective),
                              (ball_grad_hess, _reference_ball_grad_hess)):
        expected = _outcome(reference, mesh, ball, x0, params)
        assert _outcome(kernel, mesh, ball, x0, params) == expected
        assert _outcome(kernel, mesh, frame, x0, params) == expected


@EXPONENT_PAIRS
def test_ball_value_paths_agree_bitwise(beta, gamma):
    # Armijo compares the value of ball_grad_hess with ball_objective, and
    # the Newton solve relies on both paths seeing the barrier alike: at
    # the start and with the first element straddling the barrier,
    # ball_grad_hess raises exactly where ball_objective is +inf and
    # otherwise returns its value bit for bit
    params = ObjectiveParams(beta=beta, gamma=gamma)
    outcomes = set()
    for mesh, ball, points in _near_barrier_balls():
        for x0 in points:
            w = ball_objective(mesh, ball, x0, params)
            try:
                value = ball_grad_hess(mesh, ball, x0, params).value
            except DegenerateElementError:
                assert w == math.inf
                outcomes.add("barrier")
            else:
                assert value.hex() == w.hex() and w < math.inf
                outcomes.add("finite")
    assert outcomes == {"barrier", "finite"}


@EXPONENT_PAIRS
def test_frame_and_ball_agree_bitwise(beta, gamma):
    # the frame frozen once per solve gives the kernels the same floats as
    # reading the mesh one element at a time, also at and past the barrier
    params = ObjectiveParams(beta=beta, gamma=gamma)
    barrier = 0
    for mesh, ball, points in _near_barrier_balls():
        for x0 in points:
            _assert_kernels_match_reference(mesh, ball, x0, params)
            barrier += ball_objective(mesh, ball, x0, params) == math.inf
    assert barrier > 0


@given(
    scale=st.floats(min_value=1e-6, max_value=1e6),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    offset=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    t=st.floats(min_value=0.0, max_value=1.0),
    f=st.floats(min_value=0.5, max_value=1.5),
    exponents=st.sampled_from([(1.0, 3.0), (2.0, 2.0), (0.5, 1.5)]),
)
@example(scale=1.0, angle=0.0, offset=(0.0, 0.0), t=0.5, f=0.5,
         exponents=(1.0, 3.0))
@example(scale=1.0, angle=0.0, offset=(0.0, 0.0), t=0.5, f=1.5,
         exponents=(1.0, 3.0))
def test_kernels_agree_near_the_barrier(scale, angle, offset, t, f, exponents):
    # an element whose area straddles DEGENERATE_AREA_FACTOR * max(a, b, c)^2
    p1 = Point2(scale * offset[0], scale * offset[1])
    p2 = Point2(p1.x + scale * math.cos(angle), p1.y + scale * math.sin(angle))
    p0 = _near_barrier(p1, p2, t, f)
    degenerate = signed_area(p0, p1, p2) <= degenerate_area_eps(
        *edge_lengths(p0, p1, p2))
    beta, gamma = exponents
    params = ObjectiveParams(beta=beta, gamma=gamma, r_ref=0.7)
    w = element_objective(p0, p1, p2, params)
    assert (w == math.inf) == degenerate
    if degenerate:
        with pytest.raises(DegenerateElementError):
            element_grad_hess(p0, p1, p2, params)
    else:
        assert element_grad_hess(p0, p1, p2, params).value.hex() == w.hex()
    # the same element as a one-element ball, read from the mesh or frozen
    mesh = synthetic_single_ball(p0, [p1, p2])
    assert ball_objective(mesh, mesh.balls[0], p0, params).hex() == w.hex()
    _assert_kernels_match_reference(mesh, mesh.balls[0], p0, params)


@pytest.mark.parametrize("params", [
    # (R / r_ref)^beta alone overflows
    ObjectiveParams(beta=2.0, r_ref=1e-300),
    # each power is finite but their product overflows to +inf
    ObjectiveParams(gamma=40.0, r_ref=1e-300),
], ids=["power", "product"])
def test_overflow_scores_inf_and_derivatives_raise(params):
    # an overflowing w is rejected like the barrier where a trial is
    # scored, and is an invalid parameter where derivatives are taken
    assert element_objective(*EQUILATERAL, params) == math.inf
    with pytest.raises(ValueError, match="overflows"):
        element_grad_hess(*EQUILATERAL, params)
    mesh = regular_hexagon_mesh()
    ball = mesh.balls[0]
    assert ball_objective(mesh, ball, Point2(0.0, 0.0), params) == math.inf
    with pytest.raises(ValueError, match="overflows"):
        ball_grad_hess(mesh, ball, Point2(0.0, 0.0), params)
    _assert_kernels_match_reference(mesh, ball, Point2(0.0, 0.0), params)
