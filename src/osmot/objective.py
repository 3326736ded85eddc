"""Element and ball objective with exact gradient and Hessian.

The per-element objective combines the size measure and the shape measure
as

    w = (R/r_ref)^beta * (R/r)^gamma,   R = abc/(4A),   R/r = abc*s/(4A^2),

with edge lengths a (vertices 0-1), b (1-2), c (2-0), semiperimeter s and
signed area A. Only the vertex at local slot 0 moves, so b is constant
and the logarithm

    L = ln w = (beta+gamma)(ln a + ln c) + gamma ln s - (beta+2 gamma) ln A + const

has closed-form first and second derivatives for every beta, gamma > 0.
The signed area is linear in the vertex, so its Hessian vanishes and
grad^2 ln A = -grad ln A grad ln A^T. The derivatives of w follow as
grad w = w grad L and grad^2 w = w (grad^2 L + grad L grad L^T).

A trial position that inverts the element (signed area at or below the
degeneracy threshold) scores +inf. This acts as a barrier: the line
search can never accept an inverting step, which is what makes the
smoother stable on non-convex configurations.

Everything about an element that does not depend on the moving vertex
(its neighbour coordinates, the opposite edge b, its reference radius
and the constant area gradient) is frozen once per Newton solve into a
``BallFrame`` by ``freeze_ball``. ``ball_grad_hess`` takes a frame and
runs the one kernel loop over its elements; ``element_grad_hess`` runs
it over a one-element frame. Both return the loop's six floats (w, wx,
wy, wxx, wxy, wyy) as a plain tuple.

The loop raises DegenerateElementError at the barrier and
ObjectiveOverflowError, a ValueError, when a w overflows a float (one
power, or the product of two finite powers). ``ball_objective`` and
``element_objective`` are the value of that loop with both mapped to
+inf, so a value equals the derivative value bit for bit by
construction. The Newton solve scores each trial with the derivatives
and rejects one that raises, like a trial whose value is +inf; at the
start of a solve an overflow means the exponents are too large for this
mesh, and ``osmot smooth`` reports it as an invalid parameter (exit 1).
The barrier test is ``degenerate_area_eps`` inlined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import hypot, inf

from .geometry import DEGENERATE_AREA_FACTOR, Point2
from .mesh import Ball, Mesh


class DegenerateElementError(Exception):
    """Derivative evaluation on a (nearly) zero-area or zero-edge element."""

    def __init__(self, message: str, triangle_id: int | None = None):
        self.triangle_id = triangle_id
        super().__init__(message)


class ObjectiveOverflowError(ValueError):
    """An element's w overflows a float: the exponents are too large for
    the element sizes and r_ref of this mesh."""

    def __init__(self, beta: float, gamma: float, r_ref: float):
        super().__init__(f"element objective overflows a float at beta={beta:g}, "
                         f"gamma={gamma:g}, r_ref={r_ref:g}")


@dataclass(frozen=True, slots=True)
class ObjectiveParams:
    """Weighting exponents and reference radius of the objective."""

    beta: float = 1.0
    gamma: float = 3.0
    r_ref: float = 1.0

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.beta, self.gamma, self.r_ref)):
            raise ValueError("beta, gamma and r_ref must be finite and positive")


# The value, gradient and Hessian of w at one point, (w, wx, wy, wxx, wxy,
# wyy); the Hessian is its three distinct entries, so it is symmetric by
# construction.
Derivatives = tuple[float, float, float, float, float, float]

# One frozen element: (triangle id, x1, y1, x2, y2, b, r_ref, hx, hy), where
# (hx, hy) = ((y1 - y2)/2, (x2 - x1)/2) is the gradient of the signed area.
FrameElement = tuple[int | None, float, float, float, float, float, float,
                     float, float]


@dataclass(frozen=True, slots=True)
class BallFrame:
    """A ball's neighbour geometry, frozen for one Newton solve.

    ``elements`` holds one ``FrameElement`` per element of the ball, in
    the ball's order. Its r_ref is the element's ``mesh.rref`` override or
    the ``params.r_ref`` the frame was frozen with. A frame stays valid
    while the ball's neighbour nodes do not move.
    """

    vertex: int
    elements: tuple[FrameElement, ...]


def _frame_element(tid: int | None, x1: float, y1: float, x2: float, y2: float,
                   r_ref: float) -> FrameElement:
    return (tid, x1, y1, x2, y2, hypot(x2 - x1, y2 - y1), r_ref,
            0.5 * (y1 - y2), 0.5 * (x2 - x1))


def freeze_ball(mesh: Mesh, ball: Ball, params: ObjectiveParams) -> BallFrame:
    """The frame of a ball at the current neighbour positions."""
    positions = mesh._positions
    rref = mesh.rref
    r_ref = params.r_ref
    elements = []
    for tid, n1, n2 in ball.elements:
        p1 = positions[n1]
        p2 = positions[n2]
        elements.append(_frame_element(tid, p1.x, p1.y, p2.x, p2.y,
                                       rref.get(tid, r_ref)))
    return BallFrame(ball.vertex, tuple(elements))


def _frame_grad_hess(px: float, py: float, elements: tuple[FrameElement, ...],
                     beta: float, gamma: float) -> Derivatives:
    """Sums of the exact (w, wx, wy, wxx, wxy, wyy) of the elements with
    respect to the vertex at (px, py).

    Raises DegenerateElementError past the barrier of any element and
    ObjectiveOverflowError when a w overflows.
    """
    factor = DEGENERATE_AREA_FACTOR
    ka = beta + gamma
    kA = beta + 2.0 * gamma
    m2ka = -2.0 * ka
    tw = tgx = tgy = thxx = thxy = thyy = 0.0
    for tid, x1, y1, x2, y2, b, r_ref, hx, hy in elements:
        ux = px - x1
        uy = py - y1
        vx = px - x2
        vy = py - y2
        a = hypot(ux, uy)
        c = hypot(vx, vy)
        area = 0.5 * (ux * vy - vx * uy)
        # degenerate_area_eps(a, b, c), inlined
        m = a if a > b else b
        if c > m:
            m = c
        if area <= factor * m * m:
            raise DegenerateElementError(
                "element too distorted for derivatives", triangle_id=tid)
        s = 0.5 * (a + b + c)
        big_r = a * b * c / (4.0 * area)
        try:
            w = (big_r / r_ref) ** beta * (big_r * s / area) ** gamma
        except OverflowError:
            raise ObjectiveOverflowError(beta, gamma, r_ref) from None
        if w == inf:
            raise ObjectiveOverflowError(beta, gamma, r_ref)

        # grad ln a = u/a^2, grad^2 ln a = I/a^2 - 2 grad ln a grad ln a^T; same for c
        ia2 = 1.0 / (a * a)
        ic2 = 1.0 / (c * c)
        lax = ux * ia2
        lay = uy * ia2
        lcx = vx * ic2
        lcy = vy * ic2
        # grad ln s = grad s/s and sxx, sxy, syy = grad^2 s/s, where
        # grad s = (u/a + v/c)/2 and grad^2 s = ((I - u u^T/a^2)/a + (I - v v^T/c^2)/c)/2
        lsx = 0.5 * (ux / a + vx / c) / s
        lsy = 0.5 * (uy / a + vy / c) / s
        sxx = 0.5 * (uy * uy * ia2 / a + vy * vy * ic2 / c) / s
        syy = 0.5 * (ux * ux * ia2 / a + vx * vx * ic2 / c) / s
        sxy = -0.5 * (ux * uy * ia2 / a + vx * vy * ic2 / c) / s
        # grad ln A = (hx, hy)/A
        lAx = hx / area
        lAy = hy / area

        # grad L, then grad^2 w / w = grad^2 L + grad L grad L^T; each
        # shared product is formed once, in the order the formulas read
        kAx = kA * lAx
        kAy = kA * lAy
        i2 = ia2 + ic2
        gx = ka * (lax + lcx) + gamma * lsx - kAx
        gy = ka * (lay + lcy) + gamma * lsy - kAy
        hxx = (ka * (i2 - 2.0 * (lax * lax + lcx * lcx))
               + gamma * (sxx - lsx * lsx) + kAx * lAx + gx * gx)
        hyy = (ka * (i2 - 2.0 * (lay * lay + lcy * lcy))
               + gamma * (syy - lsy * lsy) + kAy * lAy + gy * gy)
        hxy = (m2ka * (lax * lay + lcx * lcy)
               + gamma * (sxy - lsx * lsy) + kAx * lAy + gx * gy)
        tw += w
        tgx += w * gx
        tgy += w * gy
        thxx += w * hxx
        thxy += w * hxy
        thyy += w * hyy
    return tw, tgx, tgy, thxx, thxy, thyy


def element_objective(p0: Point2, p1: Point2, p2: Point2,
                      params: ObjectiveParams) -> float:
    """Objective of one element with the movable vertex at p0: the value
    of ``element_grad_hess``, +inf past the barrier or when w overflows."""
    try:
        return element_grad_hess(p0, p1, p2, params)[0]
    except (DegenerateElementError, ObjectiveOverflowError):
        return inf


def element_grad_hess(p0: Point2, p1: Point2, p2: Point2,
                      params: ObjectiveParams) -> Derivatives:
    """Objective value, gradient and Hessian with respect to p0."""
    element = _frame_element(None, p1.x, p1.y, p2.x, p2.y, params.r_ref)
    return _frame_grad_hess(p0.x, p0.y, (element,), params.beta, params.gamma)


# mesh is unused by both ball entry points but stays their first
# parameter: the benchmark tracer wraps them and unpacks four positional
# arguments
def ball_objective(mesh: Mesh, frame: BallFrame, x0: Point2,
                   params: ObjectiveParams) -> float:
    """Sum of element objectives over a frame with the vertex at x0: the
    value of ``ball_grad_hess``, +inf past the barrier of any element or
    when a w overflows."""
    try:
        return ball_grad_hess(mesh, frame, x0, params)[0]
    except (DegenerateElementError, ObjectiveOverflowError):
        return inf


def ball_grad_hess(mesh: Mesh, frame: BallFrame, x0: Point2,
                   params: ObjectiveParams) -> Derivatives:
    """Component-wise sums of the element derivatives over a frame with
    the vertex at x0."""
    return _frame_grad_hess(x0.x, x0.y, frame.elements, params.beta,
                            params.gamma)
