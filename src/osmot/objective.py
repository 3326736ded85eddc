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

w is formed in two places, ``_value`` (the value path) and ``_grad_hess``
(the derivative path), each from its own a, b, c and signed area. The
two sets are equal bit for bit, so both paths return the same w, and
``_grad_hess`` raises DegenerateElementError exactly where ``_value``
gives +inf. Armijo compares the ball sums of the two paths, and the
Newton solve relies on a trial at the iterate scoring exactly the
iterate's value. The barrier test is ``degenerate_area_eps`` inlined.
A power that overflows a float raises ValueError, which ``osmot smooth``
reports as an invalid parameter (exit 1); a product of two finite powers
that overflows is +inf and acts as the barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import hypot

from .geometry import DEGENERATE_AREA_FACTOR, Point2
from .mesh import Ball, Mesh


class DegenerateElementError(Exception):
    """Derivative evaluation on a (nearly) zero-area or zero-edge element."""

    def __init__(self, message: str, triangle_id: int | None = None):
        self.triangle_id = triangle_id
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class ObjectiveParams:
    """Weighting exponents and reference radius of the objective."""

    beta: float = 1.0
    gamma: float = 3.0
    r_ref: float = 1.0

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.beta, self.gamma, self.r_ref)):
            raise ValueError("beta, gamma and r_ref must be finite and positive")


@dataclass(frozen=True, slots=True)
class GradHess:
    """Objective value, gradient and symmetric 2x2 Hessian at one point.

    The Hessian is stored as its three distinct entries (hxx, hxy, hyy),
    so symmetry holds by construction.
    """

    value: float
    gx: float
    gy: float
    hxx: float
    hxy: float
    hyy: float

    @property
    def hess(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.hxx, self.hxy), (self.hxy, self.hyy))

    @property
    def grad_norm(self) -> float:
        return math.hypot(self.gx, self.gy)


def _overflow(beta: float, gamma: float, r_ref: float) -> ValueError:
    """The error raised when a power in w overflows a float: the exponents
    are too large for the element sizes and r_ref of this mesh."""
    return ValueError(f"element objective overflows a float at beta={beta:g}, "
                      f"gamma={gamma:g}, r_ref={r_ref:g}")


def _value(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float,
           beta: float, gamma: float, r_ref: float) -> float:
    """Element objective with the vertex at (x0, y0); +inf past the barrier."""
    a = hypot(x1 - x0, y1 - y0)
    b = hypot(x2 - x1, y2 - y1)
    c = hypot(x0 - x2, y0 - y2)
    area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    # degenerate_area_eps(a, b, c), inlined
    m = a if a > b else b
    if c > m:
        m = c
    if area <= DEGENERATE_AREA_FACTOR * m * m:
        return math.inf
    s = 0.5 * (a + b + c)
    big_r = a * b * c / (4.0 * area)
    try:
        return (big_r / r_ref) ** beta * (big_r * s / area) ** gamma
    except OverflowError:
        raise _overflow(beta, gamma, r_ref) from None


def _grad_hess(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float,
               beta: float, gamma: float, r_ref: float
               ) -> tuple[float, float, float, float, float, float]:
    """Exact (w, wx, wy, wxx, wxy, wyy) with respect to (x0, y0).

    w is formed from the same a, b, c and area as in ``_value``: hypot
    ignores the sign of its arguments and the area is a sum of products
    of two negated factors, so both functions return the same w bit for
    bit, and this one raises exactly where ``_value`` gives +inf.
    """
    ux = x0 - x1
    uy = y0 - y1
    vx = x0 - x2
    vy = y0 - y2
    a = hypot(ux, uy)
    b = hypot(x2 - x1, y2 - y1)
    c = hypot(vx, vy)
    area = 0.5 * (ux * vy - vx * uy)
    m = a if a > b else b
    if c > m:
        m = c
    if area <= DEGENERATE_AREA_FACTOR * m * m:
        raise DegenerateElementError("element too distorted for derivatives")
    s = 0.5 * (a + b + c)
    big_r = a * b * c / (4.0 * area)
    try:
        w = (big_r / r_ref) ** beta * (big_r * s / area) ** gamma
    except OverflowError:
        raise _overflow(beta, gamma, r_ref) from None
    if w == math.inf:
        raise DegenerateElementError("element too distorted for derivatives")
    ka = beta + gamma
    kA = beta + 2.0 * gamma

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
    # grad A = (y1 - y2, x2 - x1)/2
    lAx = 0.5 * (y1 - y2) / area
    lAy = 0.5 * (x2 - x1) / area

    # grad L, then grad^2 w / w = grad^2 L + grad L grad L^T
    gx = ka * (lax + lcx) + gamma * lsx - kA * lAx
    gy = ka * (lay + lcy) + gamma * lsy - kA * lAy
    hxx = (ka * (ia2 + ic2 - 2.0 * (lax * lax + lcx * lcx))
           + gamma * (sxx - lsx * lsx) + kA * lAx * lAx + gx * gx)
    hyy = (ka * (ia2 + ic2 - 2.0 * (lay * lay + lcy * lcy))
           + gamma * (syy - lsy * lsy) + kA * lAy * lAy + gy * gy)
    hxy = (-2.0 * ka * (lax * lay + lcx * lcy)
           + gamma * (sxy - lsx * lsy) + kA * lAx * lAy + gx * gy)
    return w, w * gx, w * gy, w * hxx, w * hxy, w * hyy


def element_objective(p0: Point2, p1: Point2, p2: Point2,
                      params: ObjectiveParams) -> float:
    """Objective of one element with the movable vertex at p0."""
    return _value(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y,
                  params.beta, params.gamma, params.r_ref)


def element_grad_hess(p0: Point2, p1: Point2, p2: Point2,
                      params: ObjectiveParams) -> GradHess:
    """Objective value, gradient and Hessian with respect to p0."""
    return GradHess(*_grad_hess(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y,
                                params.beta, params.gamma, params.r_ref))


def ball_objective(mesh: Mesh, ball: Ball, x0: Point2,
                   params: ObjectiveParams) -> float:
    """Sum of element objectives over a ball with the vertex at x0."""
    total = 0.0
    nodes = mesh.nodes
    rref = mesh.rref
    beta, gamma, r_ref = params.beta, params.gamma, params.r_ref
    px, py = x0.x, x0.y
    for tid, n1, n2 in ball.elements:
        p1 = nodes[n1].position
        p2 = nodes[n2].position
        w = _value(px, py, p1.x, p1.y, p2.x, p2.y,
                   beta, gamma, rref.get(tid, r_ref))
        if w == math.inf:
            return math.inf
        total += w
    return total


def ball_grad_hess(mesh: Mesh, ball: Ball, x0: Point2,
                   params: ObjectiveParams) -> GradHess:
    """Component-wise sums of element value/gradient/Hessian over a ball."""
    tw = tgx = tgy = thxx = thxy = thyy = 0.0
    nodes = mesh.nodes
    rref = mesh.rref
    beta, gamma, r_ref = params.beta, params.gamma, params.r_ref
    px, py = x0.x, x0.y
    for tid, n1, n2 in ball.elements:
        p1 = nodes[n1].position
        p2 = nodes[n2].position
        try:
            w, wx, wy, wxx, wxy, wyy = _grad_hess(
                px, py, p1.x, p1.y, p2.x, p2.y,
                beta, gamma, rref.get(tid, r_ref))
        except DegenerateElementError as err:
            raise DegenerateElementError(str(err), triangle_id=tid) from None
        tw += w
        tgx += wx
        tgy += wy
        thxx += wxx
        thxy += wxy
        thyy += wyy
    return GradHess(tw, tgx, tgy, thxx, thxy, thyy)
