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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Point2, degenerate_area_eps
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


def _value(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float,
           beta: float, gamma: float, r_ref: float) -> float:
    """Element objective with the vertex at (x0, y0); +inf past the barrier.

    The only place w is formed, so ball sums from the value path and the
    derivative path agree bit for bit (Armijo compares them).
    """
    a = math.hypot(x1 - x0, y1 - y0)
    b = math.hypot(x2 - x1, y2 - y1)
    c = math.hypot(x0 - x2, y0 - y2)
    area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    if area <= degenerate_area_eps(a, b, c):
        return math.inf
    big_r = a * b * c / (4.0 * area)
    return (big_r / r_ref) ** beta * (big_r * (0.5 * (a + b + c)) / area) ** gamma


def _grad_hess(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float,
               beta: float, gamma: float, r_ref: float
               ) -> tuple[float, float, float, float, float, float]:
    """Exact (w, wx, wy, wxx, wxy, wyy) with respect to (x0, y0)."""
    w = _value(x0, y0, x1, y1, x2, y2, beta, gamma, r_ref)
    if w == math.inf:
        raise DegenerateElementError("element too distorted for derivatives")
    ux = x0 - x1
    uy = y0 - y1
    vx = x0 - x2
    vy = y0 - y2
    a = math.hypot(ux, uy)
    c = math.hypot(vx, vy)
    s = 0.5 * (a + math.hypot(x2 - x1, y2 - y1) + c)
    area = 0.5 * (ux * vy - vx * uy)
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
    for tid, n1, n2 in ball.elements:
        p1 = nodes[n1].position
        p2 = nodes[n2].position
        w = _value(x0.x, x0.y, p1.x, p1.y, p2.x, p2.y,
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
    for tid, n1, n2 in ball.elements:
        p1 = nodes[n1].position
        p2 = nodes[n2].position
        try:
            w, wx, wy, wxx, wxy, wyy = _grad_hess(
                x0.x, x0.y, p1.x, p1.y, p2.x, p2.y,
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
