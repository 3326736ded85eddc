"""Damped Newton optimization of one internal node's ball.

The ball gradient and Hessian belong to the iterate. Every point the
solve scores, the start and each trial, is evaluated once by
``ball_grad_hess``, and an accepted trial's derivatives become the
iterate's without a second evaluation. Each iteration checks the
gradient-norm termination test, picks a descent direction, and runs
one Armijo test on the value at the trial point: accept the trial point
and keep the step size, or keep the point and bisect the step size. A
trial past the barrier, or one whose w overflows, is rejected like a
trial whose value is +inf; at the start the same conditions raise (see
``optimize_ball``). The step size persists across iterations; it is
never reset or enlarged.

The direction is d = -(H + tau I)^-1 grad, a Levenberg-style shift of
the Hessian (Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
section 3.4). With lambda_min and lambda_max the eigenvalues of H,
tau = max(0, kappa max(|lambda_max|, |lambda_min|) - lambda_min) and
kappa = ``KAPPA`` (1e-2): a Hessian whose eigenvalues are positive and
within a factor 1/kappa of each other is not shifted, and the pure
Newton step is kept; any other is shifted until its smallest eigenvalue
is kappa times its largest magnitude, so the shifted matrix is positive
definite with a condition number of at most (2 + kappa)/kappa (about
201). The step stays scaled to the ball wherever H is indefinite or ill
conditioned, so neither a step that overshoots into the barrier nor an
unscaled -grad has to be bisected many times. The 2x2 solve scales the
shifted matrix by 2^-e, e the binary exponent of its largest eigenvalue
magnitude, which is exact, so no determinant overflows or underflows
and the direction does not depend on the scale of w (a uniform r_ref
multiplies w, grad and H alike). Only a Hessian that is zero or not
finite, whose shifted determinant is not positive, or whose solve does
not give two finite floats falls back to d = -grad.
``IterationRecord.steepest`` marks a step whose direction is not the
pure Newton one: tau > 0 or the fallback.

The Armijo test accepts a trial when w_new - w_old <= c1 lambda grad.d,
with the one factor c1 = ``ARMIJO_C1`` (1e-4) for every direction
(Nocedal & Wright, sections 3.1 and 3.5): on a quadratic model the full
Newton step decreases w by exactly 0.5 grad.d, so a factor of one half
would reject lambda = 1 whenever cubic terms or rounding take a little
of that, and since lambda never grows back, the rest of the solve would
converge only linearly.

The ball's neighbour geometry is frozen once per solve into a
``BallFrame`` (see ``objective``), and every kernel call of the solve
reads that frame. The solve runs on plain floats: the iterate is its two
coordinates, and each kernel result is unpacked once into six locals,
the value w, the gradient (gx, gy) and the Hessian entries (hxx, hxy,
hyy). The gradient norm, the direction, grad.d, the stall threshold and
every ``IterationRecord`` are taken from those locals, at the top of
every iteration. The kernel is looked up as this module's
``ball_grad_hess`` and called with four positional arguments, the third
a ``Point2`` of the start or of the trial, so a caller can wrap it to
count calls and elements. The trial's ``Point2`` is kept for that
caller; it is a tuple packed with ``tuple.__new__``, as each
``IterationRecord`` is, and becomes the iterate when accepted.

Before a trial is evaluated, the solve ends as ``stalled`` once its
predicted decrease 0.5 lambda |grad.d| is at most ``STALL_ULPS`` (4) ulps
of the iterate's value w. This is the Newton-decrement stop of Boyd &
Vandenberghe, *Convex Optimization* section 9.5: both values that
Armijo compares are rounded, so a decrease of a few ulps can be neither
met reliably nor told apart from rounding error, and each bisection
halves it again. The returned iterate is still the last accepted one, so
the ball objective is never above its starting value, and ``converged``
still means the gradient norm fell below ``EPS``.

A trial point that rounds back onto the iterate (x + lambda d == x in
both coordinates) ends the solve before its objective is evaluated: the
step size only shrinks and fl(x + t d) is monotone in t, so every later
trial rounds onto x as well, and Armijo rejects a trial at x because its
value is the iterate's (one kernel scores both) while lambda grad.d < 0.
Neither the iterate nor its derivatives can change again, so the
returned position, ``converged`` and ``final_grad_norm`` are those the
loop would reach without this exit; only the trace is shorter. With
the ``stalled`` test first, this exit is reached only when the
coordinates are large next to the ball.

Each solve records why it stopped (``LocalStepTrace.stop_reason``):
``converged`` (gradient norm below ``EPS``), ``stalled`` (the predicted
decrease is below what w can resolve), ``rounded`` (the trial step
rounds back onto the iterate), ``step_floor`` (the step size fell below
``LAMBDA_MIN``) or ``j_max`` (the iteration cap: ``J_MAX`` + 1 Armijo
trials). On hitting either bound the current (best) iterate is returned.
The tolerance ``EPS`` (1e-8), both bounds, the shift factor ``KAPPA``,
``STALL_ULPS`` and the Armijo factor are module constants, not
configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .geometry import Point2
from .mesh import Ball, Mesh
# ball_objective is not called here but stays a name of this module: the
# benchmark tracer wraps osmot.newton.ball_objective by name, next to
# ball_grad_hess, and every traced run fails without it
from .objective import (
    DegenerateElementError,
    ObjectiveOverflowError,
    ObjectiveParams,
    ball_grad_hess,
    ball_objective,
    freeze_ball,
)


class DegenerateStartError(Exception):
    """The ball contains a degenerate element at the starting position."""

    def __init__(self, node_id: int, triangle_id: int | None):
        self.node_id = node_id
        self.triangle_id = triangle_id
        super().__init__(
            f"ball of node {node_id} is degenerate at the start"
            + (f" (triangle {triangle_id})" if triangle_id is not None else "")
        )


class IterationRecord(NamedTuple):
    """One inner iteration: state before the step and the Armijo outcome."""

    value: float
    grad_norm: float
    grad_dot_dir: float
    step_size: float
    accepted: bool
    # the direction is not the pure Newton one: the Hessian was shifted
    # (tau > 0) or replaced by the identity (d = -grad); the name is the
    # benchmark's newton.steepest_frac
    steepest: bool


StopReason = Literal["converged", "stalled", "rounded", "step_floor", "j_max"]

# the gradient-norm termination tolerance, the iteration cap (J_MAX + 1
# Armijo trials) and the step-size floor
EPS = 1e-8
J_MAX = 50
LAMBDA_MIN = 2.0 ** -30
# a trial whose predicted decrease 0.5 lambda |grad.d| is at most this many
# ulps of the iterate's value is not evaluated: the solve ends as stalled
STALL_ULPS = 4.0
# the Hessian is shifted by tau I until its smallest eigenvalue is at least
# KAPPA times its largest magnitude (see the module docstring)
KAPPA = 1e-2
# the Armijo factor c1 in w_new - w_old <= c1 lambda grad.d
ARMIJO_C1 = 1e-4


@dataclass(frozen=True, slots=True)
class LocalStepTrace:
    stop_reason: StopReason
    final_grad_norm: float
    steps: tuple[IterationRecord, ...]

    @property
    def converged(self) -> bool:
        """Whether the gradient-norm tolerance was met."""
        return self.stop_reason == "converged"

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def used_steepest_count(self) -> int:
        """Steps whose direction is not the pure Newton one (see
        ``IterationRecord.steepest``)."""
        return sum(s.steepest for s in self.steps)

    @property
    def armijo_rejections(self) -> int:
        return sum(not s.accepted for s in self.steps)


def descent_direction(gx: float, gy: float, hxx: float, hxy: float,
                      hyy: float) -> tuple[float, float, bool]:
    """The direction -(H + tau I)^-1 grad of the gradient (gx, gy) and the
    Hessian entries (hxx, hxy, hyy), with the shift tau of the module
    docstring, or -grad when H is zero or not finite, the shifted
    determinant is not positive or the solve does not give finite floats;
    and whether it differs from the pure Newton direction (tau > 0, or
    -grad). Always satisfies grad . d < 0 for a nonzero gradient, and
    raises for no finite input."""
    # the eigenvalues of the symmetric 2x2 Hessian are mid -+ half_gap, so
    # the larger magnitude is |mid| + half_gap
    mid = 0.5 * (hxx + hyy)
    half_gap = math.hypot(0.5 * (hxx - hyy), hxy)
    big = abs(mid) + half_gap
    if not 0.0 < big < math.inf:
        return -gx, -gy, True
    tau = KAPPA * big - (mid - half_gap)
    shifted = tau > 0.0
    if shifted:
        hxx += tau
        hyy += tau
    # scaled by 2^-e, e the exponent of big, the shifted matrix has entries
    # of order one, so its determinant neither overflows nor underflows;
    # ldexp rounds only a subnormal result, so wherever the unscaled solve
    # stays in normal floats d has its bits
    e = math.frexp(big)[1]
    hxx = math.ldexp(hxx, -e)
    hxy = math.ldexp(hxy, -e)
    hyy = math.ldexp(hyy, -e)
    det = hxx * hyy - hxy * hxy
    if not det > 0.0:
        return -gx, -gy, True
    # 2x2 solve (H + tau I) d = -grad by Cramer's rule
    try:
        dx = math.ldexp(-(hyy * gx - hxy * gy) / det, -e)
        dy = math.ldexp(-(hxx * gy - hxy * gx) / det, -e)
    except OverflowError:
        return -gx, -gy, True
    if not (abs(dx) < math.inf and abs(dy) < math.inf):
        return -gx, -gy, True
    return dx, dy, shifted


def armijo_accept(w_old: float, w_new: float, step_size: float,
                  grad_dot_d: float) -> bool:
    """Sufficient-decrease test w_new - w_old <= c1 lambda grad.d with
    c1 = ``ARMIJO_C1`` (1e-4). An infinite trial value always fails."""
    return w_new - w_old <= ARMIJO_C1 * step_size * grad_dot_d


def optimize_ball(mesh: Mesh, ball: Ball, params: ObjectiveParams
                  ) -> tuple[Point2, LocalStepTrace]:
    """Relocate the ball vertex by damped Newton iteration.

    Returns the final position together with a trace of the run. The ball
    objective at the returned position is never above the value at the
    starting position. Raises DegenerateStartError when derivatives cannot
    be evaluated at the initial position; callers skip such nodes. Raises
    ObjectiveOverflowError, a ValueError, when a w overflows there.
    """
    frame = freeze_ball(mesh, ball, params)
    x = mesh.position(ball.vertex)
    try:
        w, gx, gy, hxx, hxy, hyy = ball_grad_hess(mesh, frame, x, params)
    except DegenerateElementError as err:
        raise DegenerateStartError(ball.vertex, err.triangle_id) from None

    px, py = x
    grad_norm = math.hypot(gx, gy)
    lam = 1.0
    steps: list[IterationRecord] = []
    stop_reason: StopReason = "j_max"

    while len(steps) <= J_MAX:
        if grad_norm < EPS:
            stop_reason = "converged"
            break
        dx, dy, steepest = descent_direction(gx, gy, hxx, hxy, hyy)
        grad_dot_d = gx * dx + gy * dy
        if 0.5 * lam * -grad_dot_d <= STALL_ULPS * math.ulp(w):
            stop_reason = "stalled"
            break
        tx = px + lam * dx
        ty = py + lam * dy
        if tx == px and ty == py:
            stop_reason = "rounded"
            break
        trial = tuple.__new__(Point2, (tx, ty))
        try:
            trial_gh = ball_grad_hess(mesh, frame, trial, params)
            accepted = armijo_accept(w, trial_gh[0], lam, grad_dot_d)
        except (DegenerateElementError, ObjectiveOverflowError):
            # w_new = +inf, which Armijo always rejects
            accepted = False
        # tuple.__new__ packs the record without the named-field
        # constructor's Python-level call, as namedtuple's _make does
        steps.append(tuple.__new__(IterationRecord, (
            w, grad_norm, grad_dot_d, lam, accepted, steepest)))
        if accepted:
            x, px, py = trial, tx, ty
            w, gx, gy, hxx, hxy, hyy = trial_gh
            grad_norm = math.hypot(gx, gy)
        else:
            lam *= 0.5
            if lam < LAMBDA_MIN:
                stop_reason = "step_floor"
                break

    return x, LocalStepTrace(stop_reason=stop_reason,
                             final_grad_norm=grad_norm,
                             steps=tuple(steps))
