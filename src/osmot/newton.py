"""Damped Newton optimization of one internal node's ball.

The ball gradient and Hessian belong to the iterate. Every point the
solve scores, the start and each trial, is evaluated once by
``ball_grad_hess``, and an accepted trial's derivatives become the
iterate's without a second evaluation. Each iteration checks the
gradient-norm termination test, picks a descent direction (Newton, or
steepest descent when the Hessian determinant or the angle criterion
disqualifies it), and runs one Armijo test on the value at the trial
point: accept the trial point and keep the step size, or keep the point
and bisect the step size. A trial past the barrier, or one whose w
overflows, is rejected like a trial whose value is +inf; at the start
the same conditions raise (see ``optimize_ball``). The step size
persists across iterations; it is never reset or enlarged. The direction
depends only on the iterate, so it is chosen once per iterate and reused
by the trials that follow a rejection.

The Armijo test accepts a trial when w_new - w_old <= c1 lambda grad.d,
and c1 depends on the direction (Nocedal & Wright, *Numerical
Optimization*, 2nd ed., sections 3.1 and 3.5). A Newton direction uses
``ARMIJO_NEWTON`` (1e-4): on a quadratic model the full Newton step
decreases w by exactly 0.5 grad.d, so a factor of one half would reject
lambda = 1 whenever cubic terms or rounding take a little of that, and
since lambda never grows back, the rest of the solve would converge only
linearly. The steepest-descent fallback keeps ``ARMIJO_STEEPEST`` (0.5):
its direction -grad is not scaled to the ball, and near the barrier a
full-length step accepted on a token decrease moves the node too far.

The ball's neighbour geometry is frozen once per solve into a
``BallFrame`` (see ``objective``), and every kernel call of the solve
reads that frame. The solve runs on plain floats: the iterate is its two
coordinates, and each kernel result is unpacked once into six locals,
the value w, the gradient (gx, gy) and the Hessian entries (hxx, hxy,
hyy). The gradient norm, the direction, grad.d, the stall threshold and
every ``IterationRecord`` are taken from those locals; the direction
and the stall threshold once per iterate. The kernel is looked up as
this module's ``ball_grad_hess`` and called with four positional
arguments, the third a ``Point2`` of the start or of the trial, so a
caller can wrap it to count calls and elements; the ``Point2`` each
kernel call still makes is kept for that caller.

Before a trial is evaluated, the solve ends as ``stalled`` once its
predicted decrease 0.5 lambda |grad.d| is at most ``STALL_ULPS`` (4) ulps
of the iterate's value w, whatever the direction's Armijo factor. This is
the Newton-decrement stop of Boyd & Vandenberghe, *Convex Optimization*
section 9.5: both values that Armijo compares are rounded, so a decrease
of a few ulps can be neither met reliably nor told apart from rounding
error, and each bisection halves it again. The returned iterate is still
the last accepted one, so the ball objective is never above its starting
value, and ``converged`` still means the gradient norm fell below ``EPS``.

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
The tolerance ``EPS`` (1e-8), both bounds, the direction tests ``DELTA``
and ``ETA``, ``STALL_ULPS`` and the Armijo factors are module constants,
not configuration.
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
# the Newton direction is replaced by steepest descent when the Hessian
# determinant is below DELTA or the cosine of its angle with -grad below ETA
DELTA = 1e-6
ETA = 0.05
# Armijo factors c1 in w_new - w_old <= c1 lambda grad.d, per direction
# (see the module docstring)
ARMIJO_NEWTON = 1e-4
ARMIJO_STEEPEST = 0.5


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
        return sum(s.steepest for s in self.steps)

    @property
    def armijo_rejections(self) -> int:
        return sum(not s.accepted for s in self.steps)


def descent_direction(gx: float, gy: float, hxx: float, hxy: float,
                      hyy: float) -> tuple[float, float, bool]:
    """Newton direction of the gradient (gx, gy) and the Hessian entries
    (hxx, hxy, hyy), or steepest descent when the determinant guard or
    the angle criterion rejects it, and whether steepest descent was
    substituted. Always satisfies grad . d < 0 for a nonzero gradient."""
    det = hxx * hyy - hxy * hxy
    if det < DELTA:
        return -gx, -gy, True
    # 2x2 Newton solve H d = -grad by Cramer's rule
    dx = -(hyy * gx - hxy * gy) / det
    dy = -(hxx * gy - hxy * gx) / det
    gnorm = math.hypot(gx, gy)
    dnorm = math.hypot(dx, dy)
    cos_theta = -(gx * dx + gy * dy) / (gnorm * dnorm)
    if cos_theta < ETA:
        return -gx, -gy, True
    return dx, dy, False


def armijo_accept(w_old: float, w_new: float, step_size: float,
                  grad_dot_d: float, steepest: bool) -> bool:
    """Sufficient-decrease test w_new - w_old <= c1 lambda grad.d, with c1
    ``ARMIJO_STEEPEST`` (0.5) for the steepest-descent fallback and
    ``ARMIJO_NEWTON`` (1e-4) for a Newton direction. A full Newton step
    meets 0.5 grad.d only on an exactly quadratic model, so the half factor
    would reject it about half the time; the fallback keeps the half
    factor because its direction is not scaled to the ball. An infinite
    trial value always fails."""
    c1 = ARMIJO_STEEPEST if steepest else ARMIJO_NEWTON
    return w_new - w_old <= c1 * step_size * grad_dot_d


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

    px, py = x.x, x.y
    grad_norm = math.hypot(gx, gy)
    new_iterate = True
    lam = 1.0
    trials = 0
    steps: list[IterationRecord] = []
    stop_reason: StopReason = "j_max"

    while trials <= J_MAX:
        # the gradient test, the direction and the stall threshold change
        # only with the iterate
        if new_iterate:
            if grad_norm < EPS:
                stop_reason = "converged"
                break
            dx, dy, steepest = descent_direction(gx, gy, hxx, hxy, hyy)
            grad_dot_d = gx * dx + gy * dy
            stall = STALL_ULPS * math.ulp(w)
            new_iterate = False
        if 0.5 * lam * -grad_dot_d <= stall:
            stop_reason = "stalled"
            break
        tx = px + lam * dx
        ty = py + lam * dy
        if tx == px and ty == py:
            stop_reason = "rounded"
            break
        trial = Point2(tx, ty)
        try:
            trial_gh = ball_grad_hess(mesh, frame, trial, params)
            accepted = armijo_accept(w, trial_gh[0], lam, grad_dot_d, steepest)
        except (DegenerateElementError, ObjectiveOverflowError):
            # w_new = +inf, which Armijo always rejects
            accepted = False
        # tuple.__new__ packs the record without the named-field
        # constructor's Python-level call, as namedtuple's _make does
        steps.append(tuple.__new__(IterationRecord, (
            w, grad_norm, grad_dot_d, lam, accepted, steepest)))
        trials += 1
        if accepted:
            x, px, py = trial, tx, ty
            w, gx, gy, hxx, hxy, hyy = trial_gh
            grad_norm = math.hypot(gx, gy)
            new_iterate = True
        else:
            lam *= 0.5
            if lam < LAMBDA_MIN:
                stop_reason = "step_floor"
                break

    return x, LocalStepTrace(stop_reason=stop_reason,
                             final_grad_norm=grad_norm,
                             steps=tuple(steps))
