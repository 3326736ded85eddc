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
reads that frame; the iterate is kept as two floats, and a ``Point2`` is
made only for each trial point handed to the kernel. The kernel is
looked up as this module's ``ball_grad_hess`` and called with four
positional arguments, so a caller can wrap it to count calls and
elements.

Before a trial is evaluated, the solve ends as ``stalled`` once its
predicted decrease 0.5 lambda |grad.d| is at most ``STALL_ULPS`` (4) ulps
of the iterate's value w, whatever the direction's Armijo factor. This is
the Newton-decrement stop of Boyd & Vandenberghe, *Convex Optimization*
section 9.5: both values that Armijo compares are rounded, so a decrease
of a few ulps can be neither met reliably nor told apart from rounding
error, and each bisection halves it again. The returned iterate is still
the last accepted one, so the ball objective is never above its starting
value, and ``converged`` still means the gradient norm fell below eps.

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
``converged`` (gradient norm below eps), ``stalled`` (the predicted
decrease is below what w can resolve), ``rounded`` (the trial step
rounds back onto the iterate), ``step_floor`` (the step size fell below
``LAMBDA_MIN``) or ``j_max`` (the iteration cap: ``J_MAX`` + 1 Armijo
trials). Both bounds are module constants; only eps is configured.
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
    GradHess,
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


@dataclass(frozen=True, slots=True)
class NewtonConfig:
    """Tolerance of the local optimizer.

    eps is the gradient-norm termination tolerance. The other stops are
    fixed module constants, not fields: a solve runs at most ``J_MAX`` + 1
    inner iterations, each one Armijo trial, and stops as ``j_max`` after
    the last; ``LAMBDA_MIN`` floors the bisected step size. On hitting
    either bound the current (best) iterate is returned. A solve also
    stops, as ``stalled``, before a trial whose predicted decrease
    0.5 lambda |grad.d| is at most ``STALL_ULPS`` ulps of the ball
    objective: that decrease is below the rounding error of the values
    Armijo compares, so the trial could not be told from noise. The
    direction tests (``DELTA``, ``ETA``) and the Armijo factors are
    constants too: 1e-4 of lambda grad.d for a Newton direction, so that
    the full Newton step is kept near the optimum, and 0.5 for the
    steepest-descent fallback, whose unscaled full-length steps must not
    be accepted on a token decrease.
    """

    eps: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be finite and positive")


class IterationRecord(NamedTuple):
    """One inner iteration: state before the step and the Armijo outcome."""

    value: float
    grad_norm: float
    grad_dot_dir: float
    step_size: float
    accepted: bool
    steepest: bool


StopReason = Literal["converged", "stalled", "rounded", "step_floor", "j_max"]

# the iteration cap (J_MAX + 1 Armijo trials) and the step-size floor
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


def descent_direction(gh: GradHess) -> tuple[float, float, bool]:
    """Newton direction, or steepest descent when the determinant guard or
    the angle criterion rejects it, and whether steepest descent was
    substituted. Always satisfies grad . d < 0 for a nonzero gradient."""
    det = gh.hxx * gh.hyy - gh.hxy * gh.hxy
    if det < DELTA:
        return -gh.gx, -gh.gy, True
    # 2x2 Newton solve H d = -grad by Cramer's rule
    dx = -(gh.hyy * gh.gx - gh.hxy * gh.gy) / det
    dy = -(gh.hxx * gh.gy - gh.hxy * gh.gx) / det
    gnorm = math.hypot(gh.gx, gh.gy)
    dnorm = math.hypot(dx, dy)
    cos_theta = -(gh.gx * dx + gh.gy * dy) / (gnorm * dnorm)
    if cos_theta < ETA:
        return -gh.gx, -gh.gy, True
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


def optimize_ball(mesh: Mesh, ball: Ball, params: ObjectiveParams,
                  cfg: NewtonConfig) -> tuple[Point2, LocalStepTrace]:
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
        gh = ball_grad_hess(mesh, frame, x, params)
    except DegenerateElementError as err:
        raise DegenerateStartError(ball.vertex, err.triangle_id) from None

    px, py = x.x, x.y
    grad_norm = gh.grad_norm
    new_iterate = True
    lam = 1.0
    steps: list[IterationRecord] = []
    stop_reason: StopReason = "j_max"

    while len(steps) <= J_MAX:
        # the gradient test and the direction change only with the iterate
        if new_iterate:
            if grad_norm < cfg.eps:
                stop_reason = "converged"
                break
            dx, dy, steepest = descent_direction(gh)
            grad_dot_d = gh.gx * dx + gh.gy * dy
            new_iterate = False
        if 0.5 * lam * -grad_dot_d <= STALL_ULPS * math.ulp(gh.value):
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
            accepted = armijo_accept(gh.value, trial_gh.value, lam,
                                     grad_dot_d, steepest)
        except (DegenerateElementError, ObjectiveOverflowError):
            # w_new = +inf, which Armijo always rejects
            accepted = False
        steps.append(IterationRecord(gh.value, grad_norm, grad_dot_d,
                                     lam, accepted, steepest))
        if accepted:
            x, px, py, gh = trial, tx, ty, trial_gh
            grad_norm = gh.grad_norm
            new_iterate = True
        else:
            lam *= 0.5
            if lam < LAMBDA_MIN:
                stop_reason = "step_floor"
                break

    return x, LocalStepTrace(stop_reason=stop_reason,
                             final_grad_norm=grad_norm,
                             steps=tuple(steps))
