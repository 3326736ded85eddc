import hashlib
import math
import random

import pytest

import osmot.driver
import osmot.newton
import osmot.objective
from conftest import random_ball_mesh, regular_hexagon_mesh
from osmot.driver import SmootherConfig, smooth
from osmot.fixtures import FixtureKind, generate_fixture
from osmot.geometry import Point2, signed_area
from osmot.mesh import Mesh, Mobility, Triangle, build_topology
from osmot.newton import (
    DegenerateStartError,
    armijo_accept,
    descent_direction,
    optimize_ball,
)
from osmot.objective import (
    BallFrame,
    DegenerateElementError,
    ObjectiveOverflowError,
    ObjectiveParams,
    ball_grad_hess,
    ball_objective,
    freeze_ball,
)

PARAMS = ObjectiveParams()


def test_config_defaults_match_published_tolerances():
    assert osmot.newton.EPS == 1e-8
    assert osmot.newton.DELTA == 1e-6
    assert osmot.newton.ETA == 0.05
    assert osmot.newton.J_MAX == 50
    assert osmot.newton.LAMBDA_MIN == 2.0 ** -30


def test_direction_identity_hessian_keeps_newton():
    d = descent_direction(2.0, 0.0, 1.0, 0.0, 1.0)
    assert d == (-2.0, 0.0, False)


def test_direction_negative_definite_falls_back():
    # det(-I) = 1 >= delta but the Newton direction is an ascent direction
    d = descent_direction(1.0, 0.0, -1.0, 0.0, -1.0)
    assert d == (-1.0, 0.0, True)


def test_direction_tiny_determinant_steepest():
    d = descent_direction(0.0, 1.0, 1e-9, 0.0, 1e-9)
    assert d == (0.0, -1.0, True)


def test_direction_always_descends():
    rng = random.Random(12)
    for _ in range(500):
        gx, gy, hxx, hxy, hyy = (rng.uniform(-5, 5) for _ in range(5))
        if math.hypot(gx, gy) < 1e-12:
            continue
        dx, dy, steepest = descent_direction(gx, gy, hxx, hxy, hyy)
        assert gx * dx + gy * dy < 0.0
        assert not steepest or (dx, dy) == (-gx, -gy)


def test_armijo_accepts_sufficient_decrease():
    assert armijo_accept(1.0, 0.4, 1.0, -1.0, steepest=True)
    assert armijo_accept(1.0, 0.4, 1.0, -1.0, steepest=False)


def test_armijo_rejects_insufficient_decrease():
    # the steepest-descent fallback asks for half the predicted decrease
    assert not armijo_accept(1.0, 0.6, 1.0, -1.0, steepest=True)


def test_armijo_newton_factor_accepts_a_partial_decrease():
    # a Newton direction asks for 1e-4 of it, so the same trial passes
    assert armijo_accept(1.0, 0.6, 1.0, -1.0, steepest=False)
    assert armijo_accept(1.0, 0.999, 1.0, -1.0, steepest=False)


def test_armijo_newton_factor_rejects_a_token_decrease():
    assert not armijo_accept(1.0, 1.0 - 0.5e-4, 1.0, -1.0, steepest=False)
    assert not armijo_accept(1.0, 1.0, 1.0, -1.0, steepest=False)


def test_armijo_rejects_barrier_value():
    for steepest in (True, False):
        assert not armijo_accept(1.0, math.inf, 1.0, -1.0, steepest)


def test_optimize_centered_ball_converges_immediately():
    mesh = regular_hexagon_mesh()
    pos, trace = optimize_ball(mesh, mesh.balls[0], PARAMS)
    assert trace.converged
    assert trace.iterations == 0
    assert pos == Point2(0.0, 0.0)


def test_optimize_perturbed_ball_returns_to_center():
    mesh = regular_hexagon_mesh(center=Point2(0.05, 0.02))
    ball = mesh.balls[0]
    frame = freeze_ball(mesh, ball, PARAMS)
    # oracle: dense scan confirms the center is the ball minimizer
    best = min(
        ((ball_objective(mesh, frame, Point2(x * 0.01, y * 0.01), PARAMS),
          x * 0.01, y * 0.01)
         for x in range(-20, 21) for y in range(-20, 21)),
    )
    assert (best[1], best[2]) == (0.0, 0.0)
    pos, trace = optimize_ball(mesh, ball, PARAMS)
    assert math.hypot(pos.x, pos.y) < 1e-6
    assert ball_objective(mesh, frame, pos, PARAMS) <= ball_objective(
        mesh, frame, Point2(0.05, 0.02), PARAMS)


# a full Newton step near a smooth minimum leaves a gradient norm of at
# most this constant times the square of the one before it
QUADRATIC_RATIO = 0.05


def test_optimizer_contract_on_random_balls():
    rng = random.Random(99)
    quadratic_ratios = []
    for _ in range(60):
        mesh = random_ball_mesh(rng)
        ball = mesh.balls[0]
        frame = freeze_ball(mesh, ball, PARAMS)
        start = mesh.position(0)
        w_start = ball_objective(mesh, frame, start, PARAMS)
        pos, trace = optimize_ball(mesh, ball, PARAMS)

        accepted_values = [s.value for s in trace.steps if s.accepted]
        final_w = ball_objective(mesh, frame, pos, PARAMS)
        seq = accepted_values + [final_w]
        assert all(b < a for a, b in zip(seq, seq[1:]))
        assert final_w <= w_start

        # every direction satisfied the descent contract
        assert all(s.grad_dot_dir < 0.0 for s in trace.steps)
        # step size never increased
        lams = [s.step_size for s in trace.steps]
        assert all(b <= a for a, b in zip(lams, lams[1:]))
        # no inversion at the returned position
        mesh.set_position(0, pos)
        assert all(
            signed_area(*mesh.triangle_points(t)) > 0.0 for t in mesh.triangles
        )
        if trace.converged:
            _w, gx, gy, *_ = ball_grad_hess(mesh, frame, pos, PARAMS)
            assert math.hypot(gx, gy) < osmot.newton.EPS

        # quadratic phase: the gradient norm after each full Newton step
        # taken once the norm is below 1e-2
        accepted = [s for s in trace.steps if s.accepted]
        after = [s.grad_norm for s in accepted[1:]] + [trace.final_grad_norm]
        for s, b in zip(accepted, after):
            if 0.0 < s.grad_norm < 1e-2 and s.step_size == 1.0 \
                    and not s.steepest:
                quadratic_ratios.append(b / (s.grad_norm * s.grad_norm))
    assert quadratic_ratios
    assert max(quadratic_ratios) <= QUADRATIC_RATIO


@pytest.mark.parametrize("center", [
    Point2(0.31, -0.17), Point2(-0.4, 0.3), Point2(0.5, 0.0),
    Point2(0.0, -0.5), Point2(0.6, 0.0)])
def test_newton_keeps_the_full_step_on_a_smooth_ball(center):
    # no full Newton step of this solve is rejected: every step runs at
    # lambda = 1 and the gradient norm falls quadratically from the start
    mesh = regular_hexagon_mesh(center)
    _pos, trace = optimize_ball(mesh, mesh.balls[0], PARAMS)
    assert trace.steps and trace.stop_reason in ("converged", "stalled")
    assert all(s.accepted and not s.steepest and s.step_size == 1.0
               for s in trace.steps)
    gns = [s.grad_norm for s in trace.steps] + [trace.final_grad_norm]
    assert all(b <= QUADRATIC_RATIO * a * a for a, b in zip(gns, gns[1:]))


def test_derivatives_once_per_iterate(monkeypatch):
    # one kernel scores the start and every trial, accepted or rejected,
    # each point once; an accepted trial's derivatives become the
    # iterate's, so no iterate is evaluated twice and the last accepted
    # point is the returned position
    calls = []

    def counted(*args):
        calls.append(args[2])
        return ball_grad_hess(*args)

    monkeypatch.setattr(osmot.newton, "ball_grad_hess", counted)
    rng = random.Random(99)
    rejections = 0
    for _ in range(60):
        mesh = random_ball_mesh(rng)
        ball = mesh.balls[0]
        calls.clear()
        pos, trace = optimize_ball(mesh, ball, PARAMS)
        assert len(calls) == 1 + trace.iterations
        assert len({(p.x, p.y) for p in calls}) == len(calls)
        iterates = [calls[0]] + [p for p, s in zip(calls[1:], trace.steps)
                                 if s.accepted]
        assert iterates[-1] == pos
        _w, gx, gy, *_ = ball_grad_hess(
            mesh, freeze_ball(mesh, ball, PARAMS), pos, PARAMS)
        assert trace.final_grad_norm == math.hypot(gx, gy)
        rejections += trace.armijo_rejections
    assert rejections > 0


def test_one_frame_per_solve(monkeypatch):
    # optimize_ball freezes the ball once and hands that frame to every
    # kernel call, so no kernel call freezes the ball again
    frozen = []
    seen = []

    def counted_freeze(*args):
        frozen.append(freeze_ball(*args))
        return frozen[-1]

    def kernel_freeze(*args):
        raise AssertionError("a kernel froze the ball during a solve")

    def tracked(kernel):
        def call(mesh, ball, x0, params):
            seen.append(ball)
            return kernel(mesh, ball, x0, params)
        return call

    monkeypatch.setattr(osmot.newton, "freeze_ball", counted_freeze)
    monkeypatch.setattr(osmot.objective, "freeze_ball", kernel_freeze)
    monkeypatch.setattr(osmot.newton, "ball_grad_hess", tracked(ball_grad_hess))
    monkeypatch.setattr(osmot.newton, "ball_objective", tracked(ball_objective))
    rng = random.Random(99)
    for _ in range(20):
        mesh = random_ball_mesh(rng)
        frozen.clear()
        seen.clear()
        optimize_ball(mesh, mesh.balls[0], PARAMS)
        assert len(frozen) == 1 and isinstance(frozen[0], BallFrame)
        assert seen and all(ball is frozen[0] for ball in seen)


def test_kernel_calls_keep_the_tracer_contract(monkeypatch):
    # perfbench/spans.py wraps these two module attributes and reads, per
    # call, the element count of the second positional argument and the
    # coordinates of the third; a smooth() run must keep every call in
    # that shape, or the per-layer benchmark counters read zero. Each
    # solve calls ball_grad_hess once at the start and once per trial,
    # and never calls ball_objective. The second argument is a BallFrame,
    # the only ball the kernels take, and ball_grad_hess returns the
    # kernel's plain tuple of six floats
    calls = {"ball_grad_hess": 0, "ball_objective": 0}
    solves = []
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)

    def traced_solve(*args):
        pos, trace = optimize_ball(*args)
        solves.append(trace.iterations)
        return pos, trace

    def traced(name, kernel):
        def wrapper(*args, **kwargs):
            assert len(args) == 4 and not kwargs
            ball = args[1]
            assert type(ball) is BallFrame
            assert len(ball.elements) == len(mesh.balls[ball.vertex].elements)
            assert isinstance(args[2], Point2)
            calls[name] += 1
            result = kernel(*args, **kwargs)
            if name == "ball_grad_hess":
                assert type(result) is tuple and len(result) == 6
                assert all(type(v) is float for v in result)
            return result
        return wrapper

    for name in calls:
        monkeypatch.setattr(osmot.newton, name,
                            traced(name, getattr(osmot.newton, name)))
    monkeypatch.setattr(osmot.driver, "optimize_ball", traced_solve)
    smooth(mesh, SmootherConfig(i_max=2))
    assert solves and calls["ball_objective"] == 0
    assert calls["ball_grad_hess"] == len(solves) + sum(solves)


def test_newton_keeps_both_kernel_names():
    # the benchmark tracer wraps both names on this module, also the one
    # the solve no longer calls
    assert osmot.newton.ball_grad_hess is ball_grad_hess
    assert osmot.newton.ball_objective is ball_objective


def test_rejected_trials_do_not_move_the_iterate():
    # this ball rejects Newton trials and steepest-descent trials
    rng = random.Random(30)
    mesh = random_ball_mesh(rng)
    ball = mesh.balls[0]
    pos, trace = optimize_ball(mesh, ball, PARAMS)
    assert trace.armijo_rejections > 0
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        if not prev.accepted:
            assert (nxt.value, nxt.grad_norm) == (prev.value, prev.grad_norm)
            assert nxt.step_size == 0.5 * prev.step_size


def test_degenerate_start_raises():
    mesh = regular_hexagon_mesh()
    # collapse the vertex onto a ring node after the build
    mesh.set_position(0, Point2(1.0, 0.0))
    with pytest.raises(DegenerateStartError) as err:
        optimize_ball(mesh, mesh.balls[0], PARAMS)
    assert err.value.node_id == 0


def test_lambda_floor_terminates(monkeypatch):
    monkeypatch.setattr(osmot.newton, "LAMBDA_MIN", 0.25)
    mesh = regular_hexagon_mesh(center=Point2(0.31, -0.17))
    pos, trace = optimize_ball(mesh, mesh.balls[0], PARAMS)
    # the run ends; either converged or stopped by a bound, never worse
    frame = freeze_ball(mesh, mesh.balls[0], PARAMS)
    assert ball_objective(mesh, frame, pos, PARAMS) <= ball_objective(
        mesh, frame, Point2(0.31, -0.17), PARAMS)


def _reference_optimize_ball(mesh, ball, params):
    """The local solve without the rounded-trial exit: every trial point
    the stalled test lets through, also one that rounds back onto the
    iterate, is scored by ball_objective. Returns (position, converged,
    final_grad_norm). The tolerance and the bounds are read from the
    module, as the solve reads them."""
    frame = freeze_ball(mesh, ball, params)
    x = mesh.position(ball.vertex)
    w, gx, gy, hxx, hxy, hyy = ball_grad_hess(mesh, frame, x, params)
    lam = 1.0
    steps = 0
    converged = False
    while steps <= osmot.newton.J_MAX:
        if math.hypot(gx, gy) < osmot.newton.EPS:
            converged = True
            break
        dx, dy, steepest = descent_direction(gx, gy, hxx, hxy, hyy)
        grad_dot_d = gx * dx + gy * dy
        if 0.5 * lam * -grad_dot_d <= 4.0 * math.ulp(w):
            break
        trial = Point2(x.x + lam * dx, x.y + lam * dy)
        w_new = ball_objective(mesh, frame, trial, params)
        steps += 1
        c1 = 0.5 if steepest else 1e-4
        if w_new - w <= c1 * lam * grad_dot_d:
            x = trial
            w, gx, gy, hxx, hxy, hyy = ball_grad_hess(mesh, frame, x, params)
        else:
            lam *= 0.5
            if lam < osmot.newton.LAMBDA_MIN:
                break
    return x, converged, math.hypot(gx, gy)


def _jittered_lattice_mesh(rng: random.Random, cells: int = 8,
                          amplitude: float = 0.225) -> Mesh:
    """A unit-square lattice of cells x cells, diagonals alternating, with
    every internal node jittered by up to amplitude x the pitch in each
    coordinate and the boundary fixed (the shape of the jitter64
    benchmark input, smaller)."""
    h = 1.0 / cells
    mobility, positions = [], []
    for j in range(cells + 1):
        for i in range(cells + 1):
            if 0 < i < cells and 0 < j < cells:
                positions.append(Point2((i + amplitude * rng.uniform(-1, 1)) * h,
                                        (j + amplitude * rng.uniform(-1, 1)) * h))
                mobility.append(Mobility.INTERNAL)
            else:
                positions.append(Point2(i * h, j * h))
                mobility.append(Mobility.FIXED)
    tris = []
    for j in range(cells):
        for i in range(cells):
            n00 = j * (cells + 1) + i
            n10, n01, n11 = n00 + 1, n00 + cells + 1, n00 + cells + 2
            if (i + j) % 2:
                tris += [(n00, n10, n01), (n10, n11, n01)]
            else:
                tris += [(n00, n10, n11), (n00, n11, n01)]
    return build_topology(mobility, positions,
                          [Triangle(t, v) for t, v in enumerate(tris)])


def _bits(p: Point2) -> tuple[str, str]:
    return p.x.hex(), p.y.hex()


def _assert_same_as_reference(mesh, ball, reasons):
    pos, trace = optimize_ball(mesh, ball, PARAMS)
    ref_pos, ref_converged, ref_grad_norm = _reference_optimize_ball(
        mesh, ball, PARAMS)
    assert _bits(pos) == _bits(ref_pos)
    assert trace.converged == ref_converged
    assert trace.final_grad_norm.hex() == ref_grad_norm.hex()
    reasons.append(trace.stop_reason)
    return pos


def test_rounded_exit_matches_reference_loop():
    # stopping at the first trial that rounds onto the iterate returns the
    # same bits as scoring every trial down to the step floor
    reasons = []
    rng = random.Random(99)
    for _ in range(60):
        mesh = random_ball_mesh(rng)
        _assert_same_as_reference(mesh, mesh.balls[0], reasons)
    # a Gauss-Seidel sweep over a jittered lattice, as smooth() runs it
    mesh = _jittered_lattice_mesh(random.Random(64))
    for nid in sorted(mesh.balls):
        pos = _assert_same_as_reference(mesh, mesh.balls[nid], reasons)
        mesh.set_position(nid, pos)
    # coordinates large next to the ball: trials round before they stall
    for center in (Point2(0.05, 0.02), Point2(0.31, -0.17)):
        mesh = _shifted_hexagon(center, ROUNDING_SHIFT)
        _assert_same_as_reference(mesh, mesh.balls[0], reasons)
    assert "rounded" in reasons and "converged" in reasons


def test_objective_never_evaluated_at_the_iterate(monkeypatch):
    # a solve scores its trials with ball_grad_hess and never calls
    # ball_objective, and no kernel call repeats a point of its solve:
    # not at the iterate, also where the rounded exit ends the solve
    # before a trial that rounds onto it
    points = set()
    counts = {"rounded": 0, "trials": 0}

    def tracked_grad_hess(mesh, ball, x0, params):
        assert (x0.x, x0.y) not in points
        points.add((x0.x, x0.y))
        return ball_grad_hess(mesh, ball, x0, params)

    def no_objective(*args):
        raise AssertionError("a solve called ball_objective")

    def solve(mesh, ball):
        points.clear()
        pos, trace = optimize_ball(mesh, ball, PARAMS)
        counts["rounded"] += trace.stop_reason == "rounded"
        counts["trials"] += trace.iterations
        return pos

    monkeypatch.setattr(osmot.newton, "ball_grad_hess", tracked_grad_hess)
    monkeypatch.setattr(osmot.newton, "ball_objective", no_objective)
    rng = random.Random(99)
    for _ in range(60):
        mesh = random_ball_mesh(rng)
        solve(mesh, mesh.balls[0])
    mesh = _jittered_lattice_mesh(random.Random(64))
    for nid in sorted(mesh.balls):
        mesh.set_position(nid, solve(mesh, mesh.balls[nid]))
    mesh = _shifted_hexagon(Point2(0.05, 0.02), ROUNDING_SHIFT)
    solve(mesh, mesh.balls[0])
    assert counts["rounded"] > 0 and counts["trials"] > 0


def _overflow_case(frame, x0, params):
    """Which factor of w overflows at x0, at the first element where one
    does: "power" when (R/r_ref)^beta alone overflows, "product" when both
    powers are finite and their product is not; None when no w overflows."""
    for _tid, x1, y1, x2, y2, b, r_ref, _hx, _hy in frame.elements:
        a = math.hypot(x0.x - x1, x0.y - y1)
        c = math.hypot(x0.x - x2, x0.y - y2)
        area = signed_area(x0, Point2(x1, y1), Point2(x2, y2))
        big_r = a * b * c / (4.0 * area)
        try:
            size = (big_r / r_ref) ** params.beta
        except OverflowError:
            return "power"
        shape = (big_r * 0.5 * (a + b + c) / area) ** params.gamma
        if size * shape == math.inf:
            return "product"
    return None


@pytest.mark.parametrize("params,center,case", [
    # steepest steps from just below the top edge cross the barrier
    (PARAMS, Point2(0.0, 0.85), "barrier"),
    # (R/r_ref)^beta overflows at trials near the barrier
    (ObjectiveParams(beta=40.0, gamma=0.5), Point2(0.0, 0.8), "power"),
    # both powers are finite at those trials but their product is not
    (ObjectiveParams(beta=20.0, gamma=20.0), Point2(0.0, 0.6), "product"),
], ids=["barrier", "power", "product"])
def test_trial_past_the_barrier_or_overflowing_is_rejected(
        monkeypatch, params, center, case):
    # a trial the kernel cannot score, because it crosses the barrier or
    # its w overflows, scores +inf: a rejected IterationRecord, no error
    outcomes = []

    def tracked(mesh, ball, x0, p):
        try:
            result = ball_grad_hess(mesh, ball, x0, p)
        except DegenerateElementError:
            outcomes.append("barrier")
            raise
        except ObjectiveOverflowError:
            outcomes.append(_overflow_case(ball, x0, p))
            raise
        outcomes.append(None)
        return result

    monkeypatch.setattr(osmot.newton, "ball_grad_hess", tracked)
    mesh = regular_hexagon_mesh(center)
    _pos, trace = optimize_ball(mesh, mesh.balls[0], params)
    assert outcomes[0] is None and len(outcomes) == 1 + trace.iterations
    assert case in outcomes
    assert not any(step.accepted for outcome, step
                   in zip(outcomes[1:], trace.steps) if outcome is not None)


@pytest.mark.parametrize("params", [
    ObjectiveParams(beta=2.0, r_ref=1e-300),
    ObjectiveParams(gamma=40.0, r_ref=1e-300),
], ids=["power", "product"])
def test_overflow_at_the_start_raises(params):
    # where the solve starts, an overflowing w is an invalid parameter
    mesh = regular_hexagon_mesh()
    with pytest.raises(ValueError, match="overflows"):
        optimize_ball(mesh, mesh.balls[0], params)


def _check_stalled_rule(mesh, ball, reasons):
    frame = freeze_ball(mesh, ball, PARAMS)
    start_w = ball_objective(mesh, frame, mesh.position(ball.vertex), PARAMS)
    pos, trace = optimize_ball(mesh, ball, PARAMS)
    # no scored trial asked for a decrease that w cannot resolve, so no
    # solve bisected on to the floor or the cap past such a trial
    for s in trace.steps:
        assert 0.5 * s.step_size * -s.grad_dot_dir > 4.0 * math.ulp(s.value)
    if trace.stop_reason == "stalled":
        _lam, _dx, _dy, predicted, w = _untried_trial(mesh, ball, pos, trace)
        assert predicted <= 4.0 * math.ulp(w)
    assert ball_objective(mesh, frame, pos, PARAMS) <= start_w
    reasons.append(trace.stop_reason)
    return pos


def test_stalled_stop_rule():
    # a solve ends as stalled before the first trial whose predicted
    # decrease 0.5 lambda |grad.d| is at most 4 ulps of w, and only there
    reasons = []
    rng = random.Random(99)
    for _ in range(60):
        mesh = random_ball_mesh(rng)
        _check_stalled_rule(mesh, mesh.balls[0], reasons)
    mesh = _jittered_lattice_mesh(random.Random(64))
    for nid in sorted(mesh.balls):
        mesh.set_position(nid, _check_stalled_rule(mesh, mesh.balls[nid],
                                                   reasons))
    assert "stalled" in reasons


def _untried_trial(mesh, ball, pos, trace):
    """Step size, direction, predicted decrease 0.5 lambda |grad.d| and
    iterate value w of the trial that a solve ending at pos with this
    trace would have scored next."""
    lam = 1.0
    if trace.steps:
        last = trace.steps[-1]
        lam = last.step_size if last.accepted else 0.5 * last.step_size
    w, gx, gy, hxx, hxy, hyy = ball_grad_hess(
        mesh, freeze_ball(mesh, ball, PARAMS), pos, PARAMS)
    dx, dy, _ = descent_direction(gx, gy, hxx, hxy, hyy)
    predicted = 0.5 * lam * -(gx * dx + gy * dy)
    return lam, dx, dy, predicted, w


# near (2**44, 2**44) an ulp of a coordinate is 2**-8, so a step near the
# minimiser rounds onto the iterate while its predicted decrease is still
# above 4 ulps of w
ROUNDING_SHIFT = 2.0 ** 44


def _shifted_hexagon(center: Point2, shift: float):
    """regular_hexagon_mesh(center) with every node moved by (shift, shift)."""
    mesh = regular_hexagon_mesh(center)
    for node in mesh.nodes:
        p = mesh.position(node.id)
        mesh.set_position(node.id, Point2(p.x + shift, p.y + shift))
    return mesh


@pytest.mark.parametrize("bounds,center,shift,reason,iterations", [
    # the gradient at the symmetric centre is below eps from the start
    ({}, Point2(0.0, 0.0), 0.0, "converged", 0),
    # two Newton steps leave a gradient above eps, but the next step would
    # ask for a decrease of at most 4 ulps of the objective
    ({}, Point2(0.05, 0.02), 0.0, "stalled", 2),
    # near (2**22, 2**22) the next trial would also round onto the iterate:
    # the stalled test comes first
    ({}, Point2(0.31, -0.17), 2.0 ** 22, "stalled", 4),
    # eps out of reach: near (2**44, 2**44) the first step is already below
    # half an ulp of the coordinates and the trial rounds onto the iterate
    ({"EPS": 1e-300}, Point2(0.05, 0.02), ROUNDING_SHIFT,
     "rounded", 1),
    # eps out of reach, a start just below the top edge: every steepest
    # step crosses the barrier, down to the default floor
    ({"EPS": 1e-300}, Point2(0.0, 0.85), 0.0, "step_floor", 31),
    # one accepted Newton step, then a full Newton step raises w: the
    # rejection halves the step below a floor of 1
    ({"LAMBDA_MIN": 1.0}, Point2(0.25, 0.63), 0.0, "step_floor", 2),
    # J_MAX caps the loop at J_MAX + 1 iterations
    ({"J_MAX": 1}, Point2(0.05, 0.02), 0.0, "j_max", 2),
], ids=["converged", "stalled", "stalled-rounding", "rounded",
        "step_floor-eps", "step_floor-lambda", "j_max"])
def test_stop_reason(monkeypatch, bounds, center, shift, reason, iterations):
    for name, value in bounds.items():
        monkeypatch.setattr(osmot.newton, name, value)
    mesh = _shifted_hexagon(center, shift)
    ball = mesh.balls[0]
    start = mesh.position(0)
    pos, trace = optimize_ball(mesh, ball, PARAMS)
    assert trace.stop_reason == reason
    assert trace.converged == (reason == "converged")
    assert trace.iterations == iterations
    ref_pos, ref_converged, ref_grad_norm = _reference_optimize_ball(
        mesh, ball, PARAMS)
    assert (_bits(pos), trace.converged, trace.final_grad_norm) == (
        _bits(ref_pos), ref_converged, ref_grad_norm)
    if reason in ("stalled", "rounded"):
        # the trial that ended the solve asked for at most 4 ulps of w when
        # it stalled, and for more when it rounded onto the returned position
        lam, dx, dy, predicted, w = _untried_trial(mesh, ball, pos, trace)
        assert (predicted <= 4.0 * math.ulp(w)) == (reason == "stalled")
        if reason == "rounded":
            assert (pos.x + lam * dx, pos.y + lam * dy) == (pos.x, pos.y)
    frame = freeze_ball(mesh, ball, PARAMS)
    assert ball_objective(mesh, frame, pos, PARAMS) <= ball_objective(
        mesh, frame, start, PARAMS)


def _trace_digest(hasher, trace) -> None:
    """Feed every bit of one solve's trace to hasher: the stop reason, the
    final gradient norm and each IterationRecord field, floats as hex."""
    hasher.update(trace.stop_reason.encode())
    hasher.update(trace.final_grad_norm.hex().encode())
    for s in trace.steps:
        hasher.update(" ".join((s.value.hex(), s.grad_norm.hex(),
                                s.grad_dot_dir.hex(), s.step_size.hex(),
                                str(s.accepted), str(s.steepest))).encode())
    hasher.update(b"\n")


# SHA-256 of every solve's trace in test_newton_traces_bit_for_bit,
# recorded before the solve kept its derivatives in float locals
NEWTON_TRACES_SHA = (
    "793a254da0c7e71dfe11b42dc21ad35054d746cdb8ec57535bd8efb88d359fda")


def test_newton_traces_bit_for_bit(monkeypatch):
    # the golden mesh hashes see the solves only through final positions;
    # this pins every trial: its value, gradient norm, g.d, step size,
    # Armijo outcome and steepest flag, and each stop reason
    hasher = hashlib.sha256()
    solves = []

    def traced_solve(*args):
        pos, trace = optimize_ball(*args)
        _trace_digest(hasher, trace)
        solves.append(trace)
        return pos, trace

    monkeypatch.setattr(osmot.driver, "optimize_ball", traced_solve)
    smooth(generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45),
           SmootherConfig(i_max=10))
    smooth(generate_fixture(FixtureKind.GRADED_INTERFACE),
           SmootherConfig(objective=ObjectiveParams(beta=2.0, gamma=2.0)))
    rng = random.Random(99)
    for _ in range(60):
        mesh = random_ball_mesh(rng)
        traced_solve(mesh, mesh.balls[0], PARAMS)
    assert {"converged", "stalled", "j_max"} <= {t.stop_reason for t in solves}
    assert sum(t.armijo_rejections for t in solves) > 0
    assert sum(t.used_steepest_count for t in solves) > 0
    assert hasher.hexdigest() == NEWTON_TRACES_SHA
