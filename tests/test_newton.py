import math
import random

import pytest

import osmot.newton
from conftest import random_ball_mesh, regular_hexagon_mesh
from osmot.geometry import Point2, signed_area
from osmot.newton import (
    DegenerateStartError,
    NewtonConfig,
    armijo_accept,
    descent_direction,
    optimize_ball,
)
from osmot.objective import GradHess, ObjectiveParams, ball_grad_hess, ball_objective

CFG = NewtonConfig()
PARAMS = ObjectiveParams()


def gh(gx, gy, hxx, hxy, hyy):
    return GradHess(0.0, gx, gy, hxx, hxy, hyy)


def test_config_defaults_match_published_tolerances():
    assert CFG.eps == 1e-8
    assert CFG.delta == 1e-6
    assert CFG.eta == 0.05


def test_direction_identity_hessian_keeps_newton():
    d = descent_direction(gh(2.0, 0.0, 1.0, 0.0, 1.0), CFG)
    assert d == (-2.0, 0.0, False)


def test_direction_negative_definite_falls_back():
    # det(-I) = 1 >= delta but the Newton direction is an ascent direction
    d = descent_direction(gh(1.0, 0.0, -1.0, 0.0, -1.0), CFG)
    assert d == (-1.0, 0.0, True)


def test_direction_tiny_determinant_steepest():
    d = descent_direction(gh(0.0, 1.0, 1e-9, 0.0, 1e-9), CFG)
    assert d == (0.0, -1.0, True)


def test_direction_always_descends():
    rng = random.Random(12)
    for _ in range(500):
        g = gh(rng.uniform(-5, 5), rng.uniform(-5, 5),
               rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        if math.hypot(g.gx, g.gy) < 1e-12:
            continue
        dx, dy, steepest = descent_direction(g, CFG)
        assert g.gx * dx + g.gy * dy < 0.0
        assert not steepest or (dx, dy) == (-g.gx, -g.gy)


def test_armijo_accepts_sufficient_decrease():
    assert armijo_accept(1.0, 0.4, 1.0, -1.0)


def test_armijo_rejects_insufficient_decrease():
    assert not armijo_accept(1.0, 0.6, 1.0, -1.0)


def test_armijo_rejects_barrier_value():
    assert not armijo_accept(1.0, math.inf, 1.0, -1.0)


def test_optimize_centered_ball_converges_immediately():
    mesh = regular_hexagon_mesh()
    pos, trace = optimize_ball(mesh, mesh.balls[0], PARAMS, CFG)
    assert trace.converged
    assert trace.iterations == 0
    assert pos == Point2(0.0, 0.0)


def test_optimize_perturbed_ball_returns_to_center():
    mesh = regular_hexagon_mesh(center=Point2(0.05, 0.02))
    ball = mesh.balls[0]
    # oracle: dense scan confirms the center is the ball minimizer
    best = min(
        ((ball_objective(mesh, ball, Point2(x * 0.01, y * 0.01), PARAMS),
          x * 0.01, y * 0.01)
         for x in range(-20, 21) for y in range(-20, 21)),
    )
    assert (best[1], best[2]) == (0.0, 0.0)
    pos, trace = optimize_ball(mesh, ball, PARAMS, CFG)
    assert math.hypot(pos.x, pos.y) < 1e-6
    assert ball_objective(mesh, ball, pos, PARAMS) <= ball_objective(
        mesh, ball, Point2(0.05, 0.02), PARAMS)


def test_optimizer_contract_on_random_balls():
    rng = random.Random(99)
    quadratic_ratios = []
    for _ in range(60):
        mesh = random_ball_mesh(rng)
        ball = mesh.balls[0]
        start = mesh.position(0)
        w_start = ball_objective(mesh, ball, start, PARAMS)
        pos, trace = optimize_ball(mesh, ball, PARAMS, CFG)

        accepted_values = [s.value for s in trace.steps if s.accepted]
        final_w = ball_objective(mesh, ball, pos, PARAMS)
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
            recomputed = ball_grad_hess(mesh, ball, pos, PARAMS).grad_norm
            assert recomputed < CFG.eps

        # quadratic-phase diagnostic (logged, not asserted): successive
        # accepted gradient norms once below 1e-2
        gns = [s.grad_norm for s in trace.steps if s.accepted]
        for a, b in zip(gns, gns[1:]):
            if a < 1e-2 and a > 0:
                quadratic_ratios.append(b / (a * a))
    if quadratic_ratios:
        print(f"newton quadratic-phase ratios: max {max(quadratic_ratios):.3g}")


def test_derivatives_once_per_iterate(monkeypatch):
    # the gradient and Hessian belong to the iterate: one evaluation at the
    # start and one per accepted step, none after a rejected trial
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
        pos, trace = optimize_ball(mesh, ball, PARAMS, CFG)
        accepted = sum(s.accepted for s in trace.steps)
        assert len(calls) == 1 + accepted
        assert calls[-1] == pos
        assert trace.final_grad_norm == ball_grad_hess(
            mesh, ball, pos, PARAMS).grad_norm
        rejections += trace.armijo_rejections
    assert rejections > 0


def test_rejected_trials_do_not_move_the_iterate():
    rng = random.Random(5)
    mesh = random_ball_mesh(rng)
    ball = mesh.balls[0]
    pos, trace = optimize_ball(mesh, ball, PARAMS, CFG)
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
        optimize_ball(mesh, mesh.balls[0], PARAMS, CFG)
    assert err.value.node_id == 0


def test_lambda_floor_terminates():
    cfg = NewtonConfig(lambda_min=0.25)
    mesh = regular_hexagon_mesh(center=Point2(0.31, -0.17))
    pos, trace = optimize_ball(mesh, mesh.balls[0], PARAMS, cfg)
    # the run ends; either converged or stopped by a bound, never worse
    assert ball_objective(mesh, mesh.balls[0], pos, PARAMS) <= ball_objective(
        mesh, mesh.balls[0], Point2(0.31, -0.17), PARAMS)


def test_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(eps=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(j_max=0)
