"""Outside-in tracing of osmot's layers.

``Tracer.installed()`` replaces the module attributes that osmot's
callers look up (``osmot.newton.ball_grad_hess``, ``osmot.driver.smooth``,
``osmot.cli.read_mesh``, ...) by timing wrappers, and puts the originals
back on exit. Nothing inside ``src/osmot`` changes. A span stack gives
each layer its self time: a span's duration minus the time its child
spans took. The Newton counters come from the ``LocalStepTrace`` that
``optimize_ball`` returns.

``geometry`` and ``quality`` are not wrapped: they are reached only from
the layers below, and wrapping a microsecond function per call would
distort them.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field

from osmot.boundary import CoincidentNeighborsError
from osmot.newton import DegenerateStartError

# (module, attribute, layer span): every lookup the workloads go through.
# The cli and driver modules bind their own names, so each binding a
# caller uses is wrapped where that caller looks it up.
TARGETS = (
    ("osmot.newton", "ball_grad_hess", "objective.ball_grad_hess"),
    ("osmot.newton", "ball_objective", "objective.ball_objective"),
    ("osmot.driver", "optimize_ball", "newton.optimize_ball"),
    ("osmot.driver", "smooth_boundary_node", "boundary.smooth_boundary_node"),
    ("osmot.driver", "boundary_neighbors", "mesh.boundary_neighbors"),
    ("osmot.driver", "flag_nodes", "mesh.flag_nodes"),
    ("osmot.driver", "quality_report", "report.quality_report"),
    ("osmot.cli", "main", "cli.main"),
    ("osmot.cli", "read_mesh", "meshio.read_mesh"),
    ("osmot.cli", "write_mesh", "meshio.write_mesh"),
    ("osmot.cli", "smooth", "driver.smooth"),
    ("osmot.cli", "render_svg", "svgout.render_svg"),
    ("osmot.cli", "write_report_csv", "report.write_report_csv"),
    ("osmot.meshio", "build_topology", "mesh.build_topology"),
    # the rezone workload drives the library through these
    ("osmot.meshio", "read_mesh", "meshio.read_mesh"),
    ("osmot.meshio", "write_mesh", "meshio.write_mesh"),
    ("osmot.driver", "smooth", "driver.smooth"),
    ("osmot.svgout", "render_svg", "svgout.render_svg"),
    ("osmot.report", "write_report_csv", "report.write_report_csv"),
)

# spans whose per-call durations are kept for percentiles
_KEEP_DURATIONS = {"newton.optimize_ball", "driver.smooth"}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


@dataclass
class Counters:
    """Work counts read at the layer boundaries."""

    grad_hess_elements: int = 0
    grad_hess_repeats: int = 0
    objective_elements: int = 0
    iterations: int = 0
    rejections: int = 0
    steepest: int = 0
    converged: int = 0
    degenerate_start: int = 0
    boundary_moved: int = 0
    coincident: int = 0
    relocations: int = 0
    svg_bytes: int = 0
    mesh_bytes: int = 0
    triangles_reported: int = 0


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.counters = Counters()
        self._stack: list[list[float]] = []
        self._solve_points: set[tuple[float, float]] = set()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target attribute; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, span in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, span: str, fn):
        stats = self.spans.setdefault(span, SpanStats())
        keep = span in _KEEP_DURATIONS
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        failed = getattr(self, "_failed_" + span.replace(".", "_"), None)
        stack = self._stack
        clock = time.perf_counter

        def close(t0: float, frame: list[float]) -> None:
            dt = clock() - t0
            stack.pop()
            stats.calls += 1
            stats.self_s += dt - frame[0]
            if keep:
                stats.durations.append(dt)

        def charge_parent(t_enter: float) -> None:
            # the parent's child time covers the whole wrapper, so tracer
            # bookkeeping lands in no layer's self time
            if stack:
                stack[-1][0] += clock() - t_enter

        def wrapper(*args, **kwargs):
            t_enter = clock()
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                close(t0, frame)
                if failed is not None and isinstance(err, Exception):
                    failed(args, err)
                charge_parent(t_enter)
                raise
            close(t0, frame)
            if after is not None:
                after(args, result)
            charge_parent(t_enter)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # hooks, found by name: _before_/_after_/_failed_ + span with '_' for '.'

    def _before_newton_optimize_ball(self, args) -> None:
        self._solve_points = set()

    def _after_newton_optimize_ball(self, args, result) -> None:
        trace = result[1]
        c = self.counters
        c.iterations += trace.iterations
        c.rejections += trace.armijo_rejections
        c.steepest += trace.used_steepest_count
        c.converged += trace.converged

    def _failed_newton_optimize_ball(self, args, err) -> None:
        if isinstance(err, DegenerateStartError):
            self.counters.degenerate_start += 1

    def _before_objective_ball_grad_hess(self, args) -> None:
        _mesh, ball, x0, _params = args
        self.counters.grad_hess_elements += len(ball.elements)
        point = (x0.x, x0.y)
        if point in self._solve_points:
            self.counters.grad_hess_repeats += 1
        else:
            self._solve_points.add(point)

    def _before_objective_ball_objective(self, args) -> None:
        self.counters.objective_elements += len(args[1].elements)

    def _after_boundary_smooth_boundary_node(self, args, result) -> None:
        self.counters.boundary_moved += result != args[0].p0

    def _failed_boundary_smooth_boundary_node(self, args, err) -> None:
        if isinstance(err, CoincidentNeighborsError):
            self.counters.coincident += 1

    def _after_driver_smooth(self, args, result) -> None:
        self.counters.relocations += result.relocations

    def _after_report_quality_report(self, args, result) -> None:
        self.counters.triangles_reported += len(args[0].triangles)

    def _after_svgout_render_svg(self, args, result) -> None:
        self.counters.svg_bytes += os.path.getsize(args[1])

    def _after_meshio_write_mesh(self, args, result) -> None:
        self.counters.mesh_bytes += os.path.getsize(args[1])

    def counts(self) -> dict[str, int]:
        """Every count the pass produced; equal across repeats of a pass."""
        out = {f"{name}.calls": s.calls for name, s in sorted(self.spans.items())}
        out.update(vars(self.counters))
        return out

    def self_s(self, span: str) -> float:
        stats = self.spans.get(span)
        return stats.self_s if stats else 0.0

    def calls(self, span: str) -> int:
        stats = self.spans.get(span)
        return stats.calls if stats else 0

    def durations_ms(self, span: str) -> list[float]:
        stats = self.spans.get(span)
        return [1e3 * d for d in stats.durations] if stats else []


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (inclusive method), 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    c = tr.counters
    gh, ob = "objective.ball_grad_hess", "objective.ball_objective"
    solves = tr.calls("newton.optimize_ball") - c.degenerate_start
    smooth_ms = tr.durations_ms("driver.smooth")
    solve_ms = tr.durations_ms("newton.optimize_ball")
    bnd = tr.calls("boundary.smooth_boundary_node")
    return {
        f"{gh}.calls": tr.calls(gh),
        f"{gh}.elements": c.grad_hess_elements,
        f"{gh}.self_s": tr.self_s(gh),
        f"{gh}.us_per_element": 1e6 * _ratio(tr.self_s(gh), c.grad_hess_elements),
        f"{ob}.calls": tr.calls(ob),
        f"{ob}.elements": c.objective_elements,
        f"{ob}.self_s": tr.self_s(ob),
        f"{ob}.us_per_element": 1e6 * _ratio(tr.self_s(ob), c.objective_elements),
        "newton.optimize_ball.calls": tr.calls("newton.optimize_ball"),
        "newton.optimize_ball.self_s": tr.self_s("newton.optimize_ball"),
        "newton.optimize_ball.ms_p50": percentile(solve_ms, 50),
        "newton.optimize_ball.ms_p99": percentile(solve_ms, 99),
        "newton.iterations_per_ball": _ratio(c.iterations, solves),
        "newton.rejections_per_ball": _ratio(c.rejections, solves),
        "newton.steepest_frac": _ratio(c.steepest, c.iterations),
        "newton.converged_frac": _ratio(c.converged, solves),
        "newton.grad_hess_repeat_frac": _ratio(c.grad_hess_repeats, tr.calls(gh)),
        "newton.degenerate_start": c.degenerate_start,
        "boundary.smooth_boundary_node.calls": bnd,
        "boundary.moved_frac": _ratio(c.boundary_moved, bnd),
        "boundary.coincident": c.coincident,
        "mesh.boundary_neighbors.calls": tr.calls("mesh.boundary_neighbors"),
        "mesh.flag_nodes.calls": tr.calls("mesh.flag_nodes"),
        "mesh.flag_nodes.self_s": tr.self_s("mesh.flag_nodes"),
        "report.quality_report.calls": tr.calls("report.quality_report"),
        "report.quality_report.self_s": tr.self_s("report.quality_report"),
        "report.quality_report.us_per_triangle":
            1e6 * _ratio(tr.self_s("report.quality_report"), c.triangles_reported),
        "svgout.render_svg.calls": tr.calls("svgout.render_svg"),
        "svgout.render_svg.bytes": c.svg_bytes,
        "meshio.write_mesh.calls": tr.calls("meshio.write_mesh"),
        "meshio.write_mesh.self_s": tr.self_s("meshio.write_mesh"),
        "meshio.write_mesh.bytes": c.mesh_bytes,
        "report.write_report_csv.self_s": tr.self_s("report.write_report_csv"),
        "meshio.read_mesh.self_s": tr.self_s("meshio.read_mesh"),
        "mesh.build_topology.self_s": tr.self_s("mesh.build_topology"),
        "driver.smooth.calls": tr.calls("driver.smooth"),
        "driver.smooth.self_s": tr.self_s("driver.smooth"),
        "driver.smooth.ms_p50": percentile(smooth_ms, 50),
        "driver.smooth.ms_p90": percentile(smooth_ms, 90),
        "driver.relocations": c.relocations,
        "cli.main.calls": tr.calls("cli.main"),
    }
