"""Global smoothing driver.

One run records the initial quality, then repeats up to i_max loops.
The first loop flags the nodes of sub-quality elements (every loop does
with ``reflag_each_loop``). Each loop then relocates the movable
boundary nodes (chains in ascending id, nodes in chain order, always
using current neighbor positions), then optimizes the ball of every
flagged internal node in ascending node id. Connectivity never
changes; the run is deterministic. A loop that moves nothing makes every
later loop a no-op, so the driver exits early by default.

Since connectivity and mobility never change, a run walks each chain
once, before the first loop, into the (previous, node, next) ids of its
movable nodes (wrapping on a closed chain); every loop relocates from
that list. The walk reads each node's mobility, not its chain id, so a
hand-assembled mesh whose nodes carry no chain id smooths too.

A boundary node that moved is guarded (``guard_boundary_move``): its
move is shortened along the curve until no triangle of its star
(``Mesh.stars``, scored in each triangle's own vertex order as the
quality table scores it) is degenerate or inverted and the star's
minimum q2 is not below its value before the move, or refused. So no
boundary move lowers the least quality of the triangles it touches, as
no Newton solve raises its ball's objective.

A node's proposal and its guard are pure functions of the positions of
the node and of its star, which holds its chain neighbours. So the pass
keeps, for each movable node, the positions its last proposal read if
that proposal moved nothing (``smooth_boundary_node`` gave back its own
point, or the guard refused the move), and skips the node while the
positions it reads equal those: a proposal from equal inputs would
stay again. The run is bit for bit the one that proposes every node in every
loop. Equal positions are what counts, not who wrote them, so a move by
the interior pass, by an earlier node of the same pass or by ``on_loop``
needs no bookkeeping. A node whose neighbours coincide is never
settled, and is reported in ``skipped`` in every loop. The memo lives
only in one ``smooth`` call. Each call of ``smooth_boundary_node``
passes one positional ``BoundaryTriple``, and the guard after it reads
the mesh's positions and the node's star as they are.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import get_args

from .boundary import (
    BoundaryTriple,
    CoincidentNeighborsError,
    guard_boundary_move,
    smooth_boundary_node,
)
from .geometry import Point2
# boundary_neighbors is not called here, since the boundary pass walks each
# chain once, but stays a name of this module: the benchmark tracer wraps
# osmot.driver.boundary_neighbors by name, and every traced run fails
# without it
from .mesh import Mesh, Mobility, boundary_neighbors, flag_nodes
from .newton import DegenerateStartError, StopReason, optimize_ball
from .objective import ObjectiveParams
from .quality import QualityConfig
from .report import QualityReport, quality_report


class SmootherKind(enum.Enum):
    OSMOT = "osmot"
    LAPLACIAN = "laplacian"


@dataclass(frozen=True, slots=True)
class SmootherConfig:
    i_max: int = 10
    quality: QualityConfig = field(default_factory=QualityConfig)
    objective: ObjectiveParams = field(default_factory=ObjectiveParams)
    reflag_each_loop: bool = False
    smoother_kind: SmootherKind = SmootherKind.OSMOT
    early_exit: bool = True

    def __post_init__(self) -> None:
        if self.i_max < 0:
            raise ValueError("i_max must be >= 0")


@dataclass(slots=True)
class RunReport:
    reports: list[QualityReport]
    relocations: int
    skipped: list[tuple[int, str]]
    wall_time: float
    loops_run: int
    early_exit_loop: int | None  # loop after which nothing moved, if any
    # Newton solves per stop reason, every StopReason in declaration order
    stop_reasons: dict[str, int]


def laplacian_baseline_step(mesh: Mesh, node_id: int) -> Point2:
    """Arithmetic mean of the distinct neighbor positions in the ball.

    The classical heuristic used as a comparison baseline. It can move
    the vertex outside the kernel of a non-convex ball and invert
    elements; the driver writes the result unconditionally on purpose.
    """
    ball = mesh.balls[node_id]
    neighbor_ids: set[int] = set()
    for _tid, n1, n2 in ball.elements:
        neighbor_ids.add(n1)
        neighbor_ids.add(n2)
    sx = sy = 0.0
    for nid in sorted(neighbor_ids):
        p = mesh.position(nid)
        sx += p.x
        sy += p.y
    n = len(neighbor_ids)
    return Point2(sx / n, sy / n)


def _boundary_triples(mesh: Mesh) -> list[tuple[int, int, int]]:
    """The (previous, node, next) ids of every movable boundary node, chains
    in list order and nodes in chain order; a closed chain wraps around."""
    nodes = mesh.nodes
    triples = []
    for chain in mesh.chains:
        ids = chain.node_ids
        if chain.closed:
            ids = ids[-1:] + ids + ids[:1]
        triples += [(prev_id, nid, next_id)
                    for prev_id, nid, next_id in zip(ids, ids[1:], ids[2:])
                    if nodes[nid].mobility is Mobility.BOUNDARY]
    return triples


def smooth(mesh: Mesh, cfg: SmootherConfig, on_loop=None) -> RunReport:
    """Run the full smoothing procedure in place on the mesh.

    ``on_loop(loop, mesh)`` is invoked after the initial state is recorded
    (loop 0) and after every completed loop; useful for periodic snapshots.
    It may move nodes; the next loop proposes each boundary node that reads
    a moved position.
    """
    t0 = time.perf_counter()
    reports = [quality_report(mesh, cfg.quality, cfg.objective.r_ref, 0)]
    if on_loop is not None:
        on_loop(0, mesh)

    skipped: list[tuple[int, str]] = []
    relocations = 0
    loops_run = 0
    early_exit_loop: int | None = None
    stop_reasons = dict.fromkeys(get_args(StopReason), 0)
    # each movable node's chain triple, and a getter of the positions its
    # proposal and guard read: its own, then those of its star
    chain_triples = [
        (prev_id, nid, next_id,
         itemgetter(nid, *{n for _t, n1, n2 in mesh.stars[nid] for n in (n1, n2)}))
        for prev_id, nid, next_id in _boundary_triples(mesh)]
    # node -> the positions read by its last proposal, if that moved nothing
    settled: dict[int, tuple[Point2, ...]] = {}
    positions = mesh._positions

    for loop in range(1, cfg.i_max + 1):
        if loop == 1 or cfg.reflag_each_loop:
            targets = sorted(
                nid for nid in flag_nodes(mesh, cfg.quality)
                if mesh.nodes[nid].mobility is Mobility.INTERNAL
            )
        moved = False

        for prev_id, nid, next_id, reads in chain_triples:
            read = reads(positions)
            if read == settled.get(nid):
                continue
            old = read[0]
            triple = tuple.__new__(BoundaryTriple, (
                positions[prev_id], old, positions[next_id]))
            try:
                new_pos = smooth_boundary_node(triple)
            except CoincidentNeighborsError:
                skipped.append((nid, "coincident-neighbors"))
                continue
            if new_pos != old:
                new_pos = guard_boundary_move(triple, new_pos, mesh, nid)
                if new_pos is not old:
                    mesh.set_position(nid, new_pos)
                    settled.pop(nid, None)
                    moved = True
                    relocations += 1
                    continue
            settled[nid] = read

        for nid in targets:
            old = mesh.position(nid)
            if cfg.smoother_kind is SmootherKind.OSMOT:
                try:
                    new_pos, trace = optimize_ball(
                        mesh, mesh.balls[nid], cfg.objective)
                except DegenerateStartError:
                    skipped.append((nid, "degenerate-start"))
                    continue
                stop_reasons[trace.stop_reason] += 1
            else:
                new_pos = laplacian_baseline_step(mesh, nid)
            if new_pos != old:
                mesh.set_position(nid, new_pos)
                moved = True
                relocations += 1

        loops_run = loop
        reports.append(quality_report(mesh, cfg.quality, cfg.objective.r_ref, loop))
        if on_loop is not None:
            on_loop(loop, mesh)
        if not moved and early_exit_loop is None:
            early_exit_loop = loop
            if cfg.early_exit:
                break

    return RunReport(
        reports=reports,
        relocations=relocations,
        skipped=skipped,
        wall_time=time.perf_counter() - t0,
        loops_run=loops_run,
        early_exit_loop=early_exit_loop,
        stop_reasons=stop_reasons,
    )
