"""Mesh data model and derived topology.

A mesh is a list of nodes (each with a mobility class), a list of
positively oriented triangles, and topology derived once at build time:
the ball of elements around every internal node, and the movable boundary
chains obtained by splitting the boundary at fixed nodes. Connectivity is
immutable during smoothing; node positions are the only mutable state.

``build_topology`` keeps the positions list it is given, reads the
coordinates into two lists, then the triangles once: each is checked for
orientation, and its three directed edges (u, v), keyed as the int
u * n_nodes + v, against those of the earlier triangles; it joins the
star of each of its nodes, and adds to each node's winding count when
its opposite edge crosses the node's height upwards. Then the nodes once:
each star becomes a tuple and is checked for an orphan, against the
node's mobility label and, off the boundary, for a winding count of
exactly one. The stars are kept as ``Mesh.stars``, the mesh's one
node-to-triangle incidence, and the ball of an internal node wraps its
star; ``star_min_q2`` scores a node's star with the node at a trial
position, each triangle in its own vertex order from ``Mesh.triangles``,
for the guard on boundary moves. Each ``Node`` is built once, after the
chains, with its chain id.

``Triangle`` and ``Ball``, like ``Point2``, are ``typing.NamedTuple``
records: a load builds thousands of them, and packs each with
``tuple.__new__``. A ``Node`` stays a frozen dataclass, so that a
direct write of its fields raises ``FrozenInstanceError``.

Per-triangle quality lives in one ``QualityTable`` per mesh, built on
first use. The table and ``star_min_q2`` score a triangle with the one
function ``_score_triangle``. The text of the last mesh-file write and
SVG render is kept on the mesh as well (see ``meshio`` and ``svgout``).
A ``Node`` is topology only. The positions are one list of ``Point2``,
``Mesh._positions``, which only ``Mesh.set_position`` writes: it stores
the point and adds the node's id to the ``moved`` set of each of the
three caches the mesh holds. A cache's next read takes its own set and
clears it: the table re-evaluates the triangles in the stars of those
nodes, and the text caches format them again.

The table keeps only per-triangle values, and one thing by deltas over
the triangles it re-evaluates: the set of triangles below the last q_min
asked, so ``flag_nodes`` and the report's flagged count cost O(moved
triangles). Its q2 and circumradius are plain lists of floats, not
``array('d')``: the report's full passes (``min``, ``fsum``, ``max``) read
a list's float objects as they are, where an array would box a new float
for every element read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import hypot, inf, nan
from typing import TYPE_CHECKING, NamedTuple

from .geometry import DEGENERATE_AREA_FACTOR, Point2
from .quality import QualityConfig

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .meshio import FileText
    from .svgout import SvgText


class MeshError(Exception):
    """Base class for mesh validation errors."""

    def __init__(self, message: str, *, triangle_id: int | None = None,
                 node_id: int | None = None):
        # the triangle or node the fault lies in, where one does; a reader
        # names its file line
        self.triangle_id = triangle_id
        self.node_id = node_id
        super().__init__(message)


class NonManifoldError(MeshError):
    pass


class InvertedElementError(MeshError):
    def __init__(self, triangle_id: int, area: float):
        self.area = area
        super().__init__(
            f"triangle {triangle_id} has non-positive signed area {area:g}",
            triangle_id=triangle_id,
        )


class OrphanNodeError(MeshError):
    def __init__(self, node_id: int):
        super().__init__(f"node {node_id} belongs to no triangle", node_id=node_id)


class InconsistentMobilityError(MeshError):
    def __init__(self, node_id: int, message: str):
        super().__init__(message, node_id=node_id)


class TangledBallError(MeshError):
    def __init__(self, node_id: int, winding: int):
        self.winding = winding
        super().__init__(
            f"triangles around interior node {node_id} wind {winding} times around it",
            node_id=node_id,
        )


class NotBoundaryError(MeshError):
    pass


class Mobility(enum.Enum):
    FIXED = "F"
    INTERNAL = "I"
    BOUNDARY = "B"


@dataclass(frozen=True, slots=True)
class Node:
    id: int
    mobility: Mobility
    chain_id: int | None = None  # set for BOUNDARY nodes by build_topology


class Triangle(NamedTuple):
    id: int
    nodes: tuple[int, int, int]


class Ball(NamedTuple):
    """All triangles sharing a vertex node.

    ``elements`` holds one (triangle id, n1, n2) triple per triangle, in
    ascending triangle id, where (vertex, n1, n2) is a cyclic rotation of
    the triangle's node triple and so keeps its orientation.
    """

    vertex: int
    elements: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, slots=True)
class BoundaryChain:
    """A maximal run of movable boundary nodes.

    Open chains start and end at fixed nodes; closed chains are boundary
    loops containing no fixed node and wrap around cyclically.
    """

    chain_id: int
    node_ids: tuple[int, ...]
    closed: bool


def _score_triangle(x0: float, y0: float, x1: float, y1: float, x2: float,
                    y2: float) -> tuple[float, float, float]:
    """The signed area, the radius ratio q2 and the size radius of the
    triangle (x0, y0), (x1, y1), (x2, y2).

    The float operations are those of ``triangle_geometry``, then
    ``q2_shape`` and ``size_radius``, in the same order, so the values are
    the same bits without building a ``TriangleGeometry``. A triangle
    whose signed area is at or below its degeneracy threshold (degenerate
    or inverted), or whose circumradius underflows to 0, has radius +inf,
    so q2 = 0 and r_ref / R = 0.
    """
    a = hypot(x1 - x0, y1 - y0)
    b = hypot(x2 - x1, y2 - y1)
    c = hypot(x0 - x2, y0 - y2)
    area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    # max(a, b, c), and the barrier's signed test, inlined as in
    # _frame_grad_hess
    m = a if a > b else b
    if c > m:
        m = c
    if area <= DEGENERATE_AREA_FACTOR * m * m:
        return area, 0.0, inf
    big_r = a * b * c / (4.0 * area)
    if big_r == 0.0:
        return area, 0.0, inf
    return area, 2.0 * (area / (0.5 * (a + b + c))) / big_r, big_r


class QualityTable:
    """Flat per-triangle quality values, indexed by triangle id.

    ``circumradius`` is ``size_radius``: R, or +inf for a degenerate or
    an inverted triangle, so that r_ref / R is its size quality
    (``q1_size``) for any positive r_ref, 0 where the triangle is invalid;
    ``q2`` is the radius ratio (``q2_shape``), 2r over that radius, so 0
    where it is +inf; ``inverted`` is 1 where the signed area is not
    positive. ``q2`` and ``circumradius`` are lists of floats, which the
    report's min, mean and max passes read without boxing; ``inverted`` is
    a ``bytearray``, which it counts with ``bytearray.count``. ``moved``
    holds the nodes moved since the values were last evaluated.

    The triangles below the last q_min asked of ``below`` are kept by
    deltas: each re-evaluated triangle joins or leaves that set.
    """

    __slots__ = ("moved", "q2", "circumradius", "inverted", "_q_min", "_below")

    def __init__(self, mesh: Mesh) -> None:
        self.moved: set[int] = set()
        n = len(mesh.triangles)
        self.q2 = [0.0] * n
        self.circumradius = [0.0] * n
        self.inverted = bytearray(n)
        # no triangle is below a NaN q_min (a comparison with NaN is false)
        self._q_min = nan
        self._below: set[int] = set()
        self._evaluate(mesh, range(n))

    def refresh(self, mesh: Mesh) -> None:
        """Re-evaluate every triangle in the star of a node moved since the
        last refresh."""
        if self.moved:
            dirty = {tid for nid in self.moved
                     for tid, _n1, _n2 in mesh.stars[nid]}
            self.moved.clear()
            self._evaluate(mesh, dirty)

    def below(self, q_min: float) -> set[int]:
        """Ids of the triangles whose q2 is below ``q_min``.

        The set is kept up to date for the last ``q_min`` asked; another
        one builds it again from ``q2``. Callers must not change it.
        """
        if q_min != self._q_min:
            self._q_min = q_min
            self._below = {tid for tid, q2 in enumerate(self.q2) if q2 < q_min}
        return self._below

    def _evaluate(self, mesh: Mesh, tids: Iterable[int]) -> None:
        """Score the triangles ``tids`` with ``_score_triangle`` and move
        them into or out of the below set."""
        positions, triangles = mesh._positions, mesh.triangles
        q2s, radii, inverted = self.q2, self.circumradius, self.inverted
        below, q_min = self._below, self._q_min
        for tid in tids:
            n0, n1, n2 = triangles[tid].nodes
            x0, y0 = positions[n0]
            x1, y1 = positions[n1]
            x2, y2 = positions[n2]
            area, q2, big_r = _score_triangle(x0, y0, x1, y1, x2, y2)
            q2s[tid] = q2
            radii[tid] = big_r
            inverted[tid] = area <= 0.0
            if q2 < q_min:
                below.add(tid)
            else:
                below.discard(tid)


@dataclass(slots=True)
class Mesh:
    """Nodes, triangles, node positions and the topology derived from them.

    ``_positions[nid]`` is node nid's position, written only by
    ``set_position``; ``stars[nid]`` holds its (triangle id, n1, n2)
    triples, as in ``Ball.elements``, and is the one node-to-triangle
    incidence: the quality table and the SVG text find the triangles around
    a moved node there, and the boundary pass and its guard those around a
    movable boundary node. A mesh assembled without ``build_topology``
    passes the stars of the nodes it moves, as it passes ``balls`` and
    ``chains``.
    """

    nodes: list[Node]
    triangles: list[Triangle]
    _positions: list[Point2]
    stars: list[tuple[tuple[int, int, int], ...]] = field(default_factory=list)
    balls: dict[int, Ball] = field(default_factory=dict)
    chains: list[BoundaryChain] = field(default_factory=list)
    # optional per-triangle reference radius overrides (triangle id -> value)
    rref: dict[int, float] = field(default_factory=dict)
    _quality: QualityTable | None = field(
        default=None, init=False, compare=False, repr=False)
    _file_text: FileText | None = field(
        default=None, init=False, compare=False, repr=False)
    _svg_text: SvgText | None = field(
        default=None, init=False, compare=False, repr=False)

    def position(self, node_id: int) -> Point2:
        return self._positions[node_id]

    def set_position(self, node_id: int, p: Point2) -> None:
        """Move a node, and record it for each cache the mesh holds."""
        self._positions[node_id] = p
        for cache in (self._quality, self._file_text, self._svg_text):
            if cache is not None:
                cache.moved.add(node_id)

    def quality_table(self) -> QualityTable:
        """The per-triangle quality at the current positions.

        Built on the first call; later calls re-evaluate only the
        triangles around nodes moved since the previous call.
        """
        if self._quality is None:
            self._quality = QualityTable(self)
        else:
            self._quality.refresh(self)
        return self._quality

    def triangle_points(self, tri: Triangle) -> tuple[Point2, Point2, Point2]:
        n0, n1, n2 = tri.nodes
        positions = self._positions
        return positions[n0], positions[n1], positions[n2]

    def connectivity_key(self) -> tuple:
        """Hashable snapshot of everything smoothing must not change."""
        return (
            tuple(t.nodes for t in self.triangles),
            tuple(sorted((b.vertex, b.elements) for b in self.balls.values())),
            tuple((c.chain_id, c.node_ids, c.closed) for c in self.chains),
            tuple(self.nodes),
        )


def star_min_q2(mesh: Mesh, nid: int, px: float, py: float) -> float:
    """The least radius ratio q2 over the triangles of ``mesh.stars[nid]``,
    with node nid at (px, py) and the other nodes where they are.

    Each triangle is scored by ``_score_triangle`` in its own vertex order
    from ``mesh.triangles``, so its q2 is the quality table's bits. A
    triangle at or below its degeneracy area (degenerate or inverted), or
    whose circumradius underflows, has size radius +inf and scores 0, so
    the result is positive exactly when the table would score every
    triangle of the star above 0.
    """
    positions, triangles = mesh._positions, mesh.triangles
    least = inf
    for tid, n1, n2 in mesh.stars[nid]:
        # (nid, n1, n2) is a rotation of the triangle's (a, b, c)
        _tid, (a, b, _c) = triangles[tid]
        x1, y1 = positions[n1]
        x2, y2 = positions[n2]
        if a == nid:
            q2 = _score_triangle(px, py, x1, y1, x2, y2)[1]
        elif b == nid:
            q2 = _score_triangle(x2, y2, px, py, x1, y1)[1]
        else:
            q2 = _score_triangle(x1, y1, x2, y2, px, py)[1]
        if q2 == 0.0:
            return 0.0
        if q2 < least:
            least = q2
    return least


def build_topology(
    mobility: list[Mobility],
    positions: list[Point2],
    triangles: list[Triangle],
    rref: dict[int, float] | None = None,
) -> Mesh:
    """Validate connectivity and derive balls and boundary chains.

    Node i has ``mobility[i]`` and ``positions[i]``; the mesh keeps the
    ``positions`` list itself. Raises a MeshError subclass on invalid
    input: non-manifold edges or vertices, non-positively oriented
    triangles, orphan nodes, mobility labels that disagree with where a
    node actually sits, or an interior node (internal, or fixed off the
    boundary) whose triangles do not wind around it exactly once. Of
    several faulty nodes, the lowest id is named.

    The winding is counted from the one orientation test: once (a, b, c)
    is positive, its edge b -> c passes a on the right when it climbs
    past a's height and on the left when it descends, so the number of
    edges that climb past a node's height, half-open (Hormann & Agathos,
    2001), is how often its ring winds around it. No coordinate product
    is formed. A ring of exactly positive triangles winds at least once,
    so a tangled star of them reports a winding of 2 or more.
    """
    n_nodes = len(positions)
    if len(mobility) != n_nodes:
        raise MeshError(f"{len(mobility)} mobility labels for {n_nodes} nodes")
    xs = [p.x for p in positions]
    ys = [p.y for p in positions]

    # Each triangle contributes its three directed edges (u, v), interior
    # on the left, keyed as u * n_nodes + v once its nodes are known to be
    # in range. In a manifold, consistently oriented mesh no directed edge
    # occurs twice, and a directed edge whose reverse is absent is a
    # boundary edge. The same pass builds the star of every node; the
    # triangles are visited in id order, so every star comes out sorted.
    # It also counts each node's winding, as the docstring says.
    edges: set[int] = set()
    reverse: list[int] = []
    add_edge = edges.add
    stars: list[list[tuple[int, int, int]]] = [[] for _ in range(n_nodes)]
    winding = [0] * n_nodes
    for i, (tid, tri_nodes) in enumerate(triangles):
        if tid != i:
            raise MeshError(f"triangle ids must be dense 0..M-1, found {tid} at {i}")
        a, b, c = tri_nodes
        if a == b or b == c or c == a:
            raise MeshError(f"triangle {tid} has repeated nodes {tri_nodes}",
                            triangle_id=tid)
        if not (0 <= a < n_nodes and 0 <= b < n_nodes and 0 <= c < n_nodes):
            nid = next(nid for nid in tri_nodes if not 0 <= nid < n_nodes)
            raise MeshError(f"triangle {tid} references unknown node {nid}",
                            triangle_id=tid)
        xa, ya = xs[a], ys[a]
        yb, yc = ys[b], ys[c]
        # signed_area's expression, so InvertedElementError prints its float
        area = 0.5 * ((xs[b] - xa) * (yc - ya) - (xs[c] - xa) * (yb - ya))
        if area <= 0.0:
            raise InvertedElementError(tid, area)
        winding[a] += yb <= ya < yc
        winding[b] += yc <= yb < ya
        winding[c] += ya <= yc < yb
        an, bn, cn = a * n_nodes, b * n_nodes, c * n_nodes
        ab, bc, ca = an + b, bn + c, cn + a
        if ab in edges or bc in edges or ca in edges:
            key = next(key for key in (ab, bc, ca) if key in edges)
            raise NonManifoldError(
                f"directed edge {divmod(key, n_nodes)} belongs to more than one triangle",
                triangle_id=tid,
            )
        add_edge(ab)
        add_edge(bc)
        add_edge(ca)
        reverse += (bn + a, cn + b, an + c)
        stars[a].append((tid, b, c))
        stars[b].append((tid, c, a))
        stars[c].append((tid, a, b))

    # Removing every reversed key leaves the boundary edges. Ascending keys
    # visit them by start node, so of several pinched nodes (two outgoing
    # boundary edges) the lowest is named.
    edges.difference_update(reverse)
    boundary_next: dict[int, int] = {}
    for key in sorted(edges):
        u, v = divmod(key, n_nodes)
        if u in boundary_next:
            raise NonManifoldError(
                f"node {u} has more than one outgoing boundary edge", node_id=u)
        boundary_next[u] = v

    # A node that starts no boundary edge is interior, and its star must
    # wind around it once whether it moves or not: its ring edges close,
    # so the count of the triangle pass is the ring's winding around it.
    # Each star list is replaced by its tuple, so no two copies are held;
    # an INTERNAL node's ball wraps that tuple.
    balls: dict[int, Ball] = {}
    for nid, mob in enumerate(mobility):
        star = stars[nid] = tuple(stars[nid])
        if not star:
            raise OrphanNodeError(nid)
        on_boundary = nid in boundary_next
        if mob is Mobility.BOUNDARY and not on_boundary:
            raise InconsistentMobilityError(
                nid,
                f"node {nid} is marked movable-boundary but lies on no boundary edge",
            )
        if mob is Mobility.INTERNAL and on_boundary:
            raise InconsistentMobilityError(
                nid,
                f"node {nid} is marked internal but lies on a boundary edge",
            )
        if on_boundary:
            continue
        if winding[nid] != 1:
            raise TangledBallError(nid, winding[nid])
        if mob is Mobility.INTERNAL:
            balls[nid] = tuple.__new__(Ball, (nid, star))

    chains = _build_chains(mobility, boundary_next)
    chain_of = {nid: chain.chain_id for chain in chains for nid in chain.node_ids
                if mobility[nid] is Mobility.BOUNDARY}
    nodes = [Node(nid, mob, chain_of.get(nid)) for nid, mob in enumerate(mobility)]
    return Mesh(nodes=nodes, triangles=triangles, _positions=positions, stars=stars,
                balls=balls, chains=chains, rref=dict(rref) if rref else {})


def _build_chains(mobility: list[Mobility], boundary_next: dict[int, int]
                  ) -> list[BoundaryChain]:
    """Split the directed boundary loops at fixed nodes.

    Only chains containing at least one movable boundary node are kept;
    fixed-to-fixed segments with no movable node in between carry no work.
    """
    raw: list[tuple[tuple[int, ...], bool]] = []
    visited: set[int] = set()

    fixed_starts = sorted(
        nid for nid in boundary_next
        if mobility[nid] is not Mobility.BOUNDARY
    )
    for start in fixed_starts:
        run = [start]
        cur = boundary_next[start]
        visited.add(start)
        while mobility[cur] is Mobility.BOUNDARY:
            run.append(cur)
            visited.add(cur)
            cur = boundary_next[cur]
        run.append(cur)
        if len(run) > 2:
            raw.append((tuple(run), False))

    # remaining loops contain no fixed node: closed chains
    for start in sorted(boundary_next):
        if start in visited:
            continue
        run = [start]
        visited.add(start)
        cur = boundary_next[start]
        while cur != start:
            run.append(cur)
            visited.add(cur)
            cur = boundary_next[cur]
        raw.append((tuple(run), True))

    raw.sort(key=lambda item: min(item[0]))
    return [
        BoundaryChain(chain_id=i, node_ids=ids, closed=closed)
        for i, (ids, closed) in enumerate(raw)
    ]


def flag_nodes(mesh: Mesh, cfg: QualityConfig) -> set[int]:
    """Node ids of every triangle whose radius ratio falls below q_min.

    The result includes nodes of any mobility; callers intersect with the
    internal node set before optimizing.
    """
    triangles = mesh.triangles
    flagged: set[int] = set()
    for tid in mesh.quality_table().below(cfg.q_min):
        flagged.update(triangles[tid].nodes)
    return flagged


def boundary_neighbors(mesh: Mesh, node_id: int) -> tuple[int, int]:
    """The two chain neighbors of a movable boundary node, in chain order."""
    node = mesh.nodes[node_id]
    if node.mobility is not Mobility.BOUNDARY or node.chain_id is None:
        raise NotBoundaryError(f"node {node_id} is not a movable boundary node")
    chain = mesh.chains[node.chain_id]
    idx = chain.node_ids.index(node_id)
    n = len(chain.node_ids)
    if chain.closed:
        return chain.node_ids[(idx - 1) % n], chain.node_ids[(idx + 1) % n]
    return chain.node_ids[idx - 1], chain.node_ids[idx + 1]
