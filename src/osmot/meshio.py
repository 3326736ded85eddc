"""Reader and writer for the osmot-mesh v1 text format.

The format is a plain-text section layout:

    osmot-mesh v1
    nodes <N>
    <id> <x> <y> <mobility>      mobility: F | I | B<chain_id>
    triangles <M>
    <id> <n0> <n1> <n2>
    rref <K>                      optional per-element reference radii
    <triangle_id> <value>

Comment lines starting with '#' and blank lines are ignored anywhere.
Coordinates are written with 17 significant digits so that writing and
re-reading a mesh reproduces the exact same doubles. Reading takes the
significant lines once, as a list of stripped strings, and converts each
section ``CHUNK`` lines at a time with C-level maps over its columns
(``str.split``, ``int``, ``float``, ``math.isfinite``), packing each
position and triangle with ``tuple.__new__`` (both are
``typing.NamedTuple``). A chunk that fails a bulk test is parsed again
line by line, which names its first fault and that fault's file line; a
file that ends early names the line after its last line. The mesh is
then validated (orientation, manifoldness, mobility consistency, balls
that wind once), with the offending file line where one can be
attributed. The positions list read is the mesh's own
(``Mesh._positions``), and the whole load runs with the cyclic garbage
collector paused (see ``parse_mesh_text``).

Writing keeps the formatted text on the mesh (``Mesh._file_text``): one
line per node, and the whole triangles section, which never changes
because connectivity is immutable. Positions change only through
``Mesh.set_position``, which records the node in the text's ``moved``
set, so each later write formats again only the lines of the nodes moved
since the previous write: a mesh checkpointed after every rezoning round
pays for the nodes that moved. A node's mobility and chain id are fixed
once the topology is built, so its line changes only with its position.
The rref section is formatted on every write, since ``Mesh.rref`` is a
plain dict that callers may edit.
"""

from __future__ import annotations

import gc
import math
from itertools import islice, repeat
from operator import eq

from .geometry import Point2
from .mesh import MeshError, Mesh, Mobility, Node, Triangle, build_topology

HEADER = "osmot-mesh v1"


class ParseError(Exception):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ValidationError(Exception):
    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


# Lines of a section are converted CHUNK at a time: holding a whole
# section's columns at once raised jitter64's peak_rss_mb by 2.2 MB
CHUNK = 1024


def _significant_lines(text: str) -> list[str]:
    """Every line that is neither blank nor a comment, stripped. Node i is
    at index 2 + i and triangle i at 3 + N + i; ``_file_line`` gives the
    file line of an index, which only a fault needs."""
    return [line for line in map(str.strip, text.splitlines())
            if line and line[0] != "#"]


def _file_line(text: str, index: int) -> int:
    """The file line number of the significant line at ``index``."""
    numbers = (line_no for line_no, raw in enumerate(text.splitlines(), start=1)
               if (line := raw.strip()) and line[0] != "#")
    return next(islice(numbers, index, None))


def _fault(text: str, index: int, message: str) -> ParseError:
    """The error of the significant line at ``index``."""
    return ParseError(_file_line(text, index), message)


_MOBILITY = {"F": Mobility.FIXED, "I": Mobility.INTERNAL}


def _chain_fault(token: str) -> str | None:
    """Why a mobility token other than F and I is refused, or None for a
    boundary token ``B<chain id>``."""
    if not token.startswith("B"):
        return f"unknown mobility {token!r}"
    # the chain id must be an integer, but build_topology renumbers chains
    try:
        int(token[1:])
    except ValueError:
        return f"bad chain id in mobility {token!r}"
    return None


def _count(text: str, lines: list[str], index: int, keyword: str) -> int:
    """The count of the ``<keyword> <count>`` section header at ``index``."""
    if index >= len(lines):
        raise _end_of_file(text, f"'{keyword} <count>'")
    line = lines[index]
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise _fault(text, index, f"expected '{keyword} <count>', got {line!r}")
    try:
        count = int(parts[1])
    except ValueError:
        count = -1
    if count < 0:
        raise _fault(text, index, f"bad {keyword} count {parts[1]!r}")
    return count


def _end_of_file(text: str, expect: str) -> ParseError:
    """The error of a file that ends early: it names the line after the
    file's last line."""
    return ParseError(len(text.splitlines()) + 1,
                      f"unexpected end of file, expected {expect}")


def _chunks(lines: list[str], start: int, end: int, fields: int):
    """(lo, hi, columns) of each chunk ``lines[lo:hi]`` of
    ``lines[start:end]``, where ``columns`` holds the chunk's rows split
    into ``fields`` columns, or is None when a row has another number of
    fields."""
    for lo in range(start, end, CHUNK):
        hi = min(lo + CHUNK, end)
        rows = list(map(str.split, lines[lo:hi]))
        columns = list(zip(*rows)) if set(map(len, rows)) == {fields} else None
        yield lo, hi, columns


def parse_mesh_text(text: str) -> Mesh:
    """The validated mesh of an osmot-mesh v1 text.

    The load runs with the cyclic garbage collector paused, and puts back
    the state it found: it builds only acyclic containers (points,
    triangles, star tuples, balls and nodes), so no collection during it
    could free anything.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str) -> Mesh:
    """The mesh of a text, each section converted a chunk of lines at a
    time by C-level maps over its columns. A chunk that fails a bulk test
    is parsed again line by line (``_node_lines``, ``_triangle_lines``,
    ``_rref_lines``), which raises its first fault at its file line; the
    chunks before it all passed, so the first fault of the file is the one
    reported."""
    lines = _significant_lines(text)
    if not lines:
        raise _end_of_file(text, "header")
    if lines[0] != HEADER:
        raise _fault(text, 0, f"expected header {HEADER!r}, got {lines[0]!r}")
    n_nodes = _count(text, lines, 1, "nodes")
    mobility, positions = _nodes(text, lines, n_nodes)
    n_triangles = _count(text, lines, 2 + n_nodes, "triangles")
    triangles = _triangles(text, lines, 3 + n_nodes, n_triangles)
    rref = _rref(text, lines, 3 + n_nodes + n_triangles, n_triangles)
    # no line is kept while the topology is built, the peak of a load; an
    # error that names a triangle or node reads the lines again
    del lines
    try:
        return build_topology(mobility, positions, triangles, rref)
    except MeshError as err:
        line_no = None
        if err.triangle_id is not None:
            line_no = _file_line(text, 3 + n_nodes + err.triangle_id)
        elif err.node_id is not None:
            line_no = _file_line(text, 2 + err.node_id)
        raise ValidationError(str(err), line_no) from err


def _nodes(text: str, lines: list[str], n_nodes: int
           ) -> tuple[list[Mobility], list[Point2]]:
    """The mobility and position columns of the node section."""
    mobility: list[Mobility] = []
    positions: list[Point2] = []
    # the mobility of each token met so far: F, I and each valid B<chain id>
    known = dict(_MOBILITY)
    for lo, hi, columns in _chunks(lines, 2, min(2 + n_nodes, len(lines)), 4):
        if columns is not None:
            ids, xs, ys, tokens = columns
            new = set(tokens).difference(known)
            try:
                xs = list(map(float, xs))
                ys = list(map(float, ys))
                valid = (all(map(eq, map(int, ids), range(lo - 2, hi - 2)))
                         and all(map(math.isfinite, xs))
                         and all(map(math.isfinite, ys))
                         and not any(map(_chain_fault, new)))
            except ValueError:
                valid = False
            if valid:
                known.update(dict.fromkeys(new, Mobility.BOUNDARY))
                mobility += map(known.__getitem__, tokens)
                # tuple.__new__ packs each record without the named-field
                # constructor's Python-level call, as namedtuple's _make does
                positions += map(tuple.__new__, repeat(Point2), zip(xs, ys))
                continue
        _node_lines(text, lines, lo, hi, mobility, positions)
    if len(positions) < n_nodes:
        raise _end_of_file(text, "a node line")
    return mobility, positions


def _node_lines(text: str, lines: list[str], lo: int, hi: int,
                mobility: list[Mobility], positions: list[Point2]) -> None:
    """Node lines ``lo`` to ``hi`` parsed one at a time, the reference of
    the bulk parse: it raises the first fault with its file line."""
    for index in range(lo, hi):
        line = lines[index]
        parts = line.split()
        if len(parts) != 4:
            raise _fault(text, index, f"expected '<id> <x> <y> <mobility>', got {line!r}")
        try:
            nid = int(parts[0])
            x = float(parts[1])
            y = float(parts[2])
        except ValueError:
            raise _fault(text, index, f"bad node fields in {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise _fault(text, index, f"non-finite coordinates in {line!r}")
        mob = _MOBILITY.get(parts[3])
        if mob is None:
            message = _chain_fault(parts[3])
            if message is not None:
                raise _fault(text, index, message)
            mob = Mobility.BOUNDARY
        if nid != index - 2:
            raise _fault(text, index, f"node ids must be dense, expected {index - 2}")
        mobility.append(mob)
        positions.append(tuple.__new__(Point2, (x, y)))


def _triangles(text: str, lines: list[str], start: int, n_triangles: int
               ) -> list[Triangle]:
    """The triangles of the section whose first line is at ``start``."""
    triangles: list[Triangle] = []
    for lo, hi, columns in _chunks(lines, start, min(start + n_triangles, len(lines)), 4):
        if columns is not None:
            tids, a, b, c = columns
            ids = range(lo - start, hi - start)
            try:
                nodes = list(zip(map(int, a), map(int, b), map(int, c)))
                valid = all(map(eq, map(int, tids), ids))
            except ValueError:
                valid = False
            if valid:
                triangles += map(tuple.__new__, repeat(Triangle), zip(ids, nodes))
                continue
        _triangle_lines(text, lines, lo, hi, start, triangles)
    if len(triangles) < n_triangles:
        raise _end_of_file(text, "a triangle line")
    return triangles


def _triangle_lines(text: str, lines: list[str], lo: int, hi: int, start: int,
                    triangles: list[Triangle]) -> None:
    """Triangle lines ``lo`` to ``hi`` of the section at ``start``, parsed
    one at a time, the reference of the bulk parse: it raises the first
    fault with its file line."""
    for index in range(lo, hi):
        line = lines[index]
        parts = line.split()
        if len(parts) != 4:
            raise _fault(text, index, f"expected '<id> <n0> <n1> <n2>', got {line!r}")
        try:
            tid, a, b, c = map(int, parts)
        except ValueError:
            raise _fault(text, index, f"bad triangle fields in {line!r}") from None
        if tid != index - start:
            raise _fault(text, index, f"triangle ids must be dense, expected {index - start}")
        triangles.append(tuple.__new__(Triangle, (tid, (a, b, c))))


def _rref(text: str, lines: list[str], start: int, n_triangles: int
          ) -> dict[int, float]:
    """The optional rref section, whose header is at ``start``."""
    rref: dict[int, float] = {}
    if start == len(lines):
        return rref
    n_rref = _count(text, lines, start, "rref")
    if len(lines) - start - 1 != n_rref:
        raise _fault(text, start, f"rref section declares {n_rref} entries, "
                                  f"found {len(lines) - start - 1}")
    for lo, hi, columns in _chunks(lines, start + 1, len(lines), 2):
        if columns is not None:
            try:
                tids = list(map(int, columns[0]))
                values = list(map(float, columns[1]))
                valid = (0 <= min(tids) and max(tids) < n_triangles
                         and all(map(math.isfinite, values)) and min(values) > 0.0
                         and len(set(tids)) == len(tids) and rref.keys().isdisjoint(tids))
            except ValueError:
                valid = False
            if valid:
                rref.update(zip(tids, values))
                continue
        _rref_lines(text, lines, lo, hi, n_triangles, rref)
    return rref


def _rref_lines(text: str, lines: list[str], lo: int, hi: int, n_triangles: int,
                rref: dict[int, float]) -> None:
    """rref lines ``lo`` to ``hi`` parsed one at a time, the reference of
    the bulk parse: it raises the first fault with its file line."""
    for index in range(lo, hi):
        line = lines[index]
        parts = line.split()
        if len(parts) != 2:
            raise _fault(text, index, f"expected '<triangle_id> <value>', got {line!r}")
        try:
            tid = int(parts[0])
            value = float(parts[1])
        except ValueError:
            raise _fault(text, index, f"bad rref entry {line!r}") from None
        if not 0 <= tid < n_triangles:
            raise _fault(text, index, f"rref references unknown triangle {tid}")
        if not (math.isfinite(value) and value > 0.0):
            raise _fault(text, index, f"rref value must be positive, got {parts[1]}")
        if tid in rref:
            raise _fault(text, index, f"repeated rref entry for triangle {tid}")
        rref[tid] = value


def read_mesh(path: str) -> Mesh:
    with open(path, "r", encoding="ascii") as fh:
        return parse_mesh_text(fh.read())


class FileText:
    """The formatted node lines and triangles section of one mesh."""

    __slots__ = ("moved", "node_lines", "triangles")

    def __init__(self, mesh: Mesh) -> None:
        self.moved: set[int] = set()
        self.node_lines = list(map(_node_line, mesh.nodes, mesh._positions))
        self.triangles = f"triangles {len(mesh.triangles)}\n" + "".join(
            f"{tri.id} {tri.nodes[0]} {tri.nodes[1]} {tri.nodes[2]}\n"
            for tri in mesh.triangles)


def _node_line(node: Node, p: Point2) -> str:
    if node.mobility is Mobility.BOUNDARY:
        # a mesh that never went through build_topology has no chain ids;
        # the reader renumbers chains, so any integer will do
        mob = f"B{0 if node.chain_id is None else node.chain_id}"
    else:
        mob = node.mobility.value
    return f"{node.id} {p.x:.17g} {p.y:.17g} {mob}\n"


def _mesh_sections(mesh: Mesh) -> tuple[str, str, str, str]:
    """The file in four consecutive pieces: header, node lines, triangles
    section and rref section."""
    text = mesh._file_text
    if text is None:
        text = mesh._file_text = FileText(mesh)
    nodes, positions = mesh.nodes, mesh._positions
    lines = text.node_lines
    for nid in text.moved:
        lines[nid] = _node_line(nodes[nid], positions[nid])
    text.moved.clear()
    rref = mesh.rref
    rref_section = ""
    if rref:
        rref_section = f"rref {len(rref)}\n" + "".join(
            f"{tid} {rref[tid]:.17g}\n" for tid in sorted(rref))
    return (f"{HEADER}\nnodes {len(nodes)}\n", "".join(lines),
            text.triangles, rref_section)


def mesh_to_text(mesh: Mesh) -> str:
    return "".join(_mesh_sections(mesh))


def write_mesh(mesh: Mesh, path: str) -> None:
    # one write per section, so that no whole-file string is built
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for section in _mesh_sections(mesh):
            fh.write(section)
