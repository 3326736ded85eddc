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
re-reading a mesh reproduces the exact same doubles. Reading takes each
section as one slice of the significant lines, validates the mesh
(orientation, manifoldness, mobility consistency, balls that wind once)
and reports the offending file line where one can be attributed; a
file that ends early names the line after its last line. The positions
list read is the mesh's own (``Mesh._positions``). Each position and
triangle is packed with ``tuple.__new__`` (both are
``typing.NamedTuple``), and the whole load runs with the cyclic garbage
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
from itertools import islice

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


def _significant_lines(text: str):
    """(file line number, stripped line) of every line that is neither blank
    nor a comment. Node i is the line at index 2 + i, triangle i at 3 + N + i."""
    return ((line_no, line) for line_no, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and line[0] != "#")


def _file_line(text: str, index: int) -> int:
    """The file line number of the significant line at ``index``."""
    return next(islice(_significant_lines(text), index, None))[0]


_MOBILITY = {"F": Mobility.FIXED, "I": Mobility.INTERNAL}


def _boundary_mobility(token: str, line_no: int) -> Mobility:
    if token.startswith("B"):
        # the chain id must be an integer, but build_topology renumbers chains
        try:
            int(token[1:])
        except ValueError:
            raise ParseError(line_no, f"bad chain id in mobility {token!r}") from None
        return Mobility.BOUNDARY
    raise ParseError(line_no, f"unknown mobility {token!r}")


def _count(line_no: int, line: str, keyword: str) -> int:
    """The count of a ``<keyword> <count>`` section header."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise ParseError(line_no, f"expected '{keyword} <count>', got {line!r}")
    try:
        count = int(parts[1])
    except ValueError:
        count = -1
    if count < 0:
        raise ParseError(line_no, f"bad {keyword} count {parts[1]!r}")
    return count


def _end_of_file(text: str, expect: str) -> ParseError:
    """The error of a file that ends early: it names the line after the
    file's last line."""
    return ParseError(len(text.splitlines()) + 1,
                      f"unexpected end of file, expected {expect}")


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
    lines = _significant_lines(text)

    def next_line(expect: str) -> tuple[int, str]:
        try:
            return next(lines)
        except StopIteration:
            raise _end_of_file(text, expect) from None

    line_no, line = next_line("header")
    if line != HEADER:
        raise ParseError(line_no, f"expected header {HEADER!r}, got {line!r}")

    n_nodes = _count(*next_line("'nodes <count>'"), "nodes")
    mobility, positions = [], []
    for expected, (line_no, line) in enumerate(islice(lines, n_nodes)):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(line_no, f"expected '<id> <x> <y> <mobility>', got {line!r}")
        try:
            nid = int(parts[0])
            x = float(parts[1])
            y = float(parts[2])
        except ValueError:
            raise ParseError(line_no, f"bad node fields in {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(line_no, f"non-finite coordinates in {line!r}")
        mob = _MOBILITY.get(parts[3]) or _boundary_mobility(parts[3], line_no)
        if nid != expected:
            raise ParseError(line_no, f"node ids must be dense, expected {expected}")
        mobility.append(mob)
        # tuple.__new__ packs the record without the named-field
        # constructor's Python-level call, as namedtuple's _make does
        positions.append(tuple.__new__(Point2, (x, y)))
    if len(positions) < n_nodes:
        raise _end_of_file(text, "a node line")

    n_triangles = _count(*next_line("'triangles <count>'"), "triangles")
    triangles: list[Triangle] = []
    for expected, (line_no, line) in enumerate(islice(lines, n_triangles)):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(line_no, f"expected '<id> <n0> <n1> <n2>', got {line!r}")
        try:
            tid, a, b, c = map(int, parts)
        except ValueError:
            raise ParseError(line_no, f"bad triangle fields in {line!r}") from None
        if tid != expected:
            raise ParseError(line_no, f"triangle ids must be dense, expected {expected}")
        triangles.append(tuple.__new__(Triangle, (tid, (a, b, c))))
    if len(triangles) < n_triangles:
        raise _end_of_file(text, "a triangle line")

    rref: dict[int, float] = {}
    trailing = list(lines)
    if trailing:
        line_no, line = trailing[0]
        n_rref = _count(line_no, line, "rref")
        entries = trailing[1:]
        if len(entries) != n_rref:
            raise ParseError(line_no, f"rref section declares {n_rref} entries, found {len(entries)}")
        for line_no, line in entries:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(line_no, f"expected '<triangle_id> <value>', got {line!r}")
            try:
                tid = int(parts[0])
                value = float(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad rref entry {line!r}") from None
            if not 0 <= tid < n_triangles:
                raise ParseError(line_no, f"rref references unknown triangle {tid}")
            if not (math.isfinite(value) and value > 0.0):
                raise ParseError(line_no, f"rref value must be positive, got {parts[1]}")
            if tid in rref:
                raise ParseError(line_no, f"repeated rref entry for triangle {tid}")
            rref[tid] = value

    # no line is kept while the topology is built, the peak of a load; an
    # error that names a triangle or node reads the lines again
    try:
        return build_topology(mobility, positions, triangles, rref)
    except MeshError as err:
        line_no = None
        if err.triangle_id is not None:
            line_no = _file_line(text, 3 + n_nodes + err.triangle_id)
        elif err.node_id is not None:
            line_no = _file_line(text, 2 + err.node_id)
        raise ValidationError(str(err), line_no) from err


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
