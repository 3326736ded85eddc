"""Per-loop mesh quality reporting.

A report reads the mesh's per-triangle quality table (``Mesh.quality_table``),
which re-evaluates only the triangles around the nodes moved since its
last read. The positions live in one list on the mesh
(``Mesh._positions``), which only ``Mesh.set_position`` writes; it
records each moved node for the table.

The flagged count is the size of the below-q_min set that the table
keeps by deltas, and min q2 is the minimum over that set when it is not
empty: every triangle outside it scores at least q_min and every one
inside less, so the full pass over q2 runs only when no triangle is
below q_min. Full passes over the triangles remain for the inverted
count (``bytearray.count``), for the mean q2 (``math.fsum``, correctly
rounded, so the same bits on every Python version), and for min q1,
which is formed here so that an edited ``mesh.rref`` or another
``r_ref`` never reads a stale value: without rref overrides it is
``r_ref`` over the largest stored circumradius, otherwise the minimum of
each element's rref over its circumradius. The table's circumradius of a
degenerate or an inverted triangle is +inf, so either way min q1 reads 0
while any triangle is invalid, as min q2 does. The table holds q2 and the
circumradii as lists of floats, so these passes box no value.

``q2_histogram`` counts the table's q2 values in ``HISTOGRAM_BUCKETS``
uniform buckets; ``osmot check`` prints it once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import fsum
from operator import truediv

from .mesh import Mesh
from .quality import HISTOGRAM_BUCKETS, QualityConfig


@dataclass(frozen=True, slots=True)
class QualityReport:
    """Snapshot of mesh quality after a given global loop."""

    loop: int
    min_q2: float
    mean_q2: float
    min_q1: float
    flagged_elements: int
    inverted_elements: int

    def csv_row(self) -> str:
        return (f"{self.loop},{self.min_q2:.12g},{self.mean_q2:.12g},"
                f"{self.min_q1:.12g},{self.flagged_elements},"
                f"{self.inverted_elements}")


CSV_HEADER = "loop,minQ2,meanQ2,minQ1,flagged,inverted"


def quality_report(mesh: Mesh, cfg: QualityConfig, r_ref: float,
                   loop: int) -> QualityReport:
    """Quality after ``loop``; q1 uses each element's rref, else ``r_ref``,
    which must be positive."""
    table = mesh.quality_table()
    q2s = table.q2
    n = len(q2s)
    if not n:
        return QualityReport(loop, 0.0, 0.0, 0.0, 0, 0)
    if mesh.rref:
        rrefs = map(mesh.rref.get, range(n), repeat(r_ref))
        min_q1 = min(map(truediv, rrefs, table.circumradius))
    else:
        # correctly rounded division is monotone, so the smallest
        # r_ref / R is exactly r_ref over the largest R
        min_q1 = r_ref / max(table.circumradius)
    below = table.below(cfg.q_min)
    return QualityReport(
        loop=loop,
        min_q2=min(map(q2s.__getitem__, below)) if below else min(q2s),
        mean_q2=fsum(q2s) / n,
        min_q1=min_q1,
        flagged_elements=len(below),
        inverted_elements=table.inverted.count(1),
    )


def q2_histogram(mesh: Mesh) -> list[int]:
    """Counts of the triangles' q2 in ``HISTOGRAM_BUCKETS`` uniform buckets
    over [0, 1]; q2 = 1 falls in the last."""
    top = HISTOGRAM_BUCKETS - 1
    counts = [0] * HISTOGRAM_BUCKETS
    for q2 in mesh.quality_table().q2:
        counts[min(int(q2 * HISTOGRAM_BUCKETS), top)] += 1
    return counts


def write_report_csv(reports: list[QualityReport], path: str) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in reports]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
