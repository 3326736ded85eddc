"""Per-loop mesh quality reporting.

A report reads the mesh's per-triangle quality table (``Mesh.quality_table``),
which re-evaluates only the triangles around the nodes whose position
object changed since its last read (``moved_nodes``), however the position
was written. It folds the stored values in triangle order: q1 is formed
here from each element's rref (else ``r_ref``) and the stored
circumradius, so an edited ``mesh.rref`` or another ``r_ref`` never reads
a stale value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import repeat
from operator import add, gt, truediv

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
    histogram: tuple[int, ...]  # counts of q2 in 10 uniform buckets over [0, 1]

    def csv_row(self) -> str:
        return (f"{self.loop},{self.min_q2:.12g},{self.mean_q2:.12g},"
                f"{self.min_q1:.12g},{self.flagged_elements},"
                f"{self.inverted_elements}")


CSV_HEADER = "loop,minQ2,meanQ2,minQ1,flagged,inverted"


def quality_report(mesh: Mesh, cfg: QualityConfig, r_ref: float,
                   loop: int) -> QualityReport:
    """Quality after ``loop``; q1 uses each element's rref, else ``r_ref``."""
    table = mesh.quality_table()
    q2s = table.q2
    n = len(q2s)
    if not n:
        return QualityReport(loop, 0.0, 0.0, 0.0, 0, 0, (0,) * HISTOGRAM_BUCKETS)
    rrefs = map(mesh.rref.get, range(n), repeat(r_ref))
    q1s = map(truediv, rrefs, table.circumradius)
    return QualityReport(
        loop=loop,
        min_q2=min(q2s),
        # a left-to-right float sum, as sum() compensates from Python 3.12
        mean_q2=reduce(add, q2s, 0.0) / n,
        min_q1=min(q1s),
        flagged_elements=sum(map(partial(gt, cfg.q_min), q2s)),
        inverted_elements=table.inverted.count(1),
        histogram=tuple(map(table.bucket.count, range(HISTOGRAM_BUCKETS))),
    )


def write_report_csv(reports: list[QualityReport], path: str) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in reports]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
