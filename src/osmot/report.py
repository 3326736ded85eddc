"""Per-loop mesh quality reporting."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import triangle_geometry
from .mesh import Mesh
from .quality import QualityConfig, q1_size, q2_shape

HISTOGRAM_BUCKETS = 10


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
    min_q2 = min_q1 = float("inf")
    sum_q2 = 0.0
    flagged = inverted = 0
    buckets = [0] * HISTOGRAM_BUCKETS
    for tri in mesh.triangles:
        geom = triangle_geometry(*mesh.triangle_points(tri))
        q2 = q2_shape(geom)
        q1 = q1_size(geom, mesh.rref.get(tri.id, r_ref))
        sum_q2 += q2
        min_q2 = min(min_q2, q2)
        min_q1 = min(min_q1, q1)
        if q2 < cfg.q_min:
            flagged += 1
        if geom.area_signed <= 0.0:
            inverted += 1
        idx = min(int(q2 * HISTOGRAM_BUCKETS), HISTOGRAM_BUCKETS - 1)
        buckets[idx] += 1
    n = len(mesh.triangles)
    return QualityReport(
        loop=loop,
        min_q2=min_q2 if n else 0.0,
        mean_q2=sum_q2 / n if n else 0.0,
        min_q1=min_q1 if n else 0.0,
        flagged_elements=flagged,
        inverted_elements=inverted,
        histogram=tuple(buckets),
    )


def write_report_csv(reports: list[QualityReport], path: str) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in reports]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
