"""Optimization-based smoothing of planar triangle meshes."""

from .boundary import (
    BoundaryTriple,
    CoincidentNeighborsError,
    boundary_quality,
    guard_boundary_move,
    shape_functions,
    smooth_boundary_node,
)
from .driver import (
    RunReport,
    SmootherConfig,
    SmootherKind,
    laplacian_baseline_step,
    smooth,
)
from .fixtures import FixtureKind, freeze_boundary, generate_fixture
from .geometry import (
    Point2,
    TriangleGeometry,
    edge_lengths,
    signed_area,
    triangle_geometry,
)
from .mesh import (
    Ball,
    BoundaryChain,
    InconsistentMobilityError,
    InvertedElementError,
    Mesh,
    MeshError,
    Mobility,
    Node,
    NonManifoldError,
    NotBoundaryError,
    OrphanNodeError,
    TangledBallError,
    Triangle,
    boundary_neighbors,
    build_topology,
    flag_nodes,
)
from .meshio import ParseError, ValidationError, read_mesh, write_mesh
from .newton import (
    DegenerateStartError,
    LocalStepTrace,
    armijo_accept,
    descent_direction,
    optimize_ball,
)
from .objective import (
    DegenerateElementError,
    ObjectiveOverflowError,
    ObjectiveParams,
    ball_grad_hess,
    ball_objective,
    element_grad_hess,
    element_objective,
)
from .quality import QualityConfig, q1_size, q2_shape, size_radius
from .report import QualityReport, q2_histogram, quality_report, write_report_csv
from .svgout import ColorBy, render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
