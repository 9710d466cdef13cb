"""Distorted strip tilings, incongruent fair partitions of the plane, and
the numerical verification of their invariants.

The package builds a one-parameter family of unit-area triangle tilings of
a strip, stretches and stacks certified sheared copies into vertex-to-vertex
tilings of the plane by pairwise incongruent near-equilateral triangles,
subdivides each triangle into three convex quadrangles of equal area and a
shared constant perimeter, and checks every claimed invariant with explicit
tolerances and margins.
"""

from .assembly import (
    PlaneTiling,
    StripTransform,
    periodic_triangle,
    plane_triangle,
    scale_to_equilateral,
    select_shears,
    stack_plane,
    window,
)
from .congruence import (
    ShearRootSet,
    Signature,
    bad_shear_set,
    congruence_signature,
    congruent,
    equilateral_shear_set,
    halfturn_translate_congruent,
    shear_match_roots,
    signature_distance,
    simeq_distance,
)
from .errors import FairtileError
from .geometry import (
    Point,
    Quadrangle,
    TileId,
    Triangle,
    area,
    edge_vectors,
    perimeter,
    vertical_width,
)
from .quadsplit import (
    FAIR,
    P0,
    FairSplitParams,
    ReconstructionTriple,
    apex,
    fair_split,
    fair_split_jacobian_det,
    newton3,
    quad_vertices,
    quadify_plane,
    reconstruct_triangle,
    reconstruction_jacobian_det,
    solve_fair_split,
    xi_eta,
)
from .strip import (
    DeviationSeries,
    StripTiling,
    critical_tiling,
    deviations,
    strip_tiling,
    triangle_at,
)
from .verify import (
    VerificationReport,
    check_closeness,
    check_contraction,
    check_convex,
    check_equal_area,
    check_equal_perimeter,
    check_halfturn_incongruent,
    check_pairwise_incongruent,
    check_vertex_to_vertex,
)

__version__ = "0.1.0"
