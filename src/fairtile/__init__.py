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
    scale_to_equilateral,
    select_shears,
    stack_plane,
)
from .congruence import (
    bad_shear_set,
    equilateral_shear_set,
)
from .errors import FairtileError
from .geometry import Tiles
from .quadsplit import (
    P0,
    FairSplitParams,
    apex,
    fair_split,
    newton3,
    quadify_plane,
    solve_fair_split,
    xi_eta,
)
from .strip import (
    StripTiling,
    deviations,
    strip_tiling,
    window_tiles,
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
