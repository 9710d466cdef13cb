"""Exception types shared across the package."""

from __future__ import annotations


class FairtileError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(FairtileError, ValueError):
    """A parameter lies outside its documented domain."""


class DegeneratePolygon(FairtileError):
    """Vertices are collinear, self-intersecting or wrongly oriented."""


class DegenerateTriangle(DegeneratePolygon):
    """Side lengths violate the (strict) triangle inequalities."""


class DenominatorVanished(FairtileError):
    """The strip recursion hit a vanishing denominator.

    Signals a height parameter outside the regime where the construction
    is defined.
    """

    def __init__(self, index: int, value: float):
        super().__init__(f"recursion denominator ~ {value:.3e} at column {index}")
        self.index = index
        self.value = value


class DegeneratePair(FairtileError):
    """Both triangles agree up to translation/half-turn: every shear is bad."""


class NoUnequalHeights(FairtileError):
    """No edge-vector pair with distinct |y| components is available."""


class SingularDenominator(FairtileError):
    """The closed-form interior-point denominator is numerically zero."""


class NonConvexOutput(FairtileError):
    """A produced quadrangle failed the convexity check."""


class NoConvergence(FairtileError):
    """Newton iteration did not reach the residual tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class SingularJacobian(FairtileError):
    """The Newton Jacobian is numerically singular."""


class EdgeOutOfRange(FairtileError):
    """Triangle edge lengths are outside the supported near-unit window."""


class ExhaustedRetries(FairtileError):
    """Rejection sampling failed to certify a parameter within the retry cap."""


class BoundaryMismatch(FairtileError):
    """Stacked strips do not share their boundary vertices."""

    def __init__(self, row: int, deviation: float):
        super().__init__(f"boundary vertices of row {row} deviate by {deviation:.3e}")
        self.row = row
        self.deviation = deviation


class TileFailed(FairtileError):
    """Processing one tile of a window failed; the cause is chained.  The tile
    is named by its report label, "row/col/slot", or "?" without an id."""

    def __init__(self, label: str, cause: FairtileError):
        super().__init__(f"tile {label}: {type(cause).__name__}: {cause}")
        self.label = label


class DocumentError(FairtileError):
    """A tiling document is malformed or of the wrong kind."""
