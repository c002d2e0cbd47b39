"""Exception hierarchy.

Validation failures (bad input data) and numerical failures (a computation
that cannot be completed) are kept on separate branches so the CLI can map
them to distinct exit codes.
"""


class TricolError(Exception):
    """Base class for all library errors."""


class ValidationError(TricolError):
    """The input data violates a structural condition."""


class NonPositiveB0d(ValidationError):
    """b^d_0 must be strictly positive."""


class NegativeRate(ValidationError):
    """A rate entry is negative."""


class NonFiniteRate(ValidationError):
    """A rate entry is NaN or infinite."""


class ZeroRowWeight(ValidationError):
    """A diagonal weight b^w_i vanishes for i >= 1."""


class BadFinalRow(ValidationError):
    """Finite matrix whose final row does not sum to zero."""


class ShapeMismatch(ValidationError):
    """Input does not have the required shape: an absorbing birth-and-death
    chain, a band + column-0 generator, or equal-length eigenvalue lists."""


class BandProductNonpositive(ValidationError):
    """A sub/super diagonal product is not strictly positive."""


class OutOfRange(TricolError, IndexError):
    """Index outside the matrix extent."""


class InfiniteExtent(TricolError):
    """Operation defined for finite matrices only."""


class NumericalError(TricolError):
    """A numerical procedure could not produce a trustworthy result."""


class ZeroDenominator(NumericalError):
    """A denominator in the gamma system vanished; never regularized."""


class NoConvergence(NumericalError):
    """Adaptive truncation failed to stabilize within the maximum level."""


class ShiftUnresolvable(NumericalError):
    """An entry is underdetermined under the zero-rate shift procedure."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"entry underdetermined at index {index}")


class SingularMatrix(NumericalError):
    """Dense factorization hit a zero pivot."""


class DegenerateRates(ValidationError):
    """Homogeneous closed forms need bd > 0 and bu > 0; use the general path."""


class ZeroDiscriminant(NumericalError):
    """The discriminant (b^w)^2 - 4 b^u b^d vanishes."""


class IterationStall(NumericalError):
    """Inverse iteration failed to converge for an eigenvector."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"inverse iteration stalled at eigenvalue {index}")


class ResonantAlpha(NumericalError):
    """A rank-one update scalar coincides with a forbidden resonance."""


class NoRootFound(NumericalError):
    """The companion solve produced no usable root."""


class IllConditionedBasis(NumericalError):
    """Eigenbasis expansion residual above tolerance."""


class NotNormalizable(NumericalError):
    """Stationary vector has zero total mass."""


class ZeroScalarA(NumericalError):
    """The Sherman-Morrison scalar a = 1 - delta W^-1 u vanishes."""


class NoConvergenceQR(NumericalError):
    """The dense eigenvalue oracle did not converge."""
