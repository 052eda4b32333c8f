"""Exception types for partition validation, filter construction, transforms
and file ingestion."""


class EwtError(Exception):
    """Base class for every error raised by this package."""


# -- partition validation -----------------------------------------------------

class NotSorted(EwtError):
    """Boundary values are not strictly increasing."""


class ZeroLengthSupport(EwtError):
    """Two boundaries coincide, producing an empty support."""


class MultipleInfinities(EwtError):
    """More than one -inf or more than one +inf boundary."""


class SignIndexViolation(EwtError):
    """Boundary signs are incompatible with the partition mode."""


class VstarMissingSide(EwtError):
    """A zero-free partition needs finite boundaries on both sides of 0."""


class RayWithoutNeighbor(EwtError):
    """A ray support has no adjacent compact support to borrow a width from."""


class DegenerateCenter(EwtError):
    """A support center sits at 0 where a construction requires it nonzero."""


# -- filter families ----------------------------------------------------------

class GammaOutOfRange(EwtError):
    """Transition ratio outside the admissible interval (0, max_gamma)."""


class MeyerRequiresRays(EwtError):
    """The Meyer family needs ray supports on both ends of the partition."""


class BoundaryOutsideGrid(EwtError):
    """A finite boundary falls outside (-pi, pi) and cannot be sampled."""


# -- transforms ---------------------------------------------------------------

class LengthMismatch(EwtError):
    """Signal length differs from the grid the filter bank was sampled on."""


class ShapeMismatch(EwtError):
    """Coefficient rows do not line up with the bank they are combined with."""


class NonPositiveA(EwtError):
    """Tight-frame reconstruction needs a strictly positive frame bound."""


class SingularFrame(EwtError):
    """The squared filter sum drops below the epsilon guard somewhere.

    ``bins`` holds the offending grid bin indices.
    """

    def __init__(self, message, bins=()):
        super().__init__(message)
        self.bins = tuple(int(b) for b in bins)


# -- boundary detection -------------------------------------------------------

class FewerPeaksThanRequested(EwtError):
    """The spectrum does not contain enough local maxima."""


# -- file ingestion -----------------------------------------------------------

class InputFormatError(EwtError):
    """Malformed command line, config, signal or coefficient input (exit code 2 at the CLI)."""
