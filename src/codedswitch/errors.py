"""Exception taxonomy shared across the package.

Every error raised by library code derives from CodedSwitchError so callers
can catch one base type.  Validation errors identify the first violated
invariant of the object being checked.
"""


class CodedSwitchError(Exception):
    """Base class for all library errors."""


class BadParams(CodedSwitchError):
    """Parameters outside an operation's domain (e.g. n > N, kL > N)."""


class ValidationError(CodedSwitchError):
    """An instance, solution or design violates one of its invariants."""


class MalformedFile(CodedSwitchError):
    """An instance, solution, design or chunk file cannot be parsed."""


# -- instance validation ----------------------------------------------------

class CardinalityMismatch(ValidationError):
    """A packet's MU set does not have exactly n members."""


class IndexOutOfRange(ValidationError):
    """An MU index is negative or >= N."""


class DuplicateIndex(ValidationError):
    """An MU set contains a repeated index."""


class NotCyclicArc(ValidationError):
    """A packet tagged cyclic is not n consecutive indices mod N."""


# -- solution validation ----------------------------------------------------

class NotSubset(ValidationError):
    """An assignment uses an MU outside the packet's stored set."""


class WrongCardinality(ValidationError):
    """A non-empty assignment does not have exactly k MUs."""


class Overlap(ValidationError):
    """Two assignments share an MU."""


class RhoMismatch(ValidationError):
    """A declared throughput value disagrees with the assignments."""


# -- conditions / solvers ---------------------------------------------------

class DegenerateL(BadParams):
    """The pairwise bound is undefined for fewer than two packets."""


class TooLarge(CodedSwitchError):
    """Instance exceeds an exhaustive-enumeration cap."""


class WrongParams(CodedSwitchError):
    """A specialised solver was applied outside its parameter domain."""


class UnequalCardinality(BadParams):
    """Set-packing input sets do not all have the same size."""


class BlockNotInDesign(CodedSwitchError):
    """A packet's MU set is not one of the design blocks."""


class ConditionViolated(CodedSwitchError):
    """The pairwise intersection bound fails for a design instance."""


# -- designs ----------------------------------------------------------------

class NotPrime(BadParams):
    """Projective plane order must be prime."""


class EmptyDesign(BadParams):
    """A draw was requested from a design with no blocks."""


class IntersectionTooLarge(ValidationError):
    """Two design blocks intersect in more than t-1 elements."""


class CoverageGap(ValidationError):
    """A t-subset is covered by no block of a Steiner design."""


class CoverageDuplicate(ValidationError):
    """A t-subset is covered by more than one block of a Steiner design."""


# -- ensembles --------------------------------------------------------------

class IncompatibleSolver(WrongParams):
    """The requested solver cannot handle the experiment's policy/params."""


class EmptySamples(BadParams):
    """A statistic was requested over zero samples."""


class UnknownFigure(BadParams):
    """reproduce_figure only knows figures 4 through 8."""


# -- codecs -----------------------------------------------------------------

class BadConfig(BadParams):
    """Codec configuration violates its family's constraints."""


class TooFewChunks(CodedSwitchError):
    """Fewer than k chunks are present; decoding is impossible."""


class NotABurst(CodedSwitchError):
    """The erasure pattern is not a single cyclic burst of length <= n-k."""


class DecodeFailure(CodedSwitchError):
    """A served packet failed to decode; solver/codec contract violation."""
