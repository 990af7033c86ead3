"""Exception hierarchy. Every error raised by the library derives from CytForgeError."""


class CytForgeError(Exception):
    pass


class MixedFieldError(CytForgeError):
    """Arithmetic or comparison between two distinct quadratic extensions."""


class NoRealRoots(CytForgeError):
    """Quadratic with negative discriminant."""


class DegenerateAllZero(CytForgeError):
    """All three quadratic coefficients are zero."""


class ScalarParseError(CytForgeError, ValueError):
    """Malformed exact-scalar or class text."""


class RankMismatch(CytForgeError):
    """Class length does not match the model rank."""


class NonSymmetricGram(CytForgeError):
    pass


class InvalidPosition(CytForgeError):
    """Blow-up position tag incompatible with the number of points."""


class ZeroClass(CytForgeError):
    pass


class UndeclaredPairing(CytForgeError):
    """Pairing-table model queried outside its declared entries."""


class MissingCurveData(CytForgeError):
    """Custom model without a negative-curve list."""


class MissingAmpleWitness(CytForgeError):
    """Cone check on a model without an ample witness."""


class NullClass(CytForgeError):
    """Trace against a class with vanishing self-intersection."""


class NotPositiveRay(CytForgeError):
    pass


class NotKahler(CytForgeError):
    pass


class InvalidBundle(CytForgeError):
    """Curvature list violates the bundle invariants (odd count or non-integral class)."""


class WrongFiberRank(CytForgeError):
    """Operation requires exactly two curvature classes."""


class HypothesesNotMet(CytForgeError):
    """A topology computation's hypotheses fail; .hypothesis names the first failure."""

    def __init__(self, hypothesis: str, message: str = ""):
        self.hypothesis = hypothesis
        super().__init__(message or hypothesis)


class BoundTooLarge(CytForgeError):
    pass


class InvariantViolation(CytForgeError):
    """An exact check that a verdict rests on failed: a defect in the library,
    never a verdict.  Raised explicitly so it survives ``python -O``."""


class WorkerDied(CytForgeError):
    """A forked search worker ended, by a signal or an exit, without sending
    its chunks back."""


class CorruptRecord(CytForgeError):
    """Unreadable catalog line; .line_number is 1-based."""

    def __init__(self, line_number: int, reason: str = ""):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {reason}" if reason else f"line {line_number}")
