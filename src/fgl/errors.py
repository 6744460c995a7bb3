"""Exception types shared across the library.

Errors fall into two families: user errors (bad inputs, unsupported group
types, insufficient precision requested) and internal-consistency errors
that signal a bug or a precision choice too small for the computation to
be exact (these are deliberately loud rather than silently wrong).
"""


class FGLError(Exception):
    """Base class for all library errors."""


class SpecMismatch(FGLError):
    """An operand does not fit its ring: another coefficient ring, a wrong
    arity, a missing variable image, or a law parameter out of range."""


class NotAUnit(FGLError):
    """Inversion requested for an element that is not invertible."""


class NotDivisible(FGLError):
    """Exact division by p hit a coefficient that is not a multiple of p."""


class ModeError(FGLError):
    """Operation requires exact (unbounded-integer) coefficients."""


class TruncationTooSmall(FGLError):
    """The requested construction does not fit in the series degree cap."""


class IntegralityFailure(FGLError):
    """A logarithm-built coefficient failed to be p-integral (internal bug)."""


class InternalInconsistency(FGLError):
    """A result broke an invariant that holds by construction (internal bug)."""


class NonNilpotentArgument(FGLError):
    """Series substituted into a formal group law must have zero constant term."""


class NoUnitCoefficient(FGLError):
    """No coefficient is a unit modulo the maximal ideal within the cap."""


class NonConvergence(FGLError):
    """An iteration (division, inversion, kernel chain) failed to stabilize."""


class UnsupportedGroupType(FGLError):
    """Group type outside the supported cyclic/elementary-abelian cases."""


class NonExactDivision(FGLError):
    """A division that must be remainder-free left a nonzero remainder."""


class RelationNotKilled(FGLError):
    """An algebra map failed to send a defining relation to zero."""


class NotAFrobeniusLift(FGLError):
    """psi(g) != g^p mod p for some generator."""


class BaselineMismatch(FGLError):
    """Suite results differ from the committed baseline digests."""
