"""Exception hierarchy shared by all modules.

Every error raised by this package derives from :class:`KedlayaError`, so
callers can catch one base class.  Most of them also derive from the
matching built-in (``ValueError``/``ArithmeticError``) so generic handling
keeps working.
"""


class KedlayaError(Exception):
    """Base class for all package errors."""


# --- weight vectors ---------------------------------------------------------

class NegativeWeight(KedlayaError, ValueError):
    """A weight entry is negative."""


class NonfiniteWeight(KedlayaError, ValueError):
    """A weight entry is NaN or infinite."""


class AllZero(KedlayaError, ValueError):
    """All weight entries are zero (or the vector is empty)."""


class FirstWeightZero(KedlayaError, ValueError):
    """First weight must be positive for this operation."""


class NonpositiveScale(KedlayaError, ValueError):
    """Weight scaling factor must be positive."""


class LengthMismatch(KedlayaError, ValueError):
    """Sequences that must have equal length do not."""


class Overflow(KedlayaError, ArithmeticError):
    """A size cap was exceeded (e.g. multiset expansion length)."""


class FloatOverflow(KedlayaError, OverflowError):
    """An input value, a weight sum, a weighted entry sum or a deviation
    total is beyond the float range."""


class ZeroDenominator(KedlayaError, ZeroDivisionError):
    """A ``p/q`` literal has ``q = 0``."""


# --- mean evaluation --------------------------------------------------------

class DomainViolation(KedlayaError, ValueError):
    """An entry lies outside the mean's domain."""


class IndexNotZeroWeighted(KedlayaError, ValueError):
    """Elimination check asked to drop an index whose weight is nonzero."""


class SolverFailure(KedlayaError, ArithmeticError):
    """Root bracketing failed; the deviation function is not valid."""


class MaxIterations(KedlayaError, ArithmeticError):
    """The bisection iteration cap was reached before convergence."""


class InvalidGenerator(KedlayaError, ValueError):
    """A generator callback violates its required normalization."""


class InvalidDeviation(KedlayaError, ValueError):
    """A deviation callback failed its sampled validity checks."""


class InverseOutOfRange(KedlayaError, ArithmeticError):
    """A generator inverse produced a value outside the domain."""


class GeneratorOverflow(KedlayaError, OverflowError):
    """A generator value, or their weighted sum, overflows the float range."""


# --- concavity criteria -----------------------------------------------------

class MixedSignSecondDerivative(KedlayaError, ArithmeticError):
    """The second derivative changes sign; the concavity dichotomy fails."""


# --- rational step functions ------------------------------------------------

class ThetaOutOfRange(KedlayaError, ValueError):
    """Proportionality parameter must lie in [0, 1]."""


class WeightsNotInV(KedlayaError, ValueError):
    """The ratio-nonincreasing weight condition fails for this construction."""


class NonpositiveWeight(KedlayaError, ValueError):
    """A strictly positive weight was required."""


# --- inequality checks ------------------------------------------------------

class WeightsInV(KedlayaError, ValueError):
    """Violation search was asked to refute weights that satisfy the
    ratio-nonincreasing condition (no violation can exist)."""


class ZeroScale(KedlayaError, ValueError):
    """Affine conjugation requires a nonzero scale factor."""


# --- random sampling --------------------------------------------------------

class NegativeSeed(KedlayaError, ValueError):
    """A random seed is negative (numpy accepts only nonnegative seeds)."""
