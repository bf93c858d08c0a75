"""Exception hierarchy shared by all modules."""


class CovertqError(Exception):
    """Base class for all library errors.

    ``field``, when set, names the input the error is about (a spec field
    such as ``q_s``), so that a spec loader reports it under that field.
    """

    field: str | None = None


class NotHermitian(CovertqError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSD(CovertqError):
    """Input matrix has a negative eigenvalue beyond tolerance."""


class DimMismatch(CovertqError):
    """Operand dimensions are inconsistent."""


class NotADistribution(CovertqError):
    """Probability table has negative entries or does not sum to one."""


class OrderOutOfRange(CovertqError):
    """Renyi order outside the admissible range."""


class SupportViolation(CovertqError):
    """A required divergence is infinite because of a support mismatch."""


class CsiMismatch(CovertqError):
    """Ensemble state marginal does not reproduce the shared channel-state marginal."""


class SelfCheckFailed(CovertqError):
    """An internal consistency check of a computed result failed."""


class CapExceeded(CovertqError):
    """Requested computation exceeds a configured size cap."""


class CovertInfeasible(CovertqError):
    """No policy (or the given policy) meets the covertness constraint."""


class EmptyFeasibleSet(CovertqError):
    """Optimization grid contains no feasible point."""


class RunParameterError(CovertqError, ValueError):
    """A run parameter is out of its documented range (too few trials, a
    missing Renyi order, an alpha or rate outside its range)."""


class ParseError(CovertqError):
    """Problem spec file is malformed.

    Carries a human-readable location (field path or line number) in args.
    """
