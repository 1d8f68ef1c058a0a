"""Shared exception types."""


class BoundExceededError(Exception):
    """A computation left the configured (homological, internal) degree box.

    Raised explicitly so that "zero" is never silently conflated with
    "unknown beyond the truncation bound".
    """


class HomogeneityError(ValueError):
    """An input polynomial or element is not homogeneous."""


class ParityError(ValueError):
    """Variable kind incompatible with its homological degree."""


class NotCycleError(ValueError):
    """Attempted to adjoin a variable whose boundary is not a cycle."""


class AdmissibilityError(ValueError):
    """A fixture or module is outside the domain of the requested check."""


class CertificationError(Exception):
    """A runtime certificate failed: a computed object does not satisfy
    an identity the kernel relies on (d o d = 0, minimality)."""


class ReductionError(ArithmeticError):
    """An object over Q has no reduction mod p, or an object over F_p no
    lift to Q: a denominator divisible by p, a quotient ring whose basis
    changes mod p, or a residue with no small rational preimage."""
