"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the taxonomy stable.
"""


class DtlabError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(DtlabError, ValueError):
    """Operands describe incompatible variable counts or block counts."""


class GuardExceeded(DtlabError, ValueError):
    """An exact-enumeration size guard was violated."""


class InvalidValue(DtlabError, ValueError):
    """A value falls outside its documented domain (weights, labels, ranges)."""


class UnreachedLeaf(DtlabError, ValueError):
    """A conditional quantity was requested at a zero-mass leaf."""


class UndecidedComparison(DtlabError, RuntimeError):
    """An interval comparison stayed undecided at the maximum precision.

    Raised instead of guessing, never passed on an overlapping interval;
    ExpSum.sign raises it only after doubling its precision up to the ceiling.
    """


class IterationBudget(DtlabError, RuntimeError):
    """An iterative solver hit its iteration cap before converging."""


class KernelFault(DtlabError, RuntimeError):
    """A solver's answer failed its independent re-check: a bug in the
    package, not a fault of its input."""


class BoostFailure(DtlabError, RuntimeError):
    """Committee sampling exhausted its retry cap at the configured seed."""


class Infeasible(DtlabError, ValueError):
    """A requested optimization target cannot be met by any strategy."""
