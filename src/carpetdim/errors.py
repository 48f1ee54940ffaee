"""Error taxonomy shared by the whole package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and obvious: bad input data, violated runtime preconditions, exhausted
resource budgets.
"""

__all__ = [
    "CarpetDimError",
    "SpecError",
    "PreconditionError",
    "NonMixingError",
    "NotFullShiftError",
    "ResourceError",
]


class CarpetDimError(Exception):
    """Base class for all package errors."""


class SpecError(CarpetDimError):
    """Malformed input: bad matrices, bad letter maps, bad spec files."""


class PreconditionError(CarpetDimError):
    """An operation was called outside its stated domain."""


class NonMixingError(PreconditionError):
    """The source shift is not topologically mixing.

    Pressure lower bounds and Gibbs diagnostics are unsound without a
    mixing power of the transition matrix, so they refuse to run.
    """


class NotFullShiftError(PreconditionError):
    """The closed-form dimension formula needs an unrestricted shift."""


class ResourceError(CarpetDimError):
    """A configured node or pixel budget was exhausted, or a Perron
    root lies past the float range (never silently)."""
