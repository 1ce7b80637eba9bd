"""Exception and warning types shared across the package."""


class MirrorQuinticError(Exception):
    """Base class for all errors raised by this package."""


class CompositeCharacteristic(MirrorQuinticError):
    """A field was requested with a non-prime characteristic."""


class UnsupportedDegree(MirrorQuinticError):
    """Extension degree outside the supported range [1, 4]."""


class TableTooLarge(MirrorQuinticError):
    """A flat lookup table would exceed the size cap."""


class DimensionMismatch(MirrorQuinticError):
    """Variable counts or point arities do not line up."""


class FieldMismatch(MirrorQuinticError):
    """Operands belong to different fields."""


class MissingParameter(MirrorQuinticError):
    """A family constructor was not given a required parameter."""


class RootOfUnityUnavailable(MirrorQuinticError):
    """The field does not contain a root of unity of the required order."""


class ZeroDenominator(MirrorQuinticError):
    """A reparameterization required dividing by zero."""


class InstanceTooLarge(MirrorQuinticError):
    """The instance exceeds the feasibility cap of the chosen algorithm."""


class InvariantViolated(MirrorQuinticError):
    """An exact identity that a correct computation satisfies failed."""


class NotSingular(MirrorQuinticError):
    """Node classification was requested at a smooth point."""


class BadCharacteristic(MirrorQuinticError):
    """The field characteristic is too small for the requested criterion."""


class BadReduction(MirrorQuinticError):
    """Trace formulas are undefined at primes of bad reduction."""


class NonIntegralSolution(MirrorQuinticError):
    """A stratification ledger does not solve in integers."""


class CacheCorrupt(UserWarning):
    """A count-cache line could not be parsed; computation proceeds."""
