"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input problems and the other errors
here -> 2, declared unsupported cases -> 3, verification failure -> 1,
and an ArithmeticError, a failed internal consistency check, -> 4.
"""


class TableZetaError(Exception):
    """Base class for all package errors."""


class InputError(TableZetaError):
    """Malformed user input (files, parameters)."""


class UnsupportedCaseError(TableZetaError):
    """A case the implementation deliberately refuses (documented limits)."""


class NonCommutative(UnsupportedCaseError):
    pass


class NotMonogenic(UnsupportedCaseError):
    pass


class DegreeTooLarge(UnsupportedCaseError):
    pass


class MaximalityUncertified(UnsupportedCaseError):
    pass


class MissingBadPrime(TableZetaError):
    pass


class DegreeBoundExceeded(TableZetaError):
    """A bad-prime quotient with a nonzero coefficient above the proven
    degree bound D_p; it would disprove the bound."""


class FunctionalEquationFailed(TableZetaError):
    """A count at a Gorenstein bad prime that disagrees with delta_p as the
    functional equation completes it from the counts to depth l."""


class NonIntegralQuotient(TableZetaError):
    pass


class UnsupportedM(UnsupportedCaseError):
    pass


class PrecisionUnstable(TableZetaError):
    pass


class DepthExceeded(TableZetaError):
    pass


class NotFullRank(TableZetaError):
    pass
