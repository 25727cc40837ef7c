"""Error types shared across the toolkit."""


class ReesvalError(Exception):
    pass


class RingMismatchError(ReesvalError):
    """Operands live in different rings or carry different term orders."""


class BudgetExceededError(ReesvalError):
    """A configured step or iteration budget ran out.

    Raised instead of returning a possibly-wrong partial answer.
    """


class NotHomogeneousError(ReesvalError):
    pass


class PreconditionError(ReesvalError):
    """An operation's stated precondition does not hold for the given input."""
