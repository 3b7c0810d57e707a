"""Exception types shared across the package, and the integer- and
float-argument checks that raise one."""

import operator


class Henon4Error(Exception):
    """Base class for all package errors."""


class DomainError(Henon4Error, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergence(Henon4Error):
    """Adaptive quadrature exhausted its subdivision budget, or a half-line
    tail needs t beyond the float64 range."""


class NonFinite(Henon4Error):
    """An integrand returned a non-finite value at an interior node, or a
    value whose logarithm a report needs is zero or non-finite."""


class Divergent(Henon4Error):
    """The first-round estimates of a half-line integral's dyadic blocks grow
    (or overflow) over 8 consecutive doublings instead of decaying."""


class ThresholdError(Henon4Error, ValueError):
    """A series bound was requested at or above its summability threshold."""


class PreconditionError(DomainError):
    """An operation's stated hypothesis is violated by the input."""


class OptFailure(Henon4Error):
    """Every start of a maximization failed to produce a usable value."""


def as_index(value, name: str, least=None) -> int:
    """`value` as an int, as operator.index takes it but without bool (a JSON
    `true` is no count), and at least `least` when that is given; anything
    else is a DomainError that names the argument."""
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if least is None or index >= least:
                return index
            raise DomainError(f"{name} must be >= {least}")
    raise DomainError(f"{name} must be an integer, got {value!r}")


def as_float(value, name: str) -> float:
    """`value` as a float, as float() takes it but without bool or str (a
    JSON `true` or `"16"` is no number); anything else float() refuses is a
    DomainError that names the argument."""
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{name} must be a number, got {value!r}")
