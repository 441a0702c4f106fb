"""Exception hierarchy for the mmideal library.

Two broad families:

* :class:`ValidationError` — the input data is inadmissible: a number that
  is not an ``int`` or ``Fraction`` (floats, bools, strings, None), a
  non-integer where an integer is needed, or mathematically bad data (bad
  matrix, non-antinef ideal divisor, negative point, ...); a wrong length
  or an index out of range is a :class:`LengthMismatch`.  These are
  expected, user-facing failures; the CLI maps them to exit code 2.
* :class:`InternalConsistencyError` — two independent computation routes that
  must agree exactly have disagreed, or a value the theory guarantees (an
  inequality, an integral total) failed.  This is never expected on any
  input; the CLI maps it to exit code 3.

Parse-level problems with fixture files or CLI arguments raise
:class:`ParseError` / :class:`SchemaError` / :class:`RationalFormatError`
(exit code 1 when raised while reading user input).

:class:`_Frozen` is the base of the records that cache per instance: it
refuses assignment and deletion with ``AttributeError``.  :class:`_lazy` is
the one way such a record computes an attribute on first read.
"""

from __future__ import annotations


class MmidealError(Exception):
    """Base class for every library-specific exception."""


# ---------------------------------------------------------------------------
# Validation errors (exit code 2): inadmissible mathematical input.
# ---------------------------------------------------------------------------


class ValidationError(MmidealError):
    """The input data fails a mathematical admissibility check."""


class NotSymmetric(ValidationError):
    """Intersection matrix is not symmetric."""


class BadOffDiagonal(ValidationError):
    """Off-diagonal intersection numbers must be 0 or 1."""


class NonIntegralSelfIntersection(ValidationError):
    """A reconstructed self-intersection number is not a negative integer."""


class NotNegativeDefinite(ValidationError):
    """Intersection matrix is not negative definite."""


class Disconnected(ValidationError):
    """The dual graph is not connected."""


class NotTree(ValidationError):
    """The dual graph contains a cycle."""


class NotRational(ValidationError):
    """The dual graph is not that of a rational singularity: Artin's
    arithmetic genus p_a(Z) of the fundamental cycle is not 0."""


class DivisionByZero(ValidationError):
    """A self-intersection cannot be derived from the canonical divisor
    because some k_j = -1 (see ``derive_diagonal``)."""


class NotAntinef(ValidationError):
    """A divisor required to be antinef has a positive intersection product."""


class LengthMismatch(ValidationError):
    """A vector has the wrong length (components, ideals, box sides, ...) or
    an index lies outside its range."""


class NotAJumpingPoint(ValidationError):
    """The operation is only defined at jumping points."""


class BindingNonRuptureConstraint(ValidationError):
    """A region constraint that genuinely cuts belongs to a component that is
    neither a rupture nor a dicritical divisor.  Reported, never raised
    mid-computation."""


class OffsetTooLarge(ValidationError):
    """The parallel ray strays outside the ball in which the perturbation-sum
    identity is guaranteed: a foreign wall line crosses it between the first
    and last relevant crossing."""


class NoCleanSample(ValidationError):
    """No weighting of a facet's vertices tried gave a relative-interior
    sample off every foreign wall: a failed search, not a disagreement."""


class HorizonTooSmall(ValidationError):
    """New residue classes of jumping points are still appearing at the walk
    horizon, so the closed-form series cannot be anchored yet."""


class BoxTooSmall(ValidationError):
    """The requested atlas box does not contain the feature being asked about."""


# ---------------------------------------------------------------------------
# Parse errors (exit code 1): malformed files or CLI arguments.
# ---------------------------------------------------------------------------


class ParseError(MmidealError):
    """Input text could not be parsed."""


class SchemaError(ParseError):
    """A fixture document does not match the fixture schema."""


class RationalFormatError(ParseError):
    """A rational literal is malformed (bad syntax or zero denominator)."""


# ---------------------------------------------------------------------------
# Internal consistency (exit code 3): independent routes disagreed.
# ---------------------------------------------------------------------------


class InternalConsistencyError(MmidealError):
    """Two independent computations that must agree exactly did not.

    Raising this indicates a bug in the library, never bad user input.
    """


class NonIntegralTotal(InternalConsistencyError):
    """A total that the theory makes a nonnegative integer came out wrong: a
    colength that is fractional, negative or zero off the zero divisor, or a
    fractional-form multiplicity that is not an integer."""


class InequalityViolated(InternalConsistencyError):
    """A divisor inequality guaranteed by the theory failed."""


# ---------------------------------------------------------------------------
# Immutable records that cache per instance.
# ---------------------------------------------------------------------------


class _Frozen:
    """Base of a record whose ``__init__`` fills its ``__dict__`` once:
    assigning or deleting an attribute raises ``AttributeError``, while a
    `_lazy` attribute still stores its value into ``__dict__`` on first
    read.  ``repr`` shows the attributes named in ``_shown``, in constructor
    order."""

    __slots__ = ()
    _shown: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


class _lazy:
    """An attribute of a `_Frozen` record computed on first read and stored
    in the instance ``__dict__`` under the name it is bound to, where later
    reads find it without a call.

    It is what `functools.cached_property` does without the lock that
    Python 3.11 takes on every first read; two threads may both compute a
    value, and they store the same one.  The store bypasses the record's
    refusing ``__setattr__``, so assigning the attribute still raises
    `AttributeError`.  A computation that raises stores nothing.
    """

    def __init__(self, func) -> None:
        self._func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self._func(instance)
        instance.__dict__[self.name] = value
        return value
