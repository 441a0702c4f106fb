"""Exact rational codec and the one input contract.

Every number the library reads or writes is an exact rational.  The wire
format is either a JSON integer or a string "p/q" with integer p and nonzero
integer q; emission always normalizes to lowest terms with a positive
denominator and drops "/1".  Strings are parsed only at the edges (the CLI
and the fixture parser).  Every public entry point reads its numbers through
the private helpers below: a rational is an `int` (not `bool`) or a
`Fraction`, an integer an `int` (not `bool`) or a `Fraction` with
denominator 1, a vector a tuple, list or range; anything else raises
`ValidationError`, and a wrong length or an index out of range
`LengthMismatch`.  Callers add their domain rules.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import LengthMismatch, RationalFormatError, ValidationError

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$")


def parse_rational(text: str | int) -> Fraction:
    """Parse an integer or a "p/q" string into a Fraction.

    Raises RationalFormatError for malformed text or a zero denominator.
    """
    if isinstance(text, bool):
        raise RationalFormatError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise RationalFormatError(f"not a rational: {text!r}")
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise RationalFormatError(f"malformed rational literal: {text!r}")
    numerator = int(match.group(1))
    if match.group(2) is None:
        return Fraction(numerator)
    denominator = int(match.group(2))
    if denominator == 0:
        raise RationalFormatError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction | int) -> str:
    """Render a rational in lowest terms, "p/q" or plain "p" for integers."""
    value = _rational(value, "rational")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def over_common_denominator(
    values: tuple[Fraction | int, ...],
) -> tuple[int, tuple[int, ...]]:
    """(N, (N*x_1, ...)): N the lcm of the denominators of the `int` or
    `Fraction` entries, so every N*x_i is an integer."""
    scale = math.lcm(*[x.denominator for x in values])
    return scale, tuple([x.numerator * (scale // x.denominator) for x in values])


def _entries(values, length: int | None, what: str) -> tuple:
    """A caller's tuple, list or range as a tuple, of `length` entries
    unless that is None."""
    if not isinstance(values, (tuple, list, range)):
        raise ValidationError(f"{what}: expected a tuple or list, got {values!r}")
    entries = tuple(values)
    if length is not None and len(entries) != length:
        raise LengthMismatch(f"{what}: expected {length} entries, got {len(entries)}")
    return entries


def _as_integer(value) -> int | None:
    """A library integer as an `int`, else None."""
    if type(value) is int:  # before the slower isinstance test of the Fraction ABC
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else None
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _integer(value, what: str) -> int:
    if (integer := _as_integer(value)) is None:
        raise ValidationError(f"{what}: expected integers, got {value!r}")
    return integer


def _rational(value, what: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ValidationError(f"{what}: expected integers or Fractions, got {value!r}")


def _integer_vector(values, length: int | None, what: str) -> tuple[int, ...]:
    """A tuple of exact `int`s of the right length is returned unchanged,
    after one type test: the library's own divisors, rows and directions
    are such tuples, read about 10k times in one pass of the rays benchmark.
    `bool` is a type of its own, so a tuple holding `True` fails that test
    too.  Any other input is read entry by entry; an `int` entry is taken as
    it is."""
    if (
        type(values) is tuple
        and (length is None or len(values) == length)
        and set(map(type, values)) <= {int}
    ):
        return values
    entries = _entries(values, length, what)
    return tuple([x if type(x) is int else _integer(x, what) for x in entries])


def _rational_vector(values, length: int | None, what: str) -> tuple[Fraction, ...]:
    entries = _entries(values, length, what)
    return tuple([x if type(x) is Fraction else _rational(x, what) for x in entries])


def _index(value, bound: int, what: str) -> int:
    """A 0-based index, refused outside 0..bound-1."""
    if not 0 <= (index := _integer(value, what)) < bound:
        raise LengthMismatch(f"{what} {index} is outside 0..{bound - 1}")
    return index


def parse_point(text: str, length: int | None = None) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals, e.g. "1/12,3/4".

    If *length* is given, the parsed tuple must have exactly that many
    coordinates.
    """
    if not isinstance(text, str):
        raise RationalFormatError(f"not a point: {text!r}")
    if length is not None:
        length = _integer(length, "length")
    parts = [piece.strip() for piece in text.split(",")]
    if parts == [""]:
        raise RationalFormatError("empty point")
    point = tuple(parse_rational(piece) for piece in parts)
    if length is not None and len(point) != length:
        raise RationalFormatError(
            f"expected {length} coordinates, got {len(point)}: {text!r}"
        )
    return point


def format_point(point: tuple[Fraction, ...]) -> str:
    """Inverse of parse_point."""
    return ",".join(map(format_rational, _rational_vector(point, None, "point")))
