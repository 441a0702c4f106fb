"""JSON fixture format: named dual-graph data with ideals and expectations.

A fixture supplies the resolution data either as the full integer
intersection matrix or as an edge list plus the exact rational canonical
vector (from which the diagonal is derived).  Exactly one of the two forms
must be present.  Rationals on the wire are JSON integers or lowest-term
"p/q" strings; emission always normalizes.  Component indices in files are
1-based; `Fixture.adjacency` keeps the file's 1-based edge pairs as written.

The optional "expected" block records independently known values: the
canonical vector, diagonal, fundamental cycle, Newton nest, facet count of
the log-canonical wall, verdict, degenerate ratio, thresholds and
singularity class.  `_EXPECTED_READERS` holds its keys, each with the one
reader that checks it; the `selftest` command re-derives the same keys.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .dualgraph import IdealTuple, attach_ideals, build_graph, graph_from_adjacency
from .errors import ParseError, SchemaError
from .rationals import _as_integer, format_rational, parse_rational

# The bundled fixtures, shipped as files beside this module.
_BUNDLED = Path(__file__).parent / "fixtures"
# Characters of an unknown fixture name that its error message echoes.
_SHOWN_NAME = 60
_TOP_KEYS = {"name", "matrix", "adjacency", "canonical", "ideals", "expected", "notes"}


class Fixture(NamedTuple):
    name: str
    matrix: tuple[tuple[int, ...], ...] | None
    adjacency: tuple[tuple[int, int], ...] | None  # 1-based, as in the file
    canonical: tuple[Fraction, ...] | None
    ideals: tuple[tuple[int, ...], ...]
    expected: dict | None = None
    notes: str | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _integer(value, field: str) -> int:
    if (integer := _as_integer(value)) is None:  # JSON has ints, no Fractions
        raise SchemaError(f"{field}: expected an integer, got {value!r}")
    return integer


def _rational(value, field: str) -> Fraction:
    try:
        return parse_rational(value)
    except ParseError as error:
        raise type(error)(f"{field}: {error}") from None


def _int_vector(value, field: str) -> tuple[int, ...]:
    _require(isinstance(value, list) and value, f"{field}: expected a nonempty list")
    if set(map(type, value)) <= {int}:  # one type test for a list of `int`s
        return tuple(value)
    # a path is built, and an entry read, for the other lists only
    return tuple(
        v if type(v) is int else _integer(v, f"{field}[{i + 1}]")
        for i, v in enumerate(value)
    )


def _edge(pair, index: int) -> tuple[int, int]:
    """Adjacency entry *index* (1-based): a pair of distinct positive `int`s
    as it is; a field name is built, and each endpoint read, for the rest."""
    if isinstance(pair, list) and len(pair) == 2:
        a, b = pair
        if type(a) is int and type(b) is int and a != b and a >= 1 and b >= 1:
            return a, b
        field = f"adjacency[{index}]"
        a, b = (_integer(v, field) for v in pair)
        _require(a != b, f"{field}: self-loops are not allowed")
        _require(a >= 1 and b >= 1, f"{field}: component indices are 1-based")
        return a, b
    raise SchemaError(f"adjacency[{index}]: expected a pair of component indices")


def _rational_vector(value, field: str) -> tuple[Fraction, ...]:
    _require(isinstance(value, list) and value, f"{field}: expected a nonempty list")
    try:
        return tuple(map(parse_rational, value))
    except ParseError:  # read again, to name the first refused entry
        return tuple(_rational(v, f"{field}[{i + 1}]") for i, v in enumerate(value))


def _sized(vector: tuple, count: int, field: str) -> tuple:
    _require(len(vector) == count, f"{field}: expected {count} entries")
    return vector


def _indices(vector: tuple[int, ...], size: int, field: str) -> tuple[int, ...]:
    _require(
        all(1 <= v <= size for v in vector), f"{field}: component indices are 1-based"
    )
    return vector


def _string(value, field: str) -> str:
    _require(isinstance(value, str), f"{field}: expected a string")
    return value


# The keys an "expected" block may hold, each with its reader: (value, field
# name, component count, ideal count) -> the checked value.
_EXPECTED_READERS = {
    "canonical": lambda v, f, size, r: _sized(_rational_vector(v, f), size, f),
    "diagonal": lambda v, f, size, r: _sized(_int_vector(v, f), size, f),
    "fundamental_cycle": lambda v, f, size, r: _sized(_int_vector(v, f), size, f),
    "nest": lambda v, f, size, r: _indices(_int_vector(v, f), size, f),
    "lc_facets": lambda v, f, size, r: _integer(v, f),
    "verdict": lambda v, f, size, r: _string(v, f),
    "degenerate_ratio": lambda v, f, size, r: _rational(v, f),
    "lct": lambda v, f, size, r: _sized(_rational_vector(v, f), r, f),
    "singularity": lambda v, f, size, r: _string(v, f),
}


def _parse_expected(block, size: int, r: int) -> dict:
    _require(isinstance(block, dict), "expected: must be an object")
    unknown = block.keys() - _EXPECTED_READERS.keys()
    _require(not unknown, f"expected: unknown keys {sorted(unknown)}")
    return {
        key: _EXPECTED_READERS[key](value, f"expected.{key}", size, r)
        for key, value in block.items()
    }


def parse_fixture(text: str) -> Fixture:
    if not isinstance(text, str):
        raise ParseError(f"fixture text must be a string, got {text!r}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ParseError(
            f"invalid JSON at line {error.lineno}, column {error.colno}: "
            f"{error.msg}"
        ) from None
    _require(isinstance(data, dict), "top level: expected an object")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, f"top level: unknown keys {sorted(unknown)}")
    _require(isinstance(data.get("name"), str) and data["name"], "name: required")

    has_matrix = "matrix" in data
    has_graph = "adjacency" in data or "canonical" in data
    _require(
        has_matrix != has_graph,
        "exactly one of matrix / {adjacency, canonical} must be present",
    )

    matrix = None
    adjacency = None
    canonical = None
    if has_matrix:
        raw = data["matrix"]
        _require(isinstance(raw, list) and raw, "matrix: expected a nonempty list")
        matrix = tuple(_int_vector(row, f"matrix[{i + 1}]") for i, row in enumerate(raw))
        size = len(matrix)
        _require(
            all(len(row) == size for row in matrix),
            "matrix: must be square",
        )
    else:
        _require(
            "adjacency" in data and "canonical" in data,
            "adjacency and canonical must be given together",
        )
        raw = data["adjacency"]
        _require(isinstance(raw, list) and raw, "adjacency: expected a nonempty list")
        adjacency = tuple(_edge(pair, i + 1) for i, pair in enumerate(raw))
        canonical = _rational_vector(data["canonical"], "canonical")
        size = len(canonical)
        _require(
            all(a <= size and b <= size for a, b in adjacency),
            f"adjacency: component index beyond {size}",
        )

    _require(
        isinstance(data.get("ideals"), list) and data["ideals"],
        "ideals: at least one ideal is required",
    )
    ideals = tuple(
        _int_vector(vector, f"ideals[{i + 1}]")
        for i, vector in enumerate(data["ideals"])
    )
    _require(
        all(len(vector) == size for vector in ideals),
        f"ideals: every vector needs {size} entries",
    )

    expected = None
    if "expected" in data:
        expected = _parse_expected(data["expected"], size, len(ideals))
    notes = data.get("notes")
    if notes is not None:
        _require(isinstance(notes, str), "notes: expected a string")

    return Fixture(
        name=data["name"],
        matrix=matrix,
        adjacency=adjacency,
        canonical=canonical,
        ideals=ideals,
        expected=expected,
        notes=notes,
    )


def _encode_rational(value: Fraction):
    return value.numerator if value.denominator == 1 else format_rational(value)


def _encode_json(value, indent: int) -> str:
    """JSON with two-space indentation where arrays of scalars stay on one
    line; this is the canonical layout of the bundled fixture files."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = ",\n".join(
            f"{inner}{json.dumps(key)}: {_encode_json(item, indent + 2)}"
            for key, item in value.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if any(isinstance(item, (dict, list)) for item in value):
            rows = ",\n".join(
                f"{inner}{_encode_json(item, indent + 2)}" for item in value
            )
            return "[\n" + rows + "\n" + pad + "]"
        return json.dumps(value)
    return json.dumps(value)


def emit_fixture(fixture: Fixture) -> str:
    """Canonical JSON text (normalized rationals, fixed key order)."""
    data: dict = {"name": fixture.name}
    if fixture.matrix is not None:
        data["matrix"] = [list(row) for row in fixture.matrix]
    else:
        data["adjacency"] = [list(pair) for pair in fixture.adjacency]
        data["canonical"] = [_encode_rational(k) for k in fixture.canonical]
    data["ideals"] = [list(vector) for vector in fixture.ideals]
    if fixture.expected is not None:
        block = {}
        for key in sorted(fixture.expected):
            value = fixture.expected[key]
            if isinstance(value, Fraction):
                block[key] = _encode_rational(value)
            elif isinstance(value, tuple):
                block[key] = [
                    _encode_rational(v) if isinstance(v, Fraction) else v
                    for v in value
                ]
            else:
                block[key] = value
        data["expected"] = block
    if fixture.notes is not None:
        data["notes"] = fixture.notes
    return _encode_json(data, 0) + "\n"


def bundled_names() -> list[str]:
    return sorted(
        entry.name[: -len(".json")]
        for entry in _BUNDLED.iterdir()
        if entry.name.endswith(".json")
    )


def load_fixture(name_or_path: str) -> Fixture:
    """Load a bundled fixture by name or any fixture file by path."""
    if not isinstance(name_or_path, str):
        raise ParseError(f"a fixture is named by a string, got {name_or_path!r}")
    for path in (_BUNDLED / f"{name_or_path}.json", Path(name_or_path)):
        try:
            found = path.is_file()
        except OSError:  # a name the system cannot look up, too long say
            found = False
        if found:
            return parse_fixture(path.read_text(encoding="utf-8"))
    shown = repr(name_or_path[:_SHOWN_NAME])
    if len(name_or_path) > _SHOWN_NAME:
        shown += f"... ({len(name_or_path)} characters)"
    raise ParseError(
        f"no fixture named {shown}; bundled fixtures: {', '.join(bundled_names())}"
    )


def build_tuple(fixture: Fixture) -> IdealTuple:
    """The fixture's graph, from whichever form it gives, with its ideals."""
    if fixture.matrix is not None:
        graph = build_graph(fixture.matrix)
    else:
        graph = graph_from_adjacency(fixture.adjacency, fixture.canonical)
    return attach_ideals(graph, fixture.ideals)
