"""JSON fixture format: named dual-graph data with ideals and expectations.

A fixture supplies the resolution data either as the full integer
intersection matrix or as an edge list plus the exact rational canonical
vector (from which the diagonal is derived).  Exactly one of the two forms
must be present.  Rationals on the wire are JSON integers or lowest-term
"p/q" strings; emission always normalizes.  Component indices in files are
1-based; `Fixture.adjacency` keeps the file's 1-based edge pairs as written.

The optional "expected" block records independently known values (canonical
vector, derived diagonal, fundamental cycle, Newton nest, facet counts,
thresholds, verdicts) that the `selftest` command re-derives and compares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .dualgraph import (
    DualGraph,
    IdealTuple,
    attach_ideals,
    build_graph,
    graph_from_adjacency,
)
from .errors import ParseError, SchemaError
from .rationals import _as_integer, format_rational, parse_rational

# Characters of an unknown fixture name that its error message echoes.
_SHOWN_NAME = 60
_TOP_KEYS = {"name", "matrix", "adjacency", "canonical", "ideals", "expected", "notes"}
_EXPECTED_KEYS = {
    "canonical",
    "diagonal",
    "fundamental_cycle",
    "nest",
    "lc_facets",
    "verdict",
    "degenerate_ratio",
    "lct",
    "singularity",
}


@dataclass(frozen=True)
class Fixture:
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


def _edge(pair, field: str) -> tuple[int, int]:
    """One edge, every check named by *field*: the slow path for a pair
    that is not two distinct positive `int`s."""
    _require(
        isinstance(pair, list) and len(pair) == 2,
        f"{field}: expected a pair of component indices",
    )
    a, b = (_integer(v, field) for v in pair)
    _require(a != b, f"{field}: self-loops are not allowed")
    _require(a >= 1 and b >= 1, f"{field}: component indices are 1-based")
    return a, b


def _rational_vector(value, field: str) -> tuple[Fraction, ...]:
    _require(isinstance(value, list) and value, f"{field}: expected a nonempty list")
    try:
        return tuple(map(parse_rational, value))
    except ParseError:  # read again, to name the first refused entry
        return tuple(_rational(v, f"{field}[{i + 1}]") for i, v in enumerate(value))


def _parse_expected(block, size: int, r: int) -> dict:
    _require(isinstance(block, dict), "expected: must be an object")
    unknown = set(block) - _EXPECTED_KEYS
    _require(not unknown, f"expected: unknown keys {sorted(unknown)}")
    out: dict = {}
    for key, value in block.items():
        field = f"expected.{key}"
        if key in ("canonical", "lct"):
            vector = _rational_vector(value, field)
            if key == "canonical":
                _require(len(vector) == size, f"{field}: expected {size} entries")
            else:
                _require(len(vector) == r, f"{field}: expected {r} entries")
            out[key] = vector
        elif key in ("diagonal", "fundamental_cycle"):
            vector = _int_vector(value, field)
            _require(len(vector) == size, f"{field}: expected {size} entries")
            out[key] = vector
        elif key == "nest":
            vector = _int_vector(value, field)
            _require(
                all(1 <= v <= size for v in vector),
                f"{field}: component indices are 1-based",
            )
            out[key] = vector
        elif key == "lc_facets":
            out[key] = _integer(value, field)
        elif key == "degenerate_ratio":
            out[key] = _rational(value, field)
        else:  # verdict, singularity
            _require(isinstance(value, str), f"{field}: expected a string")
            out[key] = value
    return out


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
        edges = []
        for i, pair in enumerate(raw):
            # a pair of distinct positive `int`s is taken as it is; a path is
            # built, and the endpoints read, for the others only
            if isinstance(pair, list) and len(pair) == 2:
                a, b = pair
                if type(a) is int and type(b) is int and a != b and a >= 1 and b >= 1:
                    edges.append((a, b))
                    continue
            edges.append(_edge(pair, f"adjacency[{i + 1}]"))
        adjacency = tuple(edges)
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
    root = resources.files(__package__) / "fixtures"
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def load_fixture(name_or_path: str) -> Fixture:
    """Load a bundled fixture by name or any fixture file by path."""
    if not isinstance(name_or_path, str):
        raise ParseError(f"a fixture is named by a string, got {name_or_path!r}")
    root = resources.files(__package__) / "fixtures"
    for path in (root / f"{name_or_path}.json", Path(name_or_path)):
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


def build_graph_from_fixture(fixture: Fixture) -> DualGraph:
    if fixture.matrix is not None:
        return build_graph(fixture.matrix)
    return graph_from_adjacency(fixture.adjacency, fixture.canonical)


def build_tuple(fixture: Fixture) -> IdealTuple:
    return attach_ideals(build_graph_from_fixture(fixture), fixture.ideals)
