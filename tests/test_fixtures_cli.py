"""Fixture schema, serialization round-trips, and the command-line surface."""

import ast
import csv
import json
import random
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import frozen
from mmideal import (
    build_tuple,
    bundled_names,
    emit_fixture,
    load_fixture,
    parse_fixture,
)
from mmideal.cli import main
from mmideal.errors import NotTree, ParseError, ValidationError
from mmideal.svg import decimal_approx


def _smooth1_data():
    return json.loads(
        resources.files("mmideal").joinpath("fixtures/SMOOTH1.json").read_text()
    )


def _chain10_with_repeated_edge():
    """CHAIN10's fixture text with its first edge listed again, reversed."""
    data = json.loads(
        resources.files("mmideal").joinpath("fixtures/CHAIN10.json").read_text()
    )
    data["adjacency"].append(data["adjacency"][0][::-1])
    return json.dumps(data)


# ---------------------------------------------------------------- fixtures


def test_bundled_names():
    assert bundled_names() == [
        "CHAIN10",
        "NEST14",
        "PROP16",
        "RAT6",
        "SMOOTH1",
    ]


def test_load_unknown_name_lists_bundled():
    with pytest.raises(ParseError) as info:
        load_fixture("NOPE")
    message = str(info.value)
    assert "NOPE" in message and "SMOOTH1" in message


def test_round_trip_is_byte_identical():
    for name in bundled_names():
        raw = (
            resources.files("mmideal")
            .joinpath(f"fixtures/{name}.json")
            .read_text()
        )
        assert emit_fixture(parse_fixture(raw)) == raw
        assert emit_fixture(parse_fixture(emit_fixture(parse_fixture(raw)))) == raw


def test_json_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_fixture('{\n  "name": "X",\n}')
    assert "line 3" in str(info.value)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.update(surprise=1), "unknown keys"),
        (lambda d: d.update(adjacency=[[1, 2]]), "exactly one of"),
        (lambda d: d.pop("matrix"), "exactly one of"),
        (lambda d: d.update(matrix=[[-1], [-2]]), "square"),
        (lambda d: d["expected"].update(surprise=1), "unknown keys"),
        (lambda d: d["expected"].update(nest=[2]), "1-based"),
        (lambda d: d["expected"].update(nest=[0]), "1-based"),
        (lambda d: d["expected"].update(lct=["1/0"]), "zero denominator"),
        (lambda d: d["expected"].update(lct=[2, 3]), "expected 1 entries"),
        (lambda d: d["expected"].update(canonical=["x"]), "malformed rational"),
    ],
)
def test_schema_violations(mutate, fragment):
    data = _smooth1_data()
    mutate(data)
    with pytest.raises(ParseError) as info:
        parse_fixture(json.dumps(data))
    assert fragment in str(info.value)


def test_zero_ideal_rejected_at_build():
    data = _smooth1_data()
    data["ideals"] = [[0]]
    fixture = parse_fixture(json.dumps(data))  # schema-valid
    with pytest.raises(ValidationError):
        build_tuple(fixture)


def test_adjacency_form_round_trip():
    text = json.dumps(
        {
            "name": "PAIR",
            "adjacency": [[1, 2]],
            "canonical": ["1/3", "2/3"],
            "ideals": [[1, 1]],
        }
    )
    fixture = parse_fixture(text)
    assert fixture.matrix is None
    assert fixture.adjacency == ((1, 2),)
    assert fixture.canonical == (Fraction(1, 3), Fraction(2, 3))
    again = parse_fixture(emit_fixture(fixture))
    assert again == fixture


# ---------------------------------------------------------------- decimals


def test_decimal_approx():
    assert decimal_approx(Fraction(1, 3)) == "0.33333333333333333333"
    assert decimal_approx(Fraction(1, 2)) == "0.5"
    assert decimal_approx(Fraction(0)) == "0"
    assert decimal_approx(Fraction(-7, 4)) == "-1.75"
    assert decimal_approx(Fraction(5)) == "5"
    assert (
        decimal_approx(Fraction(1, 10**25))
        == "0.0000000000000000000000001"  # leading zeros are not significant
    )
    assert decimal_approx(Fraction(123456, 1000)) == "123.456"


@pytest.mark.parametrize("value", [0.1, "0.5", True], ids=["float", "str", "bool"])
def test_decimal_approx_takes_ints_and_fractions(value):
    with pytest.raises(ValidationError, match="expected integers or Fractions"):
        decimal_approx(value)
    with pytest.raises(ValidationError, match="significant digits: expected integers"):
        decimal_approx(Fraction(1, 3), value)


def _long_division(value, significant):
    # one digit at a time, counting significant digits as they appear
    sign = "-" if value < 0 else ""
    integer_part, remainder = divmod(abs(value.numerator), value.denominator)
    digits, seen, tail = str(integer_part), len(str(integer_part)), ""
    if integer_part == 0:
        seen = 0
    while remainder and seen < significant:
        digit, remainder = divmod(10 * remainder, value.denominator)
        tail += str(digit)
        seen += 1 if seen or digit else 0
    tail = tail.rstrip("0")
    return sign + digits + ("." + tail if tail else "")


def test_decimal_approx_matches_long_division():
    rng = random.Random(11)
    for _ in range(3000):
        value = Fraction(
            rng.randint(-10 ** rng.randint(1, 30), 10 ** rng.randint(1, 30)),
            rng.randint(1, 10 ** rng.randint(1, 30)),
        )
        for significant in (1, 3, 20):
            assert decimal_approx(value, significant) == _long_division(
                value, significant
            ), value


# ---------------------------------------------------------------- CLI


def test_cli_validate_ok(capsys):
    assert main(["validate", "RAT6"]) == 0
    out = capsys.readouterr().out
    assert "RAT6" in out and "LogCanonicalOnly" in out


def test_cli_exit_codes(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    assert main(["validate", str(bad_json)]) == 1
    assert "parse error" in capsys.readouterr().err

    not_negdef = tmp_path / "posdef.json"
    not_negdef.write_text(
        json.dumps({"name": "BAD", "matrix": [[-1, 1], [1, -1]], "ideals": [[1, 1]]})
    )
    assert main(["validate", str(not_negdef)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_repeated_fixture_edge_is_refused(tmp_path, capsys):
    with pytest.raises(NotTree):
        build_tuple(parse_fixture(_chain10_with_repeated_edge()))
    repeated = tmp_path / "repeated.json"
    repeated.write_text(_chain10_with_repeated_edge())
    assert main(["validate", str(repeated)]) == 2
    # named in the file's 1-based numbering: the file writes (7, 10), then (10, 7)
    assert "edge (10,7) is listed twice" in capsys.readouterr().err


def test_cli_usage_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    assert "error" in capsys.readouterr().err


def test_cli_point(capsys):
    assert main(["point", "RAT6", "--c", "1/12,3/4"]) == 0
    out = capsys.readouterr().out
    assert "D = 5,3,5,2,1,1" in out
    assert "m = 2 (adjunction) = 2 (fractional) = 2 (colength oracle)" in out


def test_cli_point_not_jumping(capsys):
    assert main(["point", "RAT6", "--c", "1/100,1/100"]) == 0
    assert "not a jumping point" in capsys.readouterr().out


def test_cli_ray_csv_round_trip(tmp_path, capsys):
    target = tmp_path / "jumps.csv"
    assert (
        main(["ray", "RAT6", "--base", "0,0", "--dir", "1,1", "--until", "1/2",
              "--csv", str(target)])
        == 0
    )
    capsys.readouterr()
    with target.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["parameter", "c1", "c2", "mult"] + [
        f"D{j}" for j in range(1, 7)
    ]
    assert rows[1] == ["3/20", "3/20", "3/20", "1", "4", "2", "4", "2", "1", "1"]
    assert [Fraction(row[0]) for row in rows[1:]] == [
        Fraction(3, 20),
        Fraction(1, 4),
        Fraction(7, 20),
        Fraction(3, 8),
        Fraction(9, 20),
        Fraction(1, 2),
    ]


def test_cli_walls_csv_and_svg(tmp_path, capsys):
    table = tmp_path / "facets.csv"
    picture = tmp_path / "atlas.svg"
    assert (
        main(["walls", "RAT6", "--box", "1,1", "--csv", str(table),
              "--svg", str(picture)])
        == 0
    )
    out = capsys.readouterr().out
    assert "facets = 37" in out

    with table.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["sources", "x0", "y0", "x1", "y1", "mult", "low", "high"]
    assert len(rows) == 38
    lc_rows = [row for row in rows[1:] if row[7] == "3|2|3|1|1|1"]
    # no facet descends to the fundamental cycle: it is the low side of LC rows
    assert lc_rows == []
    lc_rows = [row for row in rows[1:] if row[6] == "3|2|3|1|1|1"]
    assert len(lc_rows) == frozen.RAT6_LC_FACETS

    svg = picture.read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "1/6" in svg  # exact tick label at the first lct axis point
    assert "3|2|3|1|1|1" not in svg  # titles list divisors with commas
    assert "3,2,3,1,1,1" in svg


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["ray", "RAT6", "--base", "0,0", "--dir", "1,1", "--until", "1/4",
          "--csv"], "mu = 1/4; c = 1/4,1/4; m = 3"),
        (["walls", "RAT6", "--box", "1,1", "--svg"], "facets = 37"),
    ],
    ids=["ray-csv", "walls-svg"],
)
def test_cli_unwritable_output_is_exit_1(argv, printed, tmp_path, capsys):
    target = tmp_path / "missing" / "out"
    assert main(argv + [str(target)]) == 1
    captured = capsys.readouterr()
    assert printed in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("io error: ")
    assert str(target) in lines[0] and "Traceback" not in captured.err


def test_cli_selftest_deterministic(capsys):
    assert main(["selftest"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "selftest passed" in first


def test_cli_selftest_single_fixture(capsys):
    assert main(["selftest", "SMOOTH1"]) == 0
    out = capsys.readouterr().out
    assert "SMOOTH1" in out and "CHAIN10" not in out


def _readme_transcripts() -> dict[tuple[str, ...], str]:
    """Each `$ mmideal ...` command in the README's console blocks, with the
    output shown under it.  The selftest block is left out: its output is
    elided with `...`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    transcripts = {}
    for block in re.findall(r"```console\n(.*?)```", text, re.S):
        if "$ mmideal selftest" in block:
            continue
        parts = re.split(r"^\$ (.*)\n", block, flags=re.M)
        for command, output in zip(parts[1::2], parts[2::2]):
            if command.startswith("mmideal "):
                transcripts[tuple(command.split()[1:])] = output
    return transcripts


def test_readme_python_api():
    """The README's Python API block runs, and every `expr  # value` line whose
    value (up to any " — " remark) is a Python literal shows what expr gives."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(block, namespace)
    compared = 0
    for line in block.splitlines():
        shown = re.fullmatch(r"([^#\s][^#]*?)\s+# (.*)", line)
        if shown is None:
            continue
        expr, value = shown[1], shown[2].split(" — ")[0]
        try:
            value = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            continue
        assert eval(expr, namespace) == value, line
        compared += 1
    assert compared >= 6


# The CLI byte for byte: every README command, and two lc commands on NEST14,
# a three-ideal tuple whose verdict is a bijection.
TRANSCRIPTS = {
    **_readme_transcripts(),
    ("lct", "NEST14"): """\
origin divisor = 0,0,0,0,0,0,0,0,0,0,0,0,0,0
lct axis 1 = 11/24
lct axis 2 = 3/8
lct axis 3 = 12/35
""",
    ("bijection", "NEST14"): """\
verdict = Bijection
nest = E1, E5, E6, E14 (4)
facets = 4
facet 1: carriers E5; sample 3/8,1/12,1/15; m = 1
facet 2: carriers E1; sample 2/9,1/6,2/15; m = 1
facet 3: carriers E14; sample 1/9,1/12,26/105; m = 1
facet 4: carriers E6; sample 1/9,7/24,1/15; m = 1
axis 1: lct = 11/24; contact = E5
axis 2: lct = 3/8; contact = E6
axis 3: lct = 12/35; contact = E14
pairing: E5 -> facet 1; E1 -> facet 2; E14 -> facet 3; E6 -> facet 4
""",
}


# each case's id is its command line, so adding a command renames no other case
@pytest.mark.parametrize("argv", sorted(TRANSCRIPTS), ids=" ".join)
def test_cli_lc_transcripts(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `walls` writes its CSV and SVG here
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out == TRANSCRIPTS[argv]
    assert captured.err == ""
