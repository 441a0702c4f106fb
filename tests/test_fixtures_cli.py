"""Fixture schema, serialization round-trips, and the command-line surface."""

import ast
import csv
import hashlib
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import frozen
from conftest import record_calls
from mmideal import (
    build_tuple,
    bundled_names,
    emit_fixture,
    load_fixture,
    parse_fixture,
)
from mmideal import cli, fixtures
from mmideal.cli import main
from mmideal.errors import NotTree, ParseError, ValidationError
from mmideal.svg import _decimal

SOURCE = Path(__file__).resolve().parents[1] / "src"
# SHA-256 of the files written by `ray RAT6 --base 0,0 --dir 1,1 --until 1/2
# --csv` and `walls RAT6 --box 1,1 --csv --svg`: every byte is pinned, not
# just the rows the tests read back
WRITTEN = {
    "jumps.csv": "b66456f39d5042e5b148c6e4252c36d332aa3ccc0e322ceaaf62ee1f4c0829fc",
    "facets.csv": "cc0f2529163de28bd56cf08f3987c29aee67cfaed1164866bcb1443e745cd32a",
    "atlas.svg": "7fa5540fe851103bf6334558570326fd427a49a422456df889d2c70dff3221a6",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fixture_data(name):
    return json.loads(
        resources.files("mmideal").joinpath(f"fixtures/{name}.json").read_text()
    )


def _chain10_with_repeated_edge():
    """CHAIN10's fixture text with its first edge listed again, reversed."""
    data = _fixture_data("CHAIN10")
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


def test_load_name_too_long_to_look_up():
    # the system refuses to look such a name up; that names no fixture
    with pytest.raises(ParseError, match="no fixture named"):
        load_fixture("x" * 5000)


def test_load_read_failure_stays_an_os_error(tmp_path, monkeypatch):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_fixture_data("SMOOTH1")))
    assert load_fixture(str(path)) == load_fixture("SMOOTH1")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    with pytest.raises(PermissionError):
        load_fixture(str(path))


def test_importing_the_cli_leaves_importlib_resources_out():
    """The bundled fixtures are read from the directory beside
    ``fixtures.py``; a fresh interpreter without ``site`` imports no
    ``importlib.resources`` for them."""
    script = (
        "import sys; import mmideal.cli; "
        "print('importlib.resources' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={"PYTHONPATH": str(SOURCE), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


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
        (
            lambda d: d["expected"].update(canonical=[1, "1/0"]),
            "expected.canonical[2]: zero denominator: '1/0'",
        ),
    ],
)
def test_schema_violations(mutate, fragment):
    data = _fixture_data("SMOOTH1")
    mutate(data)
    with pytest.raises(ParseError) as info:
        parse_fixture(json.dumps(data))
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "field, row, column, value, message",
    [
        ("matrix", 2, 2, 1.5, "matrix[2][2]: expected an integer, got 1.5"),
        ("ideals", 1, 2, "a", "ideals[1][2]: expected an integer, got 'a'"),
        ("ideals", 2, 6, True, "ideals[2][6]: expected an integer, got True"),
    ],
)
def test_refused_vector_entry_is_named_by_its_path(field, row, column, value, message):
    data = _fixture_data("RAT6")
    data[field][row - 1][column - 1] = value
    with pytest.raises(ParseError) as info:
        parse_fixture(json.dumps(data))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, message",
    [
        ([], "row: expected a nonempty list"),
        ((1, 2), "row: expected a nonempty list"),
        ([1, 2.0, 3], "row[2]: expected an integer, got 2.0"),
        ([1, 2, True], "row[3]: expected an integer, got True"),
    ],
)
def test_int_vector_refusals_after_the_type_test(value, message):
    with pytest.raises(ParseError) as info:
        fixtures._int_vector(value, "row")
    assert str(info.value) == message


def test_parsed_rows_reach_the_graph_unchanged():
    # a list of exact ints passes one type test in the parser, and the tuple
    # it becomes passes one in build_graph, which keeps it
    assert fixtures._int_vector([-2, 1, 0], "row") == (-2, 1, 0)
    fixture = parse_fixture(json.dumps(_fixture_data("RAT6")))
    graph = build_tuple(fixture).graph
    assert all(a is b for a, b in zip(graph.matrix, fixture.matrix))


@pytest.mark.parametrize(
    "pair, message",
    [
        ([1, 2, 3], "adjacency[4]: expected a pair of component indices"),
        (7, "adjacency[4]: expected a pair of component indices"),
        ([6, 2.5], "adjacency[4]: expected an integer, got 2.5"),
        ([True, 6], "adjacency[4]: expected an integer, got True"),
        ([8, 8], "adjacency[4]: self-loops are not allowed"),
        ([0, 6], "adjacency[4]: component indices are 1-based"),
        ([6, 11], "adjacency: component index beyond 10"),
    ],
)
def test_refused_adjacency_pair_is_named(pair, message):
    data = _fixture_data("CHAIN10")
    data["adjacency"][3] = pair
    with pytest.raises(ParseError) as info:
        parse_fixture(json.dumps(data))
    assert str(info.value) == message


def _excesses(name):
    """The built tuple's nonzero excesses, keyed (ideal, component) 1-based."""
    ideals = build_tuple(load_fixture(name))
    return {
        (i + 1, j + 1): excess
        for i, row in enumerate(ideals.excesses)
        for j, excess in enumerate(row)
        if excess
    }


@pytest.mark.parametrize(
    "literal, read",
    [
        pytest.param(frozen.CHAIN10_F1, lambda: load_fixture("CHAIN10").ideals[0], id="CHAIN10_F1"),
        pytest.param(frozen.CHAIN10_F2, lambda: load_fixture("CHAIN10").ideals[1], id="CHAIN10_F2"),
        pytest.param(frozen.CHAIN10_EXCESSES, lambda: _excesses("CHAIN10"), id="CHAIN10_EXCESSES"),
        pytest.param(frozen.RAT6_MATRIX, lambda: load_fixture("RAT6").matrix, id="RAT6_MATRIX"),
        pytest.param(
            frozen.NEST14_CANONICAL, lambda: load_fixture("NEST14").canonical, id="NEST14_CANONICAL"
        ),
        pytest.param(frozen.NEST14_EXCESSES, lambda: _excesses("NEST14"), id="NEST14_EXCESSES"),
        pytest.param(frozen.PROP16_EDGES, lambda: load_fixture("PROP16").adjacency, id="PROP16_EDGES"),
        pytest.param(
            frozen.PROP16_CANONICAL, lambda: load_fixture("PROP16").canonical, id="PROP16_CANONICAL"
        ),
        pytest.param(frozen.PROP16_F2, lambda: load_fixture("PROP16").ideals[1], id="PROP16_F2"),
    ],
)
def test_frozen_literal_matches_the_bundled_fixture(literal, read):
    assert read() == literal


def test_every_frozen_literal_is_read_by_a_test_module():
    source = Path(frozen.__file__)
    defined = {
        target.id
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    read = {
        node.attr
        for path in source.parent.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "frozen"
    }
    assert defined and sorted(defined - read) == []


def test_zero_ideal_rejected_at_build():
    data = _fixture_data("SMOOTH1")
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


def _approx(value, significant=20):
    return _decimal(value.numerator, value.denominator, significant)


def test_decimal_approx():
    assert _approx(Fraction(1, 3)) == "0.33333333333333333333"
    assert _approx(Fraction(1, 2)) == "0.5"
    assert _approx(Fraction(0)) == "0"
    assert _approx(Fraction(-7, 4)) == "-1.75"
    assert _approx(Fraction(5)) == "5"
    assert (
        _approx(Fraction(1, 10**25))
        == "0.0000000000000000000000001"  # leading zeros are not significant
    )
    assert _approx(Fraction(123456, 1000)) == "123.456"
    # a numerator and denominator in other terms give the same digits
    assert _decimal(2, 6) == _approx(Fraction(1, 3))


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
            assert _approx(value, significant) == _long_division(
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


def test_cli_name_too_long_is_a_parse_error(capsys):
    assert main(["validate", "x" * 5000]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: no fixture named")
    assert "io error" not in err


def test_cli_long_name_error_is_one_short_line(capsys):
    assert main(["validate", "y" * 5000]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert "'" + "y" * 60 + "'... (5000 characters)" in lines[0]


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
    assert _digest(target) == WRITTEN["jumps.csv"]
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
    assert _digest(table) == WRITTEN["facets.csv"]
    assert _digest(picture) == WRITTEN["atlas.svg"]

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


# SHA-256 of selftest's stdout over every bundled fixture ("") and for each
# bundled fixture alone.
SELFTEST_STDOUT = {
    "": "e9b0f86d65428092bea5143405af4616b0caa6e3043f0544789f82fe9a722e7d",
    "CHAIN10": "cc71aa7945a8c550819e731bacd97b2f3a95aa4d3b59562bfd648054d5256fdf",
    "NEST14": "fb5d38747bad761f1c8f3046f34100026fb5522f6d473e83ffd62b536387175f",
    "PROP16": "57b46c0a75360dfb77b8540c7252754b2f6932881a0c21a98e6fd3195b59e349",
    "RAT6": "7d6110df26a0ef0f7d2ee7e66d6e4b024b8391e900d54bae8546d8b11f7bdd3c",
    "SMOOTH1": "600fa48f90a773e8805106f4e20ca2f44115561cde8a4deccbc5e016324ceb65",
}


@pytest.mark.parametrize("name", SELFTEST_STDOUT)
def test_cli_selftest_stdout_is_pinned(name, capsys):
    assert main(["selftest", name] if name else ["selftest"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == SELFTEST_STDOUT[name]
    assert captured.err == ""


def test_cli_selftest_reports_every_failed_key(tmp_path, capsys):
    """RAT6 with every expected value changed: each key prints a FAIL line
    with the derived value on stdout, and an expected/got line on stderr."""
    data = _fixture_data("RAT6")
    data["expected"] = {
        "canonical": ["1/2", -1, "1/2", "-1/2", "-2/3", "-5/6"],
        "fundamental_cycle": [1, 1, 1, 1, 1, 1],
        "lc_facets": 3,
        "lct": ["1/5", 1],
        "nest": [1, 2],
        "singularity": "LogTerminal",
        "verdict": "Bijection",
    }
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(data))
    assert main(["selftest", str(wrong)]) == 2
    captured = capsys.readouterr()
    assert captured.out == """\
RAT6 canonical: FAIL (-1/2,-1,1/2,-1/2,-2/3,-5/6)
RAT6 fundamental_cycle: FAIL (3,2,3,1,1,1)
RAT6 lc_facets: FAIL (2)
RAT6 lct: FAIL (1/6,1)
RAT6 nest: FAIL (E1, E2, E4)
RAT6 singularity: FAIL (LogCanonicalOnly)
RAT6 verdict: FAIL (MultiplicityHypothesisFails)
"""
    assert captured.err == """\
RAT6 canonical: expected (Fraction(1, 2), Fraction(-1, 1), Fraction(1, 2), \
Fraction(-1, 2), Fraction(-2, 3), Fraction(-5, 6)), got (Fraction(-1, 2), \
Fraction(-1, 1), Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3), \
Fraction(-5, 6))
RAT6 fundamental_cycle: expected (1, 1, 1, 1, 1, 1), got (3, 2, 3, 1, 1, 1)
RAT6 lc_facets: expected 3, got 2
RAT6 lct: expected (Fraction(1, 5), Fraction(1, 1)), got (Fraction(1, 6), \
Fraction(1, 1))
RAT6 nest: expected (1, 2), got (1, 2, 4)
RAT6 singularity: expected 'LogTerminal', got 'LogCanonicalOnly'
RAT6 verdict: expected 'Bijection', got 'MultiplicityHypothesisFails'
validation error: 7 selftest check(s) failed
"""


def test_readme_lists_every_expected_key():
    """The README's `expected` bullet names exactly the keys a fixture's
    expected block may hold, each of which selftest checks."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    (bullet,) = re.findall(r"^- `expected` (.*?)\n(?=- )", text, re.S | re.M)
    named = set(re.findall(r"`([a-z_]+)`", bullet))
    assert named == set(fixtures._EXPECTED_READERS)


def test_selftest_derives_every_parsed_key(monkeypatch, capsys):
    """A key the parser reads has a selftest value, so none is read and then
    left unchecked; PROP16's four keys read off one bijection report."""
    assert cli._SELFTEST_VALUES.keys() == fixtures._EXPECTED_READERS.keys()
    reports = record_calls(monkeypatch, "walls", "bijection_report")
    assert main(["selftest", "PROP16"]) == 0
    assert len(reports) == 1


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
