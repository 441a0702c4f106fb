"""One input contract for the public API and the CLI.

A library rational is an `int` (not `bool`) or a `Fraction`; a library
integer is an `int` (not `bool`) or a `Fraction` with denominator 1.  Every
data-taking callable in `mmideal.__all__` is driven here with arguments drawn
from a hostile domain: floats, bools, strings, None, negatives, wrong
lengths, out-of-range indices and huge denominators, mixed with valid
values so that calls also reach the computation.  Each call must answer or
raise a `ValidationError` or `ParseError`, and it must raise when the draw
holds a value the contract refuses (marked `Bad`); a bare Python exception
or an `InternalConsistencyError` fails.  The CLI is driven the same way with argv
strings, where only exit codes 0, 1 and 2 are allowed.

The one known exception is the origin on a tuple with an integer k_j <= -1
(RAT6): the wall-line scan and the left-floor rule disagree there and the
evaluation raises `InternalConsistencyError` (ROADMAP, smaller item "Origin
semantics").  The hostile tests let that case through without filtering it
out of the draws, and the strict xfail tests below flip once it is fixed.
"""

import contextlib
import io
import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmideal
from mmideal import (
    Fixture,
    Ray,
    build_tuple,
    colength,
    emit_fixture,
    graph_from_adjacency,
    jump_record,
    lct_axis,
    load_fixture,
    make_ray,
    poincare,
    ray_next,
    ray_point,
    ray_walk,
    stability_bound,
    subtuple,
    support_components,
)
from mmideal.cli import main
from mmideal.errors import (
    InternalConsistencyError,
    LengthMismatch,
    ParseError,
    ValidationError,
)

from conftest import FIXTURE_NAMES

TUPLES = {name: build_tuple(load_fixture(name)) for name in FIXTURE_NAMES}
# a fixture name too long for the system to look up
TOO_LONG = "x" * 5000
# walks and series stay cheap on these
WALKED = ("RAT6", "SMOOTH1")
HUGE = 10**40 + 7  # denominators far beyond any the fixtures produce


def _origin_fails(ideals) -> bool:
    """Some v_j = -k_j is a positive integer at the origin."""
    return any(k.denominator == 1 and k <= -1 for k in ideals.graph.canonical)


def _is_origin(value, r) -> bool:
    return (
        isinstance(value, (tuple, list))
        and len(value) == r
        and all(
            isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x == 0
            for x in value
        )
    )


def _known_origin_case(args) -> bool:
    ideals = next((a for a in args if isinstance(a, mmideal.IdealTuple)), None)
    return (
        ideals is not None
        and _origin_fails(ideals)
        and any(_is_origin(a, ideals.r) for a in args)
    )


# ---------------------------------------------------------------- domains

class Bad:
    """A drawn value the contract refuses in its slot: a call that gets one
    must raise."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Bad({self.value!r})"


def unwrap(value):
    """(value with every Bad replaced by what it holds, whether there was one)"""
    if isinstance(value, Bad):
        return unwrap(value.value)[0], True
    if type(value) in (tuple, list):
        parts = [unwrap(x) for x in value]
        return type(value)(x for x, _ in parts), any(bad for _, bad in parts)
    return value, False


# no number: refused where an int or Fraction is asked for
hostile = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.sampled_from(
        [0.0, 1.0, "1/2", "0", b"1", [1], (), {}, complex(1, 0), Decimal(1), object()]
    ),
)
# no vector: refused where a tuple, list or range is asked for
not_vector = st.one_of(
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([3, Fraction(1, 2), b"\x01", {1: 1}, {1}, Decimal(1), object()]),
)
not_flag = st.floats() | st.integers(0, 1) | st.text(max_size=2) | st.none()
integer = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3))
rational = (
    st.integers(-3, 3)
    | st.fractions(min_value=-3, max_value=3, max_denominator=12)
    | st.builds(Fraction, st.integers(-HUGE, HUGE), st.just(HUGE))
)
nonnegative = (
    st.integers(0, 2)
    | st.fractions(min_value=0, max_value=2, max_denominator=12)
    | st.builds(Fraction, st.integers(0, HUGE), st.just(HUGE))
)


def mostly(valid, *others):
    """Three draws in four from `valid`, the rest shared by `others`."""
    return st.sampled_from([valid] * 3 * len(others) + list(others)).flatmap(
        lambda strategy: strategy
    )


def scalar(valid):
    return mostly(valid, hostile.map(Bad))


def vector(valid, length, bad=hostile, fixed=True):
    """Valid vectors of the right length, ones with a bad entry, ones of
    another length (bad when the length is `fixed`), and non-vectors."""
    lengths = st.sampled_from(sorted({0, max(length - 1, 0), length + 1}))

    def spoil(entries, position, value):
        entries = list(entries)
        if entries:
            entries[position % len(entries)] = Bad(value)
        return tuple(entries)

    right = st.lists(valid, min_size=length, max_size=length).map(tuple)
    return mostly(
        right,
        st.builds(spoil, right, st.integers(0, 20), bad),
        lengths.flatmap(lambda n: st.lists(valid, min_size=n, max_size=n)).map(
            Bad if fixed else list
        ),
        not_vector.map(Bad),
    )


def index(bound):
    return mostly(
        st.integers(0, bound - 1) | st.builds(Fraction, st.integers(0, bound - 1)),
        (st.sampled_from([-1, bound]) | hostile).map(Bad),
    )


def _tuple_and(parts):
    """(ideals, *parts(ideals)) for a bundled tuple."""
    return st.sampled_from(FIXTURE_NAMES).flatmap(
        lambda name: st.tuples(st.just(TUPLES[name]), *parts(TUPLES[name]))
    )


def _rays(ideals):
    r = ideals.r
    return (
        make_ray(ideals, (0,) * r, (1,) * r),
        make_ray(ideals, (Fraction(1, 3),) * r, (2,) + (0,) * (r - 1)),
    )


WALKED_RAYS = {name: _rays(TUPLES[name]) for name in WALKED}
RAYS = [ray for rays in WALKED_RAYS.values() for ray in rays]
FORMS = [poincare(TUPLES[name], rays[0], 2) for name, rays in WALKED_RAYS.items()]
# `Ray` is public, so a caller can build one without `make_ray`: every ray
# function refuses these ...
MISTYPED_RAYS = [
    Ray((0, 0), (0.5, 1)),
    Ray((Fraction(1, 2), 0.0), (1, 1)),
    Ray((0, 0), (True, 1)),
    Ray((0, 0), (1, 1, 1)),
    Ray(None, (1, 1)),
    Ray((0, 0), "11"),
    ((0, 0), (1, 1)),
]
# ... and the walks also refuse a ray outside the orthant or standing still
UNWALKABLE_RAYS = [
    Ray((0, 0), (0, 0)),
    Ray((0, 0), (-1, 1)),
    Ray((Fraction(-1, 2), 0), (1, 1)),
]
hand_built_rays = st.sampled_from(MISTYPED_RAYS + UNWALKABLE_RAYS).map(Bad)


def _walk(parameter):
    """(ideals, ray, parameter), the ray mostly made on that tuple."""
    return st.sampled_from(WALKED).flatmap(
        lambda name: st.tuples(
            st.just(TUPLES[name]),
            mostly(
                st.sampled_from(WALKED_RAYS[name]),
                st.sampled_from(RAYS),
                hand_built_rays,
            ),
            scalar(parameter),
        )
    )


def points(ideals):
    return [vector(nonnegative, ideals.r)]


def directions(ideals):
    """Ray directions and weights: nonnegative integers, now and then -1."""
    return [vector(mostly(st.integers(0, 2), st.integers(-1, 2)), ideals.r)]


def offsets(ideals):
    return [vector(rational.map(lambda x: x / 64), ideals.r)]


def on_graph(args):
    """(ideals, *rest) -> (ideals.graph, *rest)"""
    return (args[0].graph, *args[1:])

matrices = mostly(
    st.sampled_from(
        [((-1,),), ((-2, 1), (1, -2))]
        + [TUPLES[name].graph.matrix for name in ("RAT6", "SMOOTH1", "CHAIN10")]
    ),
    st.integers(0, 3).flatmap(
        lambda n: st.lists(vector(st.integers(-3, 1), n), min_size=n, max_size=n)
    ),
    not_vector.map(Bad),
)
# (edges, canonical) pairs: the bundled adjacency fixtures, spoiled or not
ADJACENCY = [load_fixture(name) for name in ("CHAIN10", "NEST14", "PROP16")]
adjacency = mostly(
    st.sampled_from(ADJACENCY).flatmap(
        lambda f: st.tuples(
            mostly(
                st.just(f.adjacency),
                vector(vector(st.integers(0, 4), 2), 3, fixed=False),
            ),
            mostly(
                st.just(f.canonical), vector(rational, len(f.canonical), fixed=False)
            ),
        )
    ),
    st.tuples(
        st.lists(vector(st.integers(0, 3), 2), max_size=3),
        st.integers(1, 3).flatmap(lambda n: vector(rational, n, fixed=False)),
    ),
    st.tuples(not_vector.map(Bad), not_vector.map(Bad)),
)
FIXTURES = [load_fixture(name) for name in FIXTURE_NAMES]
fixtures = st.sampled_from(FIXTURES).flatmap(
    lambda f: mostly(
        st.just(f),
        st.builds(
            lambda field, value: f._replace(**{field: value}),
            st.sampled_from(["matrix", "adjacency", "canonical", "ideals"]),
            hostile | st.lists(hostile, max_size=2),
        ),
    )
)
valid_texts = st.lists(
    st.sampled_from(["0", "1", "2", "1/2", "3/4", "-1", " 1 / 3 "]),
    min_size=1,
    max_size=3,
).map(",".join)
fixture_texts = mostly(
    st.sampled_from([emit_fixture(fixture) for fixture in FIXTURES]),
    st.sampled_from(
        [
            '{"name": "X", "matrix": [[-1.0]], "ideals": [[1]]}',
            '{"name": "X", "matrix": [[-2, 1], [1, -2]], "ideals": [[true, 1]]}',
        ]
        + [
            '{"name": "X", "adjacency": [%s], "canonical": [%s], "ideals": [[1, 1]]}'
            % pair
            for pair in (("[1, 1]", "1, 1"), ("[1, 2]", '"a", 1'), ("[1, 2]", "0.5, 1"))
        ]
    ),
    st.text(max_size=8) | hostile,
)

POINT_FUNCTIONS = (
    "evaluate_point",
    "weighted_F",
    "gap_values",
    "mmi_divisor",
    "mmi_divisor_left",
    "maximal_jumping_divisor",
    "region",
    "multiplicity",
    "multiplicity_fractional",
    "multiplicity_oracle",
    "multiplicity_via_G",
    "multiplicity_checked",
    "is_jumping",
    "check_H_inequalities",
    "minimal_jumping_divisor",
    "jump_record",
    "is_degenerate",
)
CLOSURES = (
    "antinef_closure",
    "antinef_closure_checked",
    "antinef_closure_unit",
    "is_antinef",
)
# box sides at most 1/2 keep every atlas small
sides = mostly(
    st.fractions(min_value=Fraction(1, 8), max_value=Fraction(1, 2)), nonnegative
)

DRIVEN = {
    **{name: _tuple_and(points) for name in POINT_FUNCTIONS},
    "support_components": _tuple_and(
        lambda i: [vector(st.booleans(), i.size, bad=not_flag)]
    ),
    "subtuple": _tuple_and(
        lambda i: [mostly(st.lists(index(i.r), max_size=3), not_vector.map(Bad))]
    ),
    "combined_ideal": _tuple_and(directions),
    "lct_axis": _tuple_and(lambda i: [index(i.r)]),
    "axis_Gprime": _tuple_and(lambda i: [index(i.r)]),
    "lc_region": _tuple_and(lambda i: []),
    "newton_nest": _tuple_and(lambda i: []),
    "bijection_report": _tuple_and(lambda i: []),
    "wall_lines": st.tuples(
        st.sampled_from(("RAT6", "CHAIN10", "PROP16", "NEST14")).map(TUPLES.get),
        vector(sides, 2),
    ),
    "cell_decomposition": st.tuples(
        mostly(st.just(TUPLES["RAT6"]), st.sampled_from(list(TUPLES.values()))),
        vector(sides, 2),
    ),
    "perturbation_sum": _tuple_and(lambda i: points(i) + directions(i) + offsets(i)),
    "admissible_perturbation": _tuple_and(lambda i: points(i) + directions(i)),
    "rho": _tuple_and(lambda i: points(i) + directions(i)),
    "default_offset": st.tuples(
        st.integers(0, 3).flatmap(lambda n: vector(rational, n, fixed=False)),
        scalar(rational),
    ),
    "make_ray": _tuple_and(lambda i: points(i) + directions(i)),
    "ray_point": st.tuples(
        mostly(st.sampled_from(RAYS), st.sampled_from(MISTYPED_RAYS).map(Bad)),
        scalar(rational),
    ),
    "ray_next": _walk(rational),
    "ray_walk": _walk(rational.map(lambda x: x / 3)),
    "stability_bound": _tuple_and(
        lambda i: [mostly(st.sampled_from(RAYS), hand_built_rays)]
    ),
    "poincare": _walk(st.integers(1, 3) | rational),
    "series_expand": st.tuples(st.sampled_from(FORMS), scalar(rational)),
    **{
        name: _tuple_and(lambda i: [vector(integer, i.size)]).map(on_graph)
        for name in CLOSURES
    },
    "colength": _tuple_and(
        lambda i: [mostly(st.sampled_from(i.ideals), vector(integer, i.size))]
    ).map(on_graph),
    "divisor_leq": st.integers(0, 3).flatmap(
        lambda n: st.tuples(vector(integer, n), vector(integer, n))
    ),
    "fundamental_cycle": _tuple_and(lambda i: []).map(on_graph),
    "singularity_class": _tuple_and(lambda i: []).map(on_graph),
    "build_graph": st.tuples(matrices),
    "derive_diagonal": adjacency,
    "graph_from_adjacency": adjacency,
    "attach_ideals": _tuple_and(
        lambda i: [
            mostly(
                st.just(i.ideals),
                st.lists(vector(st.integers(-1, 6), i.size), max_size=2),
                not_vector.map(Bad),
            )
        ]
    ).map(on_graph),
    "build_tuple": st.tuples(fixtures),
    "format_rational": st.tuples(scalar(rational)),
    "format_point": st.tuples(
        st.integers(0, 3).flatmap(lambda n: vector(rational, n, fixed=False))
    ),
    "parse_rational": st.tuples(mostly(valid_texts, st.text(max_size=6), hostile)),
    "parse_point": st.tuples(
        mostly(valid_texts, st.text("0123456789/,- .x", max_size=8), hostile),
        mostly(st.none() | st.integers(1, 3), hostile),
    ),
    "parse_fixture": st.tuples(fixture_texts),
    "load_fixture": st.tuples(
        mostly(
            st.sampled_from(FIXTURE_NAMES),
            st.text(max_size=6) | hostile | st.just(TOO_LONG),
        )
    ),
}

EXEMPT = {
    # readers of values the library built itself
    "require_valid_region": "reads a RegionReport built by `region`",
    "emit_fixture": "writes a Fixture that `parse_fixture` built",
    "facet_intersection_vertices": "reads a WallAtlas that `cell_decomposition` built",
    "Ray": "a plain record; the ray functions above are driven with hand-built ones",
    "bundled_names": "takes no arguments",
    # result and error types
    **{
        name: "a result type the library builds"
        for name in (
            "AnchorTerm",
            "BijectionReport",
            "CFacet",
            "DualGraph",
            "Fixture",
            "HInequalityReport",
            "IdealTuple",
            "JumpRecord",
            "LCFacet",
            "PerturbationReport",
            "PointEvaluation",
            "RayJump",
            "RegionReport",
            "SeriesClosedForm",
            "SingularityClass",
            "WallAtlas",
        )
    },
    **{
        name: "an error class"
        for name in (
            "InternalConsistencyError",
            "MmidealError",
            "ParseError",
            "ValidationError",
        )
    },
}

# per-call cost decides the number of draws
EXAMPLES = {"cell_decomposition": 15, "poincare": 15}


def test_every_public_callable_is_driven_or_exempt():
    public = {name for name in mmideal.__all__ if callable(getattr(mmideal, name))}
    assert not set(DRIVEN) & set(EXEMPT)
    assert public == set(DRIVEN) | set(EXEMPT)


@pytest.mark.parametrize("name", sorted(DRIVEN))
def test_hostile_arguments_answer_or_are_refused(name):
    function = getattr(mmideal, name)

    @settings(
        max_examples=EXAMPLES.get(name, 20),
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(DRIVEN[name])
    def call(drawn):
        args, bad = unwrap(drawn)
        try:
            function(*args)
        except (ValidationError, ParseError):
            return
        except InternalConsistencyError:
            if _known_origin_case(args):
                return
            raise
        assert not bad, f"{name} answered on an argument the contract refuses"

    call()


# ---------------------------------------------------------------- the CLI

# fixture -> (r, s) for the bundled ones and three unknown names
CLI_FIXTURES = {name: (t.r, t.size) for name, t in TUPLES.items()}
CLI_FIXTURES.update({"NOPE": (2, 2), "": (1, 1), TOO_LONG: (1, 1)})
fine = st.sampled_from(
    ["0", "1", "2", "1/2", "1/3", "3/4", " 1 ", "0/5", "1/9999999967"]
)
whole = st.sampled_from(["0", "1", "2", " 1 ", "4/2", "-1"])
bad = st.sampled_from(["-1", "0.5", "1e3", "1/0", "x", "", "True", "-0", "1/2/3"])


def numbers(length, good):
    return mostly(
        st.lists(good, min_size=length, max_size=length).map(",".join),
        st.lists(mostly(good, bad), min_size=1, max_size=length + 1).map(",".join),
        st.text(max_size=5),
    )


def _command(name, fixtures, *options):
    """[name, fixture, flag, value, ...] for options (flag, entries, pieces):
    `entries` is "r", "s" or a count, read for the drawn fixture."""

    def build(fixture):
        r, s = CLI_FIXTURES[fixture]
        sizes = {"r": r, "s": s}
        values = [numbers(sizes.get(n, n), good) for _, n, good in options]
        flags = [flag for flag, _, _ in options]
        return st.tuples(*values).map(
            lambda drawn: [name, fixture, *itertools.chain(*zip(flags, drawn))]
        )

    return st.sampled_from(fixtures).flatmap(build)


ALL, WALKS = sorted(CLI_FIXTURES), ("RAT6", "SMOOTH1")
READERS = ["validate", "kpi", "fcycle", "lct", "nest", "bijection", "selftest"]
argvs = mostly(
    st.one_of(
        st.tuples(st.sampled_from(READERS), st.sampled_from(ALL)).map(list),
        _command("closure", ALL, ("--divisor", "s", whole)),
        _command("point", ALL, ("--c", "r", fine)),
        _command("ray", WALKS, ("--base", "r", fine), ("--dir", "r", whole),
                 ("--until", 1, fine)),
        _command("poincare", WALKS, ("--base", "r", fine), ("--dir", "r", whole),
                 ("--horizon", 1, fine)),
        _command("walls", ("RAT6", "NEST14", "SMOOTH1"), ("--box", 2, fine)),
    ),
    st.lists(fine | bad | st.sampled_from(["--c", "point", "--x"]), max_size=4),
)


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return main(argv)
        except SystemExit as error:  # argparse usage errors
            return error.code


def _cli_origin_case(argv) -> bool:
    if argv[:1] != ["point"] or argv[1] not in TUPLES or "--c" not in argv:
        return False
    try:
        point = mmideal.parse_point(argv[argv.index("--c") + 1])
    except (ParseError, IndexError):
        return False
    return _known_origin_case((TUPLES[argv[1]], point))


@settings(max_examples=70, derandomize=True, deadline=None, database=None)
@given(argvs)
def test_cli_exit_codes_on_hostile_argv(argv):
    code = _exit_code(argv)
    assert code in {0, 1, 2} or (code == 3 and _cli_origin_case(argv)), argv


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP smaller item 'Origin semantics': point at the origin of a "
    "fixture with some k_j = -1 exits 3",
)
def test_cli_point_at_the_origin_exits_cleanly():
    assert _exit_code(["point", "RAT6", "--c", "0,0"]) in {0, 1, 2}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP smaller item 'Origin semantics': the origin of a tuple "
    "with some k_j = -1 raises InternalConsistencyError",
    raises=InternalConsistencyError,
)
def test_jump_record_at_the_origin():
    assert jump_record(TUPLES["RAT6"], (0, 0)).mult == 0


# ---------------------------------------------------------------- named cases


def test_float_point_is_refused():
    # a float names a different point: 0.1 is 3602879701896397/2**55
    message = r"^point: expected integers or Fractions, got 0\.1$"
    with pytest.raises(ValidationError, match=message):
        jump_record(TUPLES["RAT6"], (0.1, 0.1))


def test_string_canonical_entry_is_refused():
    with pytest.raises(ValidationError, match="canonical divisor: expected integers"):
        graph_from_adjacency([(1, 2)], ("a", 1))


def test_float_divisor_has_no_colength():
    graph = TUPLES["RAT6"].graph
    with pytest.raises(ValidationError, match="expected integers, got 3.0"):
        colength(graph, (3.0, 2, 3, 1, 1, 1))
    assert colength(graph, (Fraction(3), 2, 3, 1, 1, 1)) == 1


def test_float_axis_is_refused():
    message = r"^ideal index: expected integers, got 1\.0$"
    with pytest.raises(ValidationError, match=message):
        lct_axis(TUPLES["RAT6"], 1.0)
    assert lct_axis(TUPLES["RAT6"], Fraction(1)) == lct_axis(TUPLES["RAT6"], 1)


def test_short_support_is_refused():
    with pytest.raises(LengthMismatch, match="support: expected 6 entries, got 1"):
        support_components(TUPLES["RAT6"], (1,))


@pytest.mark.parametrize(
    "call",
    [
        lambda t: jump_record(t, (True, 0)),
        lambda t: make_ray(t, (0, 0), (True, 1)),
        lambda t: subtuple(t, [True]),
    ],
    ids=["point", "direction", "index"],
)
def test_bools_are_refused(call):
    with pytest.raises(ValidationError, match="got True"):
        call(TUPLES["RAT6"])


@pytest.mark.parametrize(
    "call",
    [
        lambda t, ray: ray_walk(t, ray, 1),
        lambda t, ray: ray_next(t, ray, 0),
        lambda t, ray: stability_bound(t, ray),
        lambda t, ray: poincare(t, ray, 3),
    ],
    ids=["ray_walk", "ray_next", "stability_bound", "poincare"],
)
def test_hand_built_rays_are_refused(call):
    rat6 = TUPLES["RAT6"]
    message = r"^ray direction: expected integers, got 0\.5$"
    with pytest.raises(ValidationError, match=message):
        call(rat6, Ray((0, 0), (0.5, 1)))
    message = "^ray direction must be nonnegative integers, not all zero$"
    for direction in ((0, 0), (-1, 1)):
        with pytest.raises(ValidationError, match=message):
            call(rat6, Ray((0, 0), direction))
    with pytest.raises(ValidationError, match="^expected a Ray, got "):
        call(rat6, ((0, 0), (1, 1)))


def test_hand_built_ray_point_is_refused():
    message = "^ray base: expected integers or Fractions, got 0.5$"
    with pytest.raises(ValidationError, match=message):
        ray_point(Ray((0.5, 0), (1, 1)), 1)


def test_domain_rules_keep_their_messages():
    rat6 = TUPLES["RAT6"]
    message = "^ray direction must be nonnegative integers, not all zero$"
    for direction in ((0, 0), (-1, 1)):
        with pytest.raises(ValidationError, match=message):
            make_ray(rat6, (0, 0), direction)
    with pytest.raises(ValidationError, match="^after must be nonnegative, got -1/2$"):
        ray_next(rat6, make_ray(rat6, (0, 0), (1, 1)), Fraction(-1, 2))
    with pytest.raises(ValidationError, match="has a negative coordinate"):
        jump_record(rat6, (Fraction(-1, 2), 0))



def _as_fractions(vector):
    return tuple(map(Fraction, vector))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(_tuple_and(lambda i: [st.lists(st.integers(0, 2), min_size=i.r, max_size=i.r)]))
def test_ints_and_integer_fractions_answer_alike(args):
    """A caller's int and the equal Fraction name one number."""
    ideals, point = args
    if not any(point) and _origin_fails(ideals):
        return  # the known origin case
    assert jump_record(ideals, point) == jump_record(ideals, _as_fractions(point))
    graph = ideals.graph
    divisor = [point[j % ideals.r] - 1 for j in range(ideals.size)]
    closure = mmideal.antinef_closure_checked(graph, divisor)
    assert closure == mmideal.antinef_closure_checked(graph, _as_fractions(divisor))
    assert colength(graph, closure) == colength(graph, _as_fractions(closure))
