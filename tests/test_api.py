"""The package's public surface and the bindings the benchmark and the
scale reports read.

`mmideal.__all__` is the list the README gives under "Python API", and its
knobs and record fields are counted and pinned.  Every submodule is
reachable as an attribute of the package, never shadowed by a function of
the same name.  The benchmark reaches the library two ways:
`bench/workloads.py` and `bench/run.py` call `mm.<name>` on the package,
and `bench/spans.py` wraps each `(module, function)` of its `TRACED` table
by module attribute.  `tests/scale.py` reads private module names and graph
attributes.  A name missing there fails only a bench run or the scale
reports, so the bindings are checked here.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import mmideal
import scale
from conftest import BENCH, bench_module
from mmideal import build_tuple, load_fixture
from mmideal.errors import _Frozen

ROOT = Path(__file__).resolve().parents[1]
README_GROUPS = (
    "graph and fixtures",
    "points and multiplicities",
    "rays and series",
    "atlas and lc wall",
    "records",
    "errors",
    "codec",
)


def _submodules():
    return [
        info.name
        for info in pkgutil.iter_modules(mmideal.__path__)
        if info.name != "__main__"
    ]


def test_every_submodule_attribute_is_its_module():
    for name in _submodules():
        module = importlib.import_module(f"mmideal.{name}")
        assert getattr(mmideal, name) is module, name
    import mmideal.multiplicity as multiplicity

    assert multiplicity is sys.modules["mmideal.multiplicity"]


def test_every_traced_function_resolves_on_its_module():
    traced = bench_module("spans").TRACED
    assert traced
    for module_name, function_name, span in traced:
        module = importlib.import_module(f"mmideal.{module_name}")
        function = getattr(module, function_name, None)
        assert callable(function), f"{span}: mmideal.{module_name}.{function_name}"


def _package_chains(tree, root):
    """Every attribute chain `root.a.b` read in a parsed file, as ("a", "b")."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == root:
            chains.add(tuple(reversed(parts)))
    # keep the longest chains; their prefixes resolve on the way
    return {c for c in chains if not any(d[: len(c)] == c != d for d in chains)}


def test_every_package_name_the_bench_calls_resolves():
    trees = [ast.parse((BENCH / name).read_text()) for name in ("workloads.py", "run.py")]
    # the submodules the bench imports before it runs a job
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("mmideal."):
                        importlib.import_module(alias.name)
    chains = set().union(*(_package_chains(tree, "mm") for tree in trees))
    assert ("build_tuple",) in chains and ("svg", "render_atlas_svg") in chains
    for chain in sorted(chains):
        target = mmideal
        for part in chain:
            assert hasattr(target, part), "mm." + ".".join(chain)
            target = getattr(target, part)
        if chain[0] not in _submodules():
            assert chain[0] in mmideal.__all__, chain[0]


def test_readme_lists_the_public_names():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    groups = {}
    for bullet in re.findall(r"^- \*\*(.+?):\*\* (.+?)(?=^- |^\s*$)", section, re.M | re.S):
        group, names = bullet
        groups[group] = re.findall(r"`(\w+)`", names)
    assert tuple(groups) == README_GROUPS
    listed = [name for names in groups.values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(mmideal.__all__)


def test_every_library_name_the_scale_reports_read_resolves():
    """Importing `tests/scale.py` resolves its `from mmideal import` names.
    Its module chains (`unloading._descend`, `rays._candidate_parameters`,
    ...) must resolve too, and each attribute it reads off a graph must be
    one a built `DualGraph` has; the caches it finds on a graph are the
    five, in constructor order."""
    tree = ast.parse(Path(scale.__file__).read_text())
    modules = [
        name for name, value in vars(scale).items()
        if inspect.ismodule(value) and value.__name__.startswith("mmideal.")
    ]
    assert sorted(modules) == ["rays", "unloading"]
    for name in modules:
        chains = _package_chains(tree, name)
        assert chains
        for chain in chains:
            target = getattr(scale, name)
            for part in chain:
                assert hasattr(target, part), ".".join((name, *chain))
                target = getattr(target, part)
    graph = build_tuple(load_fixture("RAT6")).graph
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and "graph" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
    }
    assert {"_edge_kernel", "atlas_cache", "closure_cache"} <= read
    for name in read:
        assert hasattr(graph, name), f"graph.{name}"
    caches = [name for name, _ in scale.caches_of(graph)]
    assert {name for name in read if name.endswith("_cache")} <= set(caches)
    assert caches == ["closure_cache", "colength_cache", "record_cache", "atlas_cache", "walk_cache"]


def _is_record(item):
    """A NamedTuple (a class with `_fields`), or one of the plain classes
    that cache per instance (subclasses of `errors._Frozen`)."""
    return inspect.isclass(item) and (
        hasattr(item, "_fields") or (issubclass(item, _Frozen) and item is not _Frozen)
    )


def _field_count(record):
    if hasattr(record, "_fields"):
        return len(record._fields)
    # the attributes a plain record's __init__ stores, caches included, read
    # off one built from placeholders
    built = object.__new__(record)
    record.__init__(built, *[None] * len(inspect.signature(record).parameters))
    return len(vars(built))


def test_the_knob_census_is_pinned():
    """Public names, defaulted parameters of public functions, public records
    and their fields, and the records any `mmideal` module defines.  A change
    that adds a knob or a field updates these pins and declares it in
    CHANGES.md."""
    public = [getattr(mmideal, name) for name in mmideal.__all__]
    defaulted = [
        f"{item.__name__}({parameter.name})"
        for item in public
        if inspect.isfunction(item)
        for parameter in inspect.signature(item).parameters.values()
        if parameter.default is not parameter.empty
    ]
    records = [item for item in public if _is_record(item)]
    defined = [
        item
        for module in map(importlib.import_module, (f"mmideal.{n}" for n in _submodules()))
        for item in vars(module).values()
        if _is_record(item) and item.__module__ == module.__name__
    ]
    plain = sum(not hasattr(item, "_fields") for item in defined)
    assert len(public) == 59
    assert defaulted == ["parse_point(length)"]
    assert (len(records), sum(map(_field_count, records))) == (15, 81)
    assert (len(defined), plain) == (19, 4)
