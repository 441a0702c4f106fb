"""The package's public surface and the bindings the benchmark reads.

`mmideal.__all__` is the list the README gives under "Python API".  Every
submodule is reachable as an attribute of the package, never shadowed by a
function of the same name.  The benchmark reaches the library two ways:
`bench/workloads.py` and `bench/run.py` call `mm.<name>` on the package,
and `bench/spans.py` wraps each `(module, function)` of its `TRACED` table
by module attribute.  A name missing there fails only a traced bench run,
so the bindings are checked here.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import mmideal

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
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


def _load_spans():
    """bench/spans.py, executed from its file under a private name."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_on_its_module():
    traced = _load_spans().TRACED
    assert traced
    for module_name, function_name, span in traced:
        module = importlib.import_module(f"mmideal.{module_name}")
        function = getattr(module, function_name, None)
        assert callable(function), f"{span}: mmideal.{module_name}.{function_name}"


def _package_chains(tree):
    """Every attribute chain `mm.a.b` read in a parsed file, as ("a", "b")."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "mm":
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
    chains = set().union(*map(_package_chains, trees))
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
