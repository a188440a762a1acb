"""Every function and method of the package is used by the package, and
the package builds one group and one index core per group it parses.

A static scan of src/burnside: a function or method defined there must be
referenced by name somewhere in the package (as a Name, an Attribute or an
imported alias), be a target that the benchmark tracer in perfbench/spans.py
wraps or counts, be a dunder, or be the command-line entry point cli.main.
A helper that only tests call belongs in tests/oracles.py.  The tracer's
file is loaded read-only.  A second scan finds every call of Group(...)
and GroupCore(...): a group is a core and a bitmask, G the full mask of its
own core and a subgroup G's core with the subgroup's mask, so GroupCore is
built only by groups.group_from_generators, and Group only there, by
restriction.TableProvider._class_group and by characters.conjugate_function.
A third scan finds the name Subgroup anywhere in the package: there is one
group type.  A fourth finds every import of a module outside the standard
library and the package: the package has no runtime dependencies.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "burnside"
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def traced_targets() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans_surface", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {*module.SPANNED, *module.COUNTED}


def definitions(module: str, tree: ast.Module):
    """(dotted target, name) of every function and method in the module,
    nested ones included, named like the tracer's targets."""
    stack = [(module, tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    yield f"{prefix}.{child.name}", child.name
                stack.append((f"{prefix}.{child.name}", child))
            else:
                stack.append((prefix, child))


def references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced(sources: dict[str, str], traced: set[str]) -> list[str]:
    """The targets of the definitions in sources (module name -> text) that
    none of the exemptions covers."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(references, trees.values()))
    return sorted(
        target for module, tree in trees.items() for target, name in definitions(module, tree)
        if name not in used and target not in traced and target != "cli.main"
        and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_is_used_by_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert {"groups", "marks", "cli"} <= sources.keys()
    assert unreferenced(sources, traced_targets()) == []


def test_scan_flags_what_only_tests_would_call():
    source = (
        "class Table:\n"
        "    def __len__(self): return 0\n"
        "    def used(self): return 1\n"
        "    def spanned(self): return 2\n"
        "    def unused(self): return 3\n"
        "def helper(): return Table().used()\n"
        "def main(): return helper()\n"
        "def orphan(): return None\n"
    )
    traced = {"m.Table.spanned"}
    assert unreferenced({"m": source}, traced) == ["m.Table.unused", "m.main", "m.orphan"]
    assert unreferenced({"cli": source}, {"cli.Table.spanned"}) == ["cli.Table.unused", "cli.orphan"]


CONSTRUCTORS = {
    "Group": {"groups.group_from_generators", "restriction.TableProvider._class_group",
              "characters.conjugate_function"},
    "GroupCore": {"groups.group_from_generators"},
}


def constructor_calls(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(class name, dotted caller) for every call of a class in CONSTRUCTORS,
    by bare name or as an attribute, in sources (module name -> text)."""
    calls = set()
    for module, text in sources.items():
        stack = [(module, ast.parse(text))]
        while stack:
            prefix, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stack.append((f"{prefix}.{child.name}", child))
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in CONSTRUCTORS:
                        calls.add((name, prefix))
                stack.append((prefix, child))
    return calls


def misplaced(calls: set[tuple[str, str]]) -> list[tuple[str, str]]:
    return sorted((name, caller) for name, caller in calls if caller not in CONSTRUCTORS[name])


def test_one_group_and_one_core_per_parsed_group():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    calls = constructor_calls(sources)
    assert misplaced(calls) == []
    assert calls == {(name, caller) for name, callers in CONSTRUCTORS.items() for caller in callers}


def test_one_group_type():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, text in sources.items() if re.search(r"\bSubgroup\b", text)] == []


def test_constructor_scan_flags_a_second_core():
    source = (
        "class Group:\n"
        "    def __init__(self, core, mask): self.core, self.mask = core, mask\n"
        "def group_from_generators(gens): return Group(GroupCore(gens), 1)\n"
        "def subgroup_as_group(parent, mask):\n"
        "    sub = Group([g for g in parent.gens if mask >> g & 1])\n"
        "    return sub, groups.GroupCore(sub)\n"
    )
    assert misplaced(constructor_calls({"groups": source})) == [
        ("Group", "groups.subgroup_as_group"), ("GroupCore", "groups.subgroup_as_group"),
    ]


def foreign_imports(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, imported name) for every import and absolute from-import in
    sources (module name -> text) of a module outside the standard library;
    a relative import stays inside the package."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(module, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


def test_the_package_imports_only_the_standard_library():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert {"groups", "exact", "cli"} <= sources.keys()
    assert foreign_imports(sources) == []


def test_import_scan_flags_a_third_party_module():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy.linalg\n"
        "from collections import abc\n"
        "from sympy import Matrix\n"
        "from .exact import integer\n"
        "def solve():\n"
        "    import networkx as nx\n"
        "    return nx\n"
    )
    assert foreign_imports({"m": source}) == [("m", "networkx"), ("m", "numpy.linalg"), ("m", "sympy")]
