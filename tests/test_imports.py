"""Rules on the source, read from its syntax trees.

The north star's dependency rule: ``src/`` imports only the standard library,
numpy and spinequant itself (scipy is a test oracle, never a runtime import).
The range rule: a range on an argument or a record field is stated only as a
``domain`` of ``core.finite_numbers``/``core.finite_array`` (a record names its
fields' domains to ``core.check_number_fields``), so no module raises an error
whose text states a range by hand, and no ``require`` rule text states one.
The caller rule: every name in ``spinequant.__all__`` is read by another module
of ``src/``, a demo, the benchmark or the acceptance gate, not by unit tests alone."""
import ast
import sys
from pathlib import Path

import spinequant

SRC = Path(__file__).resolve().parents[1] / "src" / "spinequant"
ALLOWED = sys.stdlib_module_names | {"numpy", "spinequant"}


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every import in a module, at any depth; relative
    imports are spinequant's own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("spinequant" if node.level else node.module.split(".")[0])
    return names


def test_src_imports_only_the_standard_library_and_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = {path.name: sorted(imported_packages(path) - ALLOWED) for path in modules}
    assert {name: pkgs for name, pkgs in outside.items() if pkgs} == {}


RANGE_PHRASES = ("must be positive", "must be >= 0", "must be in (0, 1]", "must be in [0, 1]",
                 "with positive sides")
# A require rule is the text after "must be", so any of these in it states a range.
RULE_PHRASES = ("positive", "non-negative", "> 0", ">= 0", "(0, 1]", "[0, 1]")


def _texts(node: ast.AST, phrases) -> list[tuple[int, str]]:
    """(line, text) of each string literal under ``node``, f-string parts included,
    that holds one of ``phrases``."""
    return [(sub.lineno, sub.value) for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and any(phrase in sub.value for phrase in phrases)]


def stated_ranges(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, text) of each string that states a range inside a ``raise`` statement
    or in the rule, the last argument, of a ``require`` call."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            hits += _texts(node.exc, RANGE_PHRASES)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "require" and node.args):
            hits += _texts(node.args[-1], RULE_PHRASES)
    return hits


def test_ranges_are_refused_only_through_the_domains_of_core():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "check_unit_interval" not in {
        node.name for node in ast.walk(trees["core.py"]) if isinstance(node, ast.FunctionDef)}
    found = {name: stated_ranges(tree) for name, tree in trees.items() if name != "core.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


ROOT = SRC.parents[1]


def read_names(path: Path) -> set[str]:
    """Every name a module reads, bare or as an attribute; the names its ``def``,
    ``class`` and ``import`` statements bind are not read."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_has_a_caller():
    # An export read only by its own unit tests is a second copy of an idea or dead
    # code: the stages, the demos, the benchmark or the acceptance gate must read it.
    callers = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    callers += [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py"),
                ROOT / "tests" / "test_acceptance.py"]
    unread = sorted(set(spinequant.__all__) - set().union(*map(read_names, callers)))
    assert not unread, f"no caller reads {unread}"
