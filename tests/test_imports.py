"""The north star's dependency rule: ``src/`` imports only the standard library,
numpy and spinequant itself (scipy is a test oracle, never a runtime import)."""
import ast
import sys
from pathlib import Path

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
