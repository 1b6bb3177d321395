"""Export lists: every listed name exists, and the package re-exports only listed names."""

import ast
import importlib
import pathlib

import sympstairs

PACKAGE = pathlib.Path(sympstairs.__file__).parent


def test_every_listed_name_resolves():
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"sympstairs.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
            checked += 1
    assert checked > 50


def test_package_imports_only_listed_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"sympstairs.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module} does not list {alias.name!r}"
