"""The package imports nothing at run time but the standard library and numpy,
and ships no code that only tests call.

numpy is its only runtime dependency; mpmath and the other test tools may
appear in tests only.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kedlaya"
ALLOWED = sys.stdlib_module_names | {"numpy", "kedlaya"}


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not `from . import`
            yield node.module


def test_runtime_imports_are_the_stdlib_numpy_or_the_package():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = [f"{path.name}: {name}" for path in files for name in _imported_modules(path)
               if name.split(".")[0] not in ALLOWED]
    assert outside == []


# Names that only perfbench/tracing.py wraps or reads (ROADMAP item 2).
TRACER_ONLY = {"weights_positive", "value_grid", "xs", "ys"}


def _definitions(tree: ast.Module):
    """``(name, node, is_method)`` of each module-level function and class,
    and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item, True) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _references(node: ast.AST) -> Counter:
    """Names read under ``node``: ``("name", id)`` and ``("attr", attr)``."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs["attr", sub.attr] += 1
    return refs


def _code_identifiers(markdown: str) -> set:
    """Identifiers inside the inline code spans and code blocks of ``markdown``."""
    return {word for span in markdown.split("`")[1::2]
            for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_library_name_has_a_library_caller_an_export_or_a_readme_entry():
    # a function, class or public method that only tests call belongs in tests/
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    refs = sum(map(_references, trees.values()), Counter())
    exported = {alias.asname or alias.name for node in trees[PACKAGE / "__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    named = _code_identifiers((PACKAGE.parents[1] / "README.md").read_text())
    unused = set()
    for path, tree in trees.items():
        for name, node, is_method in _definitions(tree):
            own = _references(node)  # a recursive call is no caller
            if not any(refs[kind, name] > own[kind, name]
                       for kind in (("attr",) if is_method else ("name", "attr"))):
                unused.add((path.name, name))
    assert sorted(u for u in unused if u[1] not in exported | named | TRACER_ONLY) == []
    # a tracer name that gains a library caller leaves the allow-list
    assert TRACER_ONLY <= {name for _, name in unused}
