"""The package imports nothing at run time but the standard library and numpy.

numpy is its only runtime dependency; mpmath and the other test tools may
appear in tests only.
"""

import ast
import sys
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
