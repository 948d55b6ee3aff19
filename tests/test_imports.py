"""Import hygiene of the package: standard library only, and no unused names."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permstab"


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), path.read_text()


def test_absolute_imports_are_standard_library():
    outside = []
    for name, source in _modules():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module]
            else:
                continue
            outside += [(name, t) for t in targets if t.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_imported_names_are_used():
    """An import kept only for other modules to reach says so with ``# noqa: F401`` on its line."""
    unused = []
    for name, source in _modules():
        if name.endswith("__init__.py"):
            continue
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((name, bound))
    assert unused == []
