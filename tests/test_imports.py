"""Import hygiene (standard library only, no unused names) and the names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
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


def test_traced_names_are_bound():
    """Every function the benchmark's tracer wraps still exists under its listed name."""
    path = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr_path, _mode, _stats in tracer.LAYERS:
        mod = importlib.import_module(f"permstab.{module}")
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:  # a method is wrapped on its own class
            owner = getattr(mod, owner_name, None)
            found = isinstance(owner, type) and vars(owner).get(attr) is not None
        else:
            found = getattr(mod, attr, None) is not None
        if not found:
            missing.append(f"{module}.{attr_path}")
    reference = importlib.import_module("permstab.kernels.reference")
    missing += [f"kernels.reference.{k}" for k in tracer.KERNELS if not callable(getattr(reference, k, None))]
    assert missing == []
