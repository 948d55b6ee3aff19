"""``tools/mutation_check.py``'s table points at real source text and real tests.

No mutant is run here: each row's old text must occur exactly once in its
file, and each test it names must be a function of the named test module,
found by reading the module's syntax tree.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def mutation_rows():
    spec = importlib.util.spec_from_file_location("mutation_check", ROOT / "tools" / "mutation_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTATIONS


def test_every_row_names_one_source_text_and_existing_tests():
    rows = mutation_rows()
    assert len({row[0] for row in rows}) == len(rows)
    functions = {}
    problems = []
    for name, rel, old, new, tests in rows:
        count = (ROOT / rel).read_text().count(old)
        if count != 1 or old == new:
            problems.append(f"{name}: old text occurs {count} times in {rel}")
        for test in tests:
            path, func = test.split("::")
            if path not in functions:
                module = ROOT / path
                tree = ast.parse(module.read_text()) if module.is_file() else ast.Module(body=[])
                functions[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            if func not in functions[path]:
                problems.append(f"{name}: {test} does not exist")
    assert problems == []
