"""`src/` keeps only code that the package or the benchmark harness reaches.

Every top-level function, class and non-dunder method defined in
`src/podforge/*.py` must be used by name (a `Name` or an `Attribute`)
somewhere in `src/podforge/*.py` or `perfbench/*.py`.  Re-exports in
`__init__.py` and calls from tests do not count: a helper that only a test
calls belongs in that test.  The scan is by name, so a method whose name
another object also uses slips past it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "podforge"

def _scan():
    """(names used in src/ and perfbench/, (qualified name, name) of each
    top-level def/class and non-dunder method defined in src/)."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used, defined = set(), []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent != SRC:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    return used, defined


def test_every_src_definition_has_a_caller_outside_tests():
    used, defined = _scan()
    unused = [qual for qual, name in defined if name not in used]
    assert unused == [], f"defined in src/ but reached only from tests: {unused}"

