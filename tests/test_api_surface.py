"""`src/` keeps only code that the package or the benchmark harness reaches.

Every top-level function and class defined in `src/podforge/*.py` must be
used by name (a `Name` or an `Attribute`), and every non-dunder method by
attribute access (an `Attribute`), somewhere in `src/podforge/*.py` or
`perfbench/*.py`.  Re-exports in `__init__.py` and calls from tests do not
count: a helper that only a test calls belongs in that test.  The scan is by
name, so a method whose name another object's attribute also uses slips
past it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "podforge"

def _scan():
    """(names used bare in src/ and perfbench/, attribute names used there,
    (qualified name, name, is a method) of each top-level def/class and
    non-dunder method defined in src/)."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    names, attributes, defined = set(), set(), []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
        if path.parent != SRC:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    return names, attributes, defined


def test_every_src_definition_has_a_caller_outside_tests():
    names, attributes, defined = _scan()
    unused = [
        qual for qual, name, method in defined
        if name not in attributes and (method or name not in names)
    ]
    assert unused == [], f"defined in src/ but reached only from tests: {unused}"

