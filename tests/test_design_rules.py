"""Design rules of the source tree, read from the files of src/podforge.

Each rule is a step of the tier-1 CI workflow, kept here with the step's
message as its failure message, so the test suite checks it too and not
only CI.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "podforge"


def _matches(pattern, paths):
    """The lines of `paths` that `pattern` matches, as path:line: text."""
    rx = re.compile(pattern)
    return [
        f"{path.name}:{n}: {line.strip()}"
        for path in paths
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if rx.search(line)
    ]


def test_no_environment_variable_reaches_src():
    """No environment variable reaches src/podforge (the matrix kernel's
    pack size is a constant, not a setting)."""
    hits = _matches(r"\benviron\b|getenv|environb", sorted(SRC.glob("*.py")))
    assert not hits, "src/podforge reads an environment variable:\n" + "\n".join(hits)


def test_only_rings_knows_the_packed_monomial_layout():
    """Only rings.py knows the packed-monomial layout."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "rings.py"]
    hits = _matches(r"EXP_BITS|EXP_MASK|0xFF|0xff|>> 7|to_bytes|from_bytes", paths)
    assert not hits, (
        "EXP_BITS/EXP_MASK, 0xFF/0xff, >> 7, to_bytes or from_bytes used outside "
        "src/podforge/rings.py:\n" + "\n".join(hits)
    )


def test_the_rules_read_every_module():
    # a rule that reads no file holds vacuously
    names = {p.name for p in SRC.glob("*.py")}
    assert {"rings.py", "groebner.py", "constructions.py", "cli.py"} <= names
