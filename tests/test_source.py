"""Source-level checks on the package."""

import ast
from pathlib import Path

import substrum


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise explicitly
    found = []
    for path in sorted(Path(substrum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
