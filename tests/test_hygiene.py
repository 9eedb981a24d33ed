"""Source hygiene: data-dependent checks must not rely on `assert`, which -O strips."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reconkit"


def test_no_assert_statements_in_the_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
