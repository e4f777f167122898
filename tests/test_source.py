"""Rules checked on the package source itself."""

import ast
import pathlib

import dualalg


def test_no_assert_in_package():
    # python -O strips assert statements, so no check may rest on one
    files = sorted(pathlib.Path(dualalg.__file__).parent.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
