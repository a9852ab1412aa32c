"""Source-level rules that hold for every module of the package."""

import ast
import pathlib

import graphlv

PACKAGE = pathlib.Path(graphlv.__file__).parent


def test_no_assert_statements():
    """Runtime checks raise library errors; ``python -O`` strips asserts."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"
