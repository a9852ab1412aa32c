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


def test_propagators_stay_dense_expm():
    """The monotone squeeze needs entrywise-nonnegative propagators, which a dense
    expm gives; a Krylov action of the exponential does not promise them."""
    found = [path.name for path in sorted(PACKAGE.rglob("*.py"))
             if "expm_multiply" in path.read_text(encoding="utf-8")]
    assert not found, f"expm_multiply used in {found}"
