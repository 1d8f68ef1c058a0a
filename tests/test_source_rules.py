"""Rules on the package source itself."""

import ast
import pathlib

import dgkernel


def test_no_assert_statements_in_package():
    # runtime checks must survive python -O, which strips assert
    root = pathlib.Path(dgkernel.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert root.joinpath("dg_core.py").exists()
    assert not found, found
