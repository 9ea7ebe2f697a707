"""Module boundaries of the package, checked on its source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "largeness"


def test_no_private_names_imported_between_modules():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may rest on one
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Assert)]
    assert offenders == []
