"""Module boundaries of the package, checked on its source text."""

import ast
from dataclasses import fields
from pathlib import Path

from largeness.certify import CertifyConfig

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
    # python -O strips assert statements, so no check in the package or
    # the scripts may rest on one
    scripts = sorted((SRC.parents[1] / "scripts").glob("*.py"))
    assert scripts
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py")) + scripts
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Assert)]
    assert offenders == []


def test_every_config_field_is_set_outside_tests():
    # a CertifyConfig field that neither the CLI, the scripts nor the
    # benchmark sets is a setting that does nothing; they set fields as
    # CertifyConfig keywords or as kwargs keys
    root = SRC.parents[1]
    callers = [SRC / "cli.py", *sorted((root / "scripts").glob("*.py")),
               *sorted((root / "perfbench").glob("*.py"))]
    set_names = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "CertifyConfig":
                    set_names.update(k.arg for k in node.keywords)
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "kwargs"
                  and isinstance(node.slice, ast.Constant)):
                set_names.add(node.slice.value)
    unset = [f.name for f in fields(CertifyConfig) if f.name not in set_names]
    assert unset == []


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(tree):
    """(name, line) of every name the module uses: names, attributes,
    imported names and string constants (the benchmark's tracer names its
    targets by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_definition_in_the_package_has_a_caller():
    # a module-level function or class that only tests use belongs in the
    # tests; a use inside its own definition does not count, and neither
    # does a re-export from the package's __init__.py
    root = SRC.parents[1]
    files = [*sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
             *sorted((root / "scripts").glob("*.py")),
             *sorted((root / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    used = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            used.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(p for p in trees if p.parent == SRC):
        for node in _definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in used.get(node.name, [])):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []
