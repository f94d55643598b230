"""Static checks on the package source, in place of a linter."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cdcbranch"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import anywhere in source and never read there."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def unread_parameters(source):
    """(function, parameter) pairs for each parameter that its function's
    body never reads.  self, cls and names starting with an underscore,
    which mark a parameter an interface requires, are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [
            (node.name, p)
            for p in params
            if p not in ("self", "cls", *read) and not p.startswith("_")
        ]
    return out


def test_hygiene_checks_every_module():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import json\nfrom math import gcd, lcm as l\nprint(gcd)\n"
    assert unused_imports(source) == ["json", "l"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_is_reported():
    source = (
        "def f(a, b, *c, d=1, **e):\n"
        "    return a + d\n"
        "class K:\n"
        "    def m(self, x, y, _z):\n"
        "        def g():\n"
        "            return x\n"
        "        return g\n"
    )
    assert unread_parameters(source) == [("f", "b"), ("f", "c"), ("f", "e"), ("m", "y")]
