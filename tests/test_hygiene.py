"""Static checks on the package source, in place of a linter."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cdcbranch"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "benchmark").glob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"

# The names that run the package's elimination kernel.  The test references
# reduce on their own, so they cannot agree with it by sharing it.
KERNEL = {"rank", "_gauss_jordan", "_nullspace"}

# Public names that nothing in src/ or benchmark/ reads yet, each kept for
# a stated reason.
UNREAD_ALLOWED = {
    ("cdc", "from_vrep"): "the entry of the ideal union path, which has no caller yet",
    ("oracle", "brute_force_optimum_hrep"): "a reference oracle for union solves",
}

# Top-level definitions that hold a float, each kept for a stated reason.
FLOAT_ALLOWED = {
    ("cdc", "annulus_instance"): "ROADMAP item 4: rational annulus geometry",
}


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


def nested_imports(source):
    """(definition, line) for each import statement inside a function or
    class body; definition names the outermost function or class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    seen = set()
    # ast.walk goes breadth first, so an outer definition comes before
    # the ones nested in it and claims their imports
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, defs):
            continue
        for n in ast.walk(node):
            if isinstance(n, (ast.Import, ast.ImportFrom)) and n not in seen:
                seen.add(n)
                out.append((node.name, n.lineno))
    return out


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


def unread_public_names(modules, readers):
    """(module, name) of each public top-level function or class defined
    in modules, a dict of name to source, that no source in readers reads
    by name, by attribute or as a string."""
    read = set()
    for source in readers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, node.name)
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, defs)
        and not node.name.startswith("_")
        and node.name not in read
    ]


def package_imports(source):
    """Names that source imports from the cdcbranch package, by from-import
    or as an attribute of an imported package module."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cdcbranch"):
            names |= {alias.name for alias in node.names}
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.startswith("cdcbranch")
            }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add(node.attr)
    return names


def sibling_imports(source):
    """(module, name) for each name that a package module's source imports
    from a sibling module, by a relative from-import or as an attribute of
    a module imported with "from . import"."""
    tree = ast.parse(source)
    pairs, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                pairs |= {(node.module, alias.name) for alias in node.names}
            else:
                modules |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                pairs.add((node.value.id, node.attr))
    return pairs


def float_uses(source):
    """(definition, use) for each float(...) call, float literal and math.
    attribute in source; definition is the name of the top-level function
    or class that holds it, or "<module>"."""
    out = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for n in ast.walk(top):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "float":
                out.append((name, "float()"))
            elif isinstance(n, ast.Constant) and isinstance(n.value, float):
                out.append((name, repr(n.value)))
            elif (
                isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and n.value.id == "math"
            ):
                out.append((name, "math." + n.attr))
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
def test_imports_sit_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_nested_import_is_reported():
    source = (
        "import json\n"
        "if json:\n"
        "    from math import gcd\n"
        "def f():\n"
        "    import os\n"
        "    return os, gcd\n"
        "class K:\n"
        "    def m(self):\n"
        "        def g():\n"
        "            from math import lcm\n"
        "            return lcm\n"
        "        return g\n"
    )
    assert nested_imports(source) == [("f", 5), ("K", 10)]


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


def test_every_public_name_is_read_outside_the_tests():
    modules = {p.stem: p.read_text() for p in MODULES}
    readers = list(modules.values()) + [p.read_text() for p in BENCHMARK]
    assert sorted(unread_public_names(modules, readers)) == sorted(UNREAD_ALLOWED)


def test_unread_public_name_is_reported():
    modules = {
        "m": (
            "def called():\n    pass\n"
            "def patched():\n    pass\n"
            "def unread():\n    pass\n"
            "def _private():\n    pass\n"
            "class Used:\n    def method(self):\n        pass\n"
            "class Unread:\n    pass\n"
        )
    }
    readers = modules["m"], "called()\nsetattr(m, 'patched', 1)\nx = m.Used\n"
    assert unread_public_names(modules, readers) == [("m", "unread"), ("m", "Unread")]


def test_the_test_references_take_nothing_from_the_kernel():
    assert package_imports(ORACLES.read_text()) & KERNEL == set()


def test_package_import_is_reported():
    source = (
        "import json\n"
        "from cdcbranch.numerics import rank, dot as d\n"
        "from cdcbranch import numerics\n"
        "import cdcbranch.lp as lp\n"
        "json.loads(numerics._nullspace, lp.solve_lp, d)\n"
    )
    assert package_imports(source) == {"rank", "dot", "numerics", "_nullspace", "solve_lp"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_are_imported_only_from_numerics(path):
    # numerics is the shared kernel; any other module's private names stay
    # inside it
    pairs = sibling_imports(path.read_text())
    assert {(m, name) for m, name in pairs if name.startswith("_") and m != "numerics"} == set()


def test_the_solver_imports_nothing_from_formulation():
    # a source reaches the solver through codes, assemble() and readout()
    assert "formulation" not in {m for m, _ in sibling_imports((SRC / "solver.py").read_text())}


def test_sibling_import_is_reported():
    source = (
        "from cdcbranch.lp import solve_lp\n"
        "from .numerics import _scaled, vec as v\n"
        "from . import branching\n"
        "from .lp import _pivot\n"
        "branching._psi(branching.psi, v)\n"
    )
    assert sibling_imports(source) == {
        ("numerics", "_scaled"),
        ("numerics", "vec"),
        ("lp", "_pivot"),
        ("branching", "_psi"),
        ("branching", "psi"),
    }


def test_floats_enter_only_where_allowed():
    uses = {
        (p.stem, name) for p in MODULES for name, _ in float_uses(p.read_text())
    }
    assert uses == set(FLOAT_ALLOWED)


def test_float_use_is_reported():
    source = (
        "import math\n"
        "HALF = 0.5\n"
        "def exact(x):\n    return isinstance(x, float) or 2 * x\n"
        "def rounded(x):\n    return float(x) * math.pi\n"
        "class K:\n    def m(self):\n        return math.cos(1)\n"
    )
    assert float_uses(source) == [
        ("<module>", "0.5"),
        ("rounded", "float()"),
        ("rounded", "math.pi"),
        ("K", "math.cos"),
    ]
