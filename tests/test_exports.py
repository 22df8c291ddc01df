"""Export lists: every name a module lists in __all__ exists, once; no
module imports or reads another's private names; and the object routes
import no formula route."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qpb

# __main__ runs the CLI when imported, so it is left out.
MODULES = ["qpb"] + [
    f"qpb.{info.name}" for info in pkgutil.iter_modules(qpb.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [x for x in exported if not hasattr(module, x)] == []
    assert len(exported) == len(set(exported))


def test_star_import():
    namespace: dict = {}
    exec("from qpb import *", namespace)
    assert set(qpb.__all__) <= namespace.keys()


def test_no_module_imports_a_private_name_of_another():
    # Neither "from .m import _x" nor "m._x" on a module m bound by
    # "from . import m" (or "from qpb import m").
    private = []
    for path in sorted(Path(qpb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qpb")):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
                if not (node.module or "").removeprefix("qpb"):
                    modules |= {a.asname or a.name for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules and node.attr.startswith("_"):
                    private.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert private == []


def _qpb_imports(path: Path) -> set[str]:
    """The qpb modules a source file imports, by module name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {a.name.removeprefix("qpb.") for a in node.names if a.name.startswith("qpb.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.startswith("qpb"):
                module = module.removeprefix("qpb").lstrip(".")
                # "from . import x" and "from qpb import x" import the module x.
                names |= {a.name for a in node.names} if not module else {module.split(".")[0]}
    return names


@pytest.mark.parametrize("name", ["objects.py", "rook.py"])
def test_object_routes_call_no_formula(name):
    # The two-route boundary: an oracle never calls a formula, so the
    # enumerators import only the error types and the exact arithmetic.
    path = Path(qpb.__file__).parent / name
    assert _qpb_imports(path) <= {"errors", "exactnum"}


@pytest.mark.parametrize("name", ["objects", "rook"])
def test_object_routes_hold_no_check(name):
    # A check compares two routes, so its home is verify; the enumerators
    # only count.
    module = importlib.import_module(f"qpb.{name}")
    assert [x for x in vars(module) if x.endswith("_check")] == []
