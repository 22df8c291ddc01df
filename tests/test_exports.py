"""Export lists: every name a module lists in __all__ exists, once; no
module imports or reads another's private names; and the object routes
import no formula route."""

import ast
import importlib
import inspect
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


# What objects and rook export: the oracles and boards that verify, the
# package root and the benchmark read.  The listing specifications that
# only the tests read live in tests/reference_objects.py.
OBJECT_ROUTE_EXPORTS = {
    "objects": {"fubini_oracle", "ordered_q_oracle", "class_poly", "vesztergombi_oracle"},
    "rook": {"Board", "q_rook_number", "rotate_180", "block_over", "full_board", "lower_triangular",
             "upper_triangular", "secondary_staircase", "build_v_matrix"},
}


def _names_read_from(module: str, path: Path) -> set[str]:
    """The names a source file reads from the qpb module: m.x on the bare
    module name, and x in "from .m import x" or "from qpb.m import x"."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").removeprefix("qpb").lstrip(".") == module:
            names |= {a.name for a in node.names}
    return names


@pytest.mark.parametrize("name", sorted(OBJECT_ROUTE_EXPORTS))
def test_object_routes_export_only_what_another_module_reads(name):
    module = importlib.import_module(f"qpb.{name}")
    assert set(module.__all__) == OBJECT_ROUTE_EXPORTS[name]
    package = Path(qpb.__file__).parent
    paths = [path for path in sorted(package.glob("*.py")) if path.stem != name]
    paths += sorted((package.parent.parent / "perfbench").glob("*.py"))
    read = set().union(*(_names_read_from(name, path) for path in paths))
    assert sorted(OBJECT_ROUTE_EXPORTS[name] - read) == []


@pytest.mark.parametrize("name", sorted(OBJECT_ROUTE_EXPORTS))
def test_object_routes_export_every_public_definition(name):
    # A public function or class of an object route is one that another
    # module reads, so it is exported; one only the tests read lives in
    # tests/reference_objects.py.
    module = importlib.import_module(f"qpb.{name}")
    public = [x for x, obj in vars(module).items()
              if not x.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert sorted(set(public) - set(module.__all__)) == []
