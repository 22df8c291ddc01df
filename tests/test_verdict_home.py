"""One home for a check's verdict: verify and oeis build a "fail"
CheckReport only inside CheckReport.compare."""

import ast
from pathlib import Path

import pytest

import qpb

HOMES = {"compare"}


def _fail_sites(tree: ast.AST) -> list[str]:
    """The enclosing function of every call with a literal "fail"
    argument."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                args = child.args + [kw.value for kw in child.keywords]
                if any(isinstance(a, ast.Constant) and a.value == "fail" for a in args):
                    found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("module", ["verify.py", "oeis.py"])
def test_fail_reports_are_built_in_one_home(module):
    path = Path(qpb.__file__).parent / module
    sites = _fail_sites(ast.parse(path.read_text(), str(path)))
    assert [owner for owner in sites if owner not in HOMES] == []


def test_the_homes_are_found():
    # The scan sees the home, so an empty result above is not vacuous.
    path = Path(qpb.__file__).parent / "verify.py"
    assert set(_fail_sites(ast.parse(path.read_text()))) == HOMES


def test_the_scan_flags_a_fail_built_elsewhere():
    source = (
        "def scan(xs):\n"
        "    for x in xs:\n"
        "        if x:\n"
        "            return CheckReport('c', {}, 'fail', {'x': str(x)})\n"
        "    return CheckReport('c', {}, status='fail', witness={})\n"
    )
    assert _fail_sites(ast.parse(source)) == ["scan", "scan"]
