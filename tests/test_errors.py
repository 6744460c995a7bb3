import ast
import pathlib

import pytest

import fgl
from fgl.coeffring import CoeffElem, CoeffRingSpec
from fgl.errors import SpecMismatch
from fgl.series import TruncSeries

SOURCES = sorted(pathlib.Path(fgl.__file__).parent.glob("*.py"))
# the functions that parse user input, where a ValueError is the CLI's exit-1
# usage error (all of fgl.cli parses user input)
PARSE_SITES = {
    "coeffring.py": ("CoeffRingSpec.__post_init__",),
    "deltaring.py": ("parse_delta_ring", "_parse_poly", "sheaf_eval"),
    "grouprings.py": ("AbelianPType.parse",),
}


def _nodes_with_scope(path):
    """Every AST node of ``path`` with the dotted name of its enclosing
    classes and functions."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield from walk(child, inner)
    return walk(ast.parse(path.read_text(), str(path)), "")


def _raised_name(node):
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            return exc.id
    return None


def test_no_assert_or_runtime_error_in_library():
    # every library failure is an FGLError subclass; an assert vanishes
    # under python -O and a RuntimeError escapes the CLI's exit-2 handler
    found = []
    for path in SOURCES:
        for _, node in _nodes_with_scope(path):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif _raised_name(node) == "RuntimeError":
                found.append(f"{path.name}:{node.lineno} raise RuntimeError")
    assert SOURCES
    assert found == []


def test_value_error_only_where_user_input_is_parsed():
    # elsewhere a ValueError is a programming error the CLI would misreport
    # as a usage error
    found = []
    for path in SOURCES:
        if path.name == "cli.py":
            continue
        sites = PARSE_SITES.get(path.name, ())
        for scope, node in _nodes_with_scope(path):
            if _raised_name(node) == "ValueError" and not any(
                    scope == s or scope.startswith(s + ".") for s in sites):
                found.append(f"{path.name}:{node.lineno} raise ValueError in {scope}")
    assert found == []


def test_no_fractions_import_in_library():
    found = []
    for path in SOURCES:
        for _, node in _nodes_with_scope(path):
            if isinstance(node, ast.Import) and any(
                    alias.name == "fractions" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_malformed_elements_are_spec_mismatch():
    spec = CoeffRingSpec(p=3, p_precision=2, deformation_params=1, u_degree_cap=2)
    one = CoeffElem.one(spec)
    x = TruncSeries.variable(spec, ("x", "y"), 4, "x")
    no_u = CoeffRingSpec(p=3, p_precision=2)
    with pytest.raises(SpecMismatch):
        CoeffElem(no_u, [1, 1])
    with pytest.raises(SpecMismatch):
        TruncSeries(spec, ("x",), 4, {(1, 0): one})
    with pytest.raises(SpecMismatch):
        x.coefficient((1,))
    with pytest.raises(SpecMismatch):
        x.subst({"x": x})
    with pytest.raises(SpecMismatch):  # a constant series has no variable to substitute
        TruncSeries.one(spec, (), None).subst({})
    with pytest.raises(SpecMismatch):  # a rename must be injective
        x.rename(("x", "y"), 4, {"x": "y"})
    with pytest.raises(SpecMismatch):  # into names of the target ring
        x.rename(("x", "z"), 4)


# definitions that no name in src/fgl reaches but that are called from outside it
CALLED_FROM_OUTSIDE = {
    ("cli.py", "_Parser.error"): "argparse calls it on a usage error",
}


def test_every_definition_is_used_or_exported():
    # a function or class that nothing in the library names, and that
    # fgl/__init__ does not export, has no caller
    used, defined = set(), []
    for path in SOURCES:
        for scope, node in _nodes_with_scope(path):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                used.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.append((path.name, f"{scope}.{node.name}" if scope else node.name))
    unused = [f"{name} ({path})" for path, name in defined
              if name.rpartition(".")[2] not in used and (path, name) not in CALLED_FROM_OUTSIDE]
    assert defined
    assert unused == []
