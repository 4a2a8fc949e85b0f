"""The benchmark's tracer (bench/spans.py) wraps and patches package
attributes by name. These tests read it, without importing or changing
it, and check that every such name still resolves in cssgates, and that
every Howell route still passes through the one helper it patches, so a
refactor that drops one fails here rather than in a traced run. The
package's own exports are checked against its modules' lists too, and
monomial's reach search against its one owner."""

import ast
import importlib
from pathlib import Path

import numpy as np

import cssgates
from cssgates import zmod

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _tree():
    return ast.parse(SPANS.read_text(encoding="utf-8"))


def _assigned(tree, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {SPANS.name}")


def test_wrapped_functions_resolve():
    tree = _tree()
    wrapped = _assigned(tree, "_WRAPPED")
    monomial = _assigned(tree, "_MONOMIAL")
    assert wrapped and monomial
    for layer, names in wrapped.items():
        module = importlib.import_module(f"cssgates.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"cssgates.{layer}.{name}"
    module = importlib.import_module("cssgates.monomial")
    for name in monomial:
        assert callable(getattr(module, name, None)), f"cssgates.monomial.{name}"


def test_patched_attributes_resolve():
    # _setattr(target, "name", value): target is a cssgates module, or a
    # dotted path inside one such as zmod.ZModule
    calls = [node for node in ast.walk(_tree())
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_setattr"]
    assert calls
    for call in calls:
        path = ast.unparse(call.args[0]).split(".")
        target = importlib.import_module(f"cssgates.{path[0]}")
        for part in path[1:]:
            target = getattr(target, part)
        name = call.args[1].value
        assert hasattr(target, name), f"cssgates.{'.'.join(path)}.{name}"


def test_every_howell_route_reaches_the_one_entry_point(monkeypatch):
    # the tracer and the count tests rebind zmod._howell; a route that
    # called another helper would drop out of their counts unnoticed
    calls = []
    helper = zmod._howell

    def counted(mat, ell):
        calls.append(len(mat))
        return helper(mat, ell)

    monkeypatch.setattr(zmod, "_howell", counted)
    rows = np.array([[2, 1, 3, 0], [0, 2, 2, 1], [1, 1, 0, 3]])
    mod = zmod.howell_form(rows, 2)
    assert calls == [3]
    other = zmod.howell_form([[0, 0, 1, 1]], 2)
    calls.clear()
    zmod.module_sum(mod, other)
    assert calls == [len(mod.gens) + len(other.gens)]
    calls.clear()
    zmod.kernel_perp(rows, 2)
    # rows no more than n are S as they are: one form of [S^T | I_n]
    assert calls == [4]
    calls.clear()
    zmod.kernel_perp(np.vstack([rows, rows]), 2)
    # rows that outnumber n are canonicalised into S first
    assert calls == [6, 4]
    calls.clear()
    zmod.kernel_perp(mod, 2)
    assert calls == [4]
    # a restricted kernel is one form of [W S^T | W]: flipped rows, a
    # module and flipped generators are taken as they are
    flip = np.array([1, -1, 1, -1])
    for within in (mod, mod.gens * flip):
        calls.clear()
        zmod.kernel_perp(rows * flip, 2, within=within)
        assert calls == [len(mod.gens)]


def test_package_exports_every_module_list():
    modules = [importlib.import_module(f"cssgates.{name}")
               for name in ("bincode", "gates", "monomial", "oracle", "zmod")]
    union = {name for module in modules for name in module.__all__}
    assert "stabilizer_constraints" in union
    assert len(cssgates.__all__) == len(set(cssgates.__all__)) == len(union) + 1
    assert set(cssgates.__all__) == union | {"__version__"}
    for module in modules:
        for name in module.__all__:
            assert getattr(cssgates, name) is getattr(module, name), name


def test_reach_tables_have_one_owner():
    # a spec's reach tables are built by MonomialCodeSpec._reach alone;
    # product_set takes arbitrary sets and has no spec
    source = Path(cssgates.monomial.__file__).read_text(encoding="utf-8")
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_reach_levels":
                callers.append(scope)
            visit(child, inner)

    visit(ast.parse(source), "")
    assert sorted(callers) == ["MonomialCodeSpec._reach", "product_set"]
