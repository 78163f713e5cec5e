"""Source checks that stand in for a linter."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import ffrob

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ffrob"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []



def _names(node):
    """How often each name occurs in node as a Name or an Attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_private_definition_is_referenced():
    # a private def or class that nothing in the package names, outside
    # its own body, is dead code
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(_PACKAGE.glob("*.py"))]
    used = sum(map(_names, trees), Counter())
    private = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert private
    assert [node.name for node in private if used[node.name] == _names(node)[node.name]] == []


def test_every_exported_name_is_used_in_the_package():
    # public API that nothing in the package names, outside its own
    # definition, is deleted; each name kept without a caller says why
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in _MODULES]
    used = sum(map(_names, trees), Counter())
    defs = {
        node.name: node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    unused = {name for name in ffrob.__all__ if used[name] == _names(defs[name])[name]}
    assert unused == {
        # perfbench's tracer spans it until ROADMAP item 4 drops the span
        # and the function
        "elimination_ideal",
        # ROADMAP item 1b gives each FAIL witness a `reverified` field from it
        "reverify_witness",
    }


def test_every_public_function_and_method_is_read_in_the_package():
    # a public function or method that nothing in the package reads is API
    # without a caller, and is deleted; each one kept says why.  A method
    # that overrides a base-class hook is called by the base, so it is left out
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(_PACKAGE.glob("*.py"))
    }
    read = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }
    public = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                public.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                bases = getattr(importlib.import_module(f"ffrob.{stem}"), node.name).__mro__[1:]
                public += [
                    (f"{node.name}.{m.name}", m.name)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not any(hasattr(b, m.name) for b in bases)
                ]
    assert public
    unread = {where for where, name in public if not name.startswith("_") and name not in read}
    assert unread == {
        # ROADMAP item 4b deletes these with their perfbench spans and counts
        "MonomialOrder.key",
        "Polynomial.mul_term",
        "s_polynomial",
        "elimination_ideal",
        # derandomized tests call it, and an edit to their bodies would
        # change the inputs they draw
        "Polynomial.convert",
        # ROADMAP item 1b gives each FAIL witness a `reverified` field from it
        "reverify_witness",
        # the constructor of the lex order, beside grevlex() and block()
        "MonomialOrder.lex",
    }


def test_every_private_constant_and_slot_is_read():
    # a private module-level name or a __slots__ entry that nothing in the
    # package reads is left over from code that is gone
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(_PACKAGE.glob("*.py"))]
    read = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }
    constants = [
        t.id
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(t, ast.Name) and t.id.startswith("_") and not t.id.startswith("__")
    ]
    slots = [
        slot
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
        for slot in ast.literal_eval(node.value)
    ]
    assert constants and slots
    assert [name for name in constants + slots if name not in read] == []


def test_only_ideal_assigns_its_basis_cache():
    # one canonical-form cache: `_gb` is written only by Ideal's own methods
    writes = []  # (where, whether inside class Ideal)
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(n)
            for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name == "Ideal"
            for n in ast.walk(c)
        }
        writes += [
            (f"{path.name}:{t.lineno}", id(t) in inside)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for t in ast.walk(target)
            if isinstance(t, ast.Attribute) and t.attr == "_gb"
        ]
    assert any(ours for _, ours in writes)
    assert [where for where, ours in writes if not ours] == []


def test_only_the_ring_check_raises_ring_mismatch():
    # one decision of whether a polynomial or an ideal lives in a ring,
    # `_check_rings`; `Polynomial.convert` asks another question: the same
    # field and names, in any order
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, where + "." + child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "RingMismatchError":
                    sites.append(where)
            visit(child, where)

    for path in sorted(_PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(sites) == ["poly.Polynomial.convert", "poly._check_rings"]


def test_only_the_singular_locus_builds_a_jacobian():
    # one Jacobian ideal, `frobenius._singular_locus`: the reducedness test
    # and the regularity oracle both read it, and nothing else differentiates
    calls = []  # (called name, where)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, where + "." + child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                calls.append((f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None), where))
            visit(child, where)

    for path in _MODULES:
        if path.name != "poly.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert [where for name, where in calls if name == "derivative"] == ["frobenius._singular_locus"]
    assert sorted(where for name, where in calls if name == "_singular_locus") == [
        "checks.jacobian_regularity_oracle",
        "frobenius.is_reduced",
    ]
