"""Source checks that stand in for a linter."""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ffrob

from conftest import CAP_S

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
        # perfbench's tracer spans them until ROADMAP item 4 drops the spans
        # and the functions
        "elimination_ideal",
        "poly_ideal_intersect",
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
        # perfbench's tracer spans it until ROADMAP item 4 drops the span,
        # as for elimination_ideal
        "poly_ideal_intersect",
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
    calls = _calls()
    assert [where for name, where in calls if name == "derivative"] == ["frobenius._singular_locus"]
    assert sorted(where for name, where in calls if name == "_singular_locus") == [
        "checks.jacobian_regularity_oracle",
        "frobenius.is_reduced",
    ]


def _calls():
    """(called name, where) for every call in the package's modules, where
    being module.function or module.Class.method."""
    calls = []

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
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return calls


def test_one_packed_ideal_layer():
    # one intersection, `groebner._intersect`, and one exact division,
    # `_divexact`: `ideals._Lift` keeps both packed for Ideal and the checks,
    # and the public polynomial functions are their only other entry points;
    # `_eliminated` is the one elimination, and each caller projects its result
    calls = _calls()

    def sites(name):
        return sorted(where for called, where in calls if called == name)

    assert sites("_intersect") == ["groebner.poly_ideal_intersect", "ideals._Lift.meet"]
    assert sites("_divexact") == ["groebner.poly_divexact", "ideals._Lift.divide"]
    assert sites("_eliminated") == [
        "frobenius.frobenius_kernel_preimage",
        "groebner._intersect",
        "groebner.elimination_ideal",
    ]


def test_one_frobenius_exponent_and_one_intersection_fold():
    # one rule for q = p^e, `poly._frobenius_q`: it alone refuses e < 0 and
    # caps e at 32; one left fold, `checks._fold`, builds the sides of the
    # family identity and of the principal one, the family against (x)
    sources = [path.read_text(encoding="utf-8") for path in _MODULES]
    assert sum(src.count("Frobenius exponent must be nonnegative") for src in sources) == 1
    assert sum(src.count("min(e, 32)") for src in sources) == 1
    calls = _calls()

    def sites(name):
        return sorted(where for called, where in calls if called == name)

    assert sites("_frobenius_q") == [
        "frobenius.bracket_power",
        "frobenius.frobenius_root",
        "ideals._Lift.__init__",
        "poly.Polynomial.frobenius_power",
    ]
    assert sites("_fold") == ["checks._intersection_family_sides", "checks._principal_sides"]


def test_values_are_namedtuples_and_checked_ones_check_replace():
    # a value type is a namedtuple subclass, which compares and hashes by
    # value; only the four plain classes write their own.  `_replace`
    # builds through `_make`, which bypasses `__new__` unless the class
    # routes it back there
    classes = [
        node
        for path in sorted(_PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]

    def defines(node, name):
        return any(
            isinstance(m, ast.FunctionDef) and m.name == name
            or isinstance(m, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in m.targets)
            for m in node.body
        )

    records = [
        node
        for node in classes
        if any(isinstance(b, ast.Call) and getattr(b.func, "id", None) == "namedtuple" for b in node.bases)
    ]
    assert {node.name for node in classes if defines(node, "__eq__") or defines(node, "__hash__")} == {
        "PolyRing",
        "Polynomial",
        "Ideal",
        "QuotientRing",
    }
    checked = [node.name for node in records if defines(node, "__new__")]
    assert sorted(checked) == ["MonomialOrder", "PrimeField", "SamplerConfig"]
    assert [node.name for node in records if defines(node, "__new__") and not defines(node, "_make")] == []


def test_the_cli_starts_without_the_dataclasses_import_chain():
    # `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`, which
    # every `ffor` start-up would pay for; the records are namedtuples
    imported = [
        (path.name, node.module if isinstance(node, ast.ImportFrom) else alias.name)
        for path in sorted(_PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported
    assert [(name, module) for name, module in imported if module == "dataclasses"] == []
    # -S: no site, so nothing is loaded that the package does not load itself
    script = (
        f"import sys; sys.path.insert(0, {str(_PACKAGE.parent)!r}); import ffrob.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=30)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def test_the_time_cap_is_above_every_subprocess_timeout():
    # conftest's per-test cap must not end a test before its own subprocess
    # timeout can: every `timeout=` in the suite is a literal below CAP_S
    timeouts = [
        (path.name, ast.literal_eval(kw.value))
        for path in sorted(Path(__file__).resolve().parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "timeout"
    ]
    assert timeouts
    assert [(name, t) for name, t in timeouts if not t < CAP_S] == []
