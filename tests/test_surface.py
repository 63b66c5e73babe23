"""Every public function, class and method under src/tabrobust/ has a
reader, and every parameter of every function there is read.

A public name must be named in src/, bench/ or tests/test_acceptance.py
outside its own definition: as a name, an attribute, an import, or a
string that is exactly the name (bench/tracing.py looks call sites up by
string). A name only other tests reach is surface nothing needs.

A parameter other than `self` and `cls` must be read in its function's
body, nested functions included; the few that callers or a fixed
callback signature require are listed with their reasons.

No `assert` statement is in src/tabrobust/: `python -O` strips them, so
a check the library relies on raises instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tabrobust").rglob("*.py"))
READERS = [*SOURCES, *sorted((ROOT / "bench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]
# `eval_with_gradient`: the derivative counterpart of `evaluate_expr`, which
# bench/wide.py calls; deleting it would only move its body into the tests of
# expression gradients. `And`: no constraint file can state it, but criterion 2
# draws it through `conftest.random_constraint`, so the engine must keep it.
# (conftest.py is not a reader: every test imports it, so it would hide names
# that only tests use.)
EXCEPTIONS = {"eval_with_gradient", "And"}


def _public_defs(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (m.name for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _named(node: ast.AST, inside: frozenset = frozenset()):
    """Names read under `node`, skipping a definition's reads of itself."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    for name in (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "value", None) if isinstance(node, ast.Constant) else None,
                 node.name if isinstance(node, ast.alias) else None):
        if isinstance(name, str) and name not in inside:
            yield name
    for child in ast.iter_child_nodes(node):
        yield from _named(child, inside)


def test_every_public_name_has_a_reader():
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    defined = {name for path in SOURCES for name in _public_defs(trees[path])}
    read = {name for tree in trees.values() for name in _named(tree)}
    unread = sorted(defined - read - EXCEPTIONS)
    assert not unread, f"public names nothing outside the tests reads: {unread}"


# "module.qualified.name(parameter)" -> why it stays unread.
UNREAD_PARAMETERS = {
    "engine.penalty(cfg)": "criterion 2 calls penalty(con, x, cfg)",
    "engine.penalty_gradient(cfg)": "criterion 2 calls penalty_gradient(con, x, cfg)",
    "harness.evaluate(workers)": "criterion 11 and the bench pass it (ROADMAP item 1)",
    "harness.budget_sweep(workers)": "criterion 11 and the bench pass it (ROADMAP item 1)",
    "defense.adversarial_train.hook(epoch)": "`train`'s batch-hook signature",
    "expressions._no_backward(adj)": "the backward-step signature",
    "expressions._no_backward(grad)": "the backward-step signature",
    "expressions.SafeDiv._compile.derivs(out)": "`_binary`'s derivative signature",
}


def _unread_parameters(node: ast.AST, prefix: str):
    """Each unread parameter of the functions under `node`, as
    "prefix.qualified.name(parameter)"."""
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}.{getattr(child, 'name', '')}"
        if isinstance(child, ast.FunctionDef):
            a = child.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p and p.arg not in ("self", "cls")]
            read = {n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from (f"{name}({p})" for p in params if p not in read)
        yield from _unread_parameters(
            child, name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else prefix
        )


def test_every_parameter_is_read():
    src = ROOT / "src" / "tabrobust"
    unread = {
        found for path in SOURCES
        for found in _unread_parameters(
            ast.parse(path.read_text()), ".".join(path.relative_to(src).with_suffix("").parts)
        )
    }
    extra = sorted(unread - UNREAD_PARAMETERS.keys())
    assert not extra, f"parameters nothing reads: {extra}"
    stale = sorted(UNREAD_PARAMETERS.keys() - unread)
    assert not stale, f"listed as unread, but read: {stale}"


def test_no_assert_in_the_library():
    found = [f"{path.relative_to(ROOT)}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements, which python -O strips: {found}"
