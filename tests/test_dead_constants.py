"""No dead knobs or leftovers: every UPPER_CASE module constant of the
package, and every private (leading underscore) module-level function or
class and private method of a module-level class, is read by the package
somewhere other than its own definition.  `KERNEL_BACKEND` is exempt: the
benchmark reports it."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ultraweights"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
EXEMPT = {("__init__.py", "KERNEL_BACKEND")}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for each UPPER_CASE name a module-level assignment binds."""
    out = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                    out.append((name.id, node))
    return out


def _reads(node: ast.AST, name: str) -> int:
    return sum(
        (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name)
        or (isinstance(n, ast.Attribute) and n.attr == name)
        for n in ast.walk(node)
    )


@pytest.mark.parametrize("module", [name for name, tree in _trees().items() if _definitions(tree)])
def test_every_module_constant_is_read_in_src(module):
    trees = _trees()
    definitions = _definitions(trees[module])
    dead = []
    for name, statement in definitions:
        # a read inside its own (or another) defining statement, such as x = f(x), does not count
        own = sum(_reads(s, name) for n, s in definitions if n == name)
        if (module, name) not in EXEMPT and sum(_reads(tree, name) for tree in trees.values()) - own == 0:
            dead.append(name)
    assert dead == [], f"{module}: constants that nothing in src/ reads"


def _helpers(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, definition) for each private module-level function or class and
    each private method of a module-level class; Python itself calls the
    dunder methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, m) for m in node.body if isinstance(m, defs)]
    return [(name, node) for name, node in out if name.startswith("_") and not name.endswith("__")]


@pytest.mark.parametrize("module", [name for name, tree in _trees().items() if _helpers(tree)])
def test_every_private_helper_is_read_in_src(module):
    trees = _trees()
    # a read inside its own definition, such as a recursive call, does not count
    dead = [name for name, node in _helpers(trees[module])
            if sum(_reads(tree, name) for tree in trees.values()) - _reads(node, name) == 0]
    assert dead == [], f"{module}: private helpers that nothing in src/ reads"
