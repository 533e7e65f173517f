"""Every trained array of ``wsner`` is updated by ``tagger._sgd_step``, the
one SGD update: the tagger's parameters, the channel logits and the label
cleaner's weights. An in-place subtraction of a computed value anywhere
else is an update rule of its own; subtracting a constant, such as the
``dlogits[t] -= 1.0`` of a cross-entropy gradient, is not."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wsner"
UPDATE_RULE = "_sgd_step"


def _subtractions(tree) -> list[tuple[str, int]]:
    """``(function, line)`` of every ``x -= expr`` in *tree* whose right
    side is not a constant; the function is the innermost one around it,
    or ``""`` at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.AugAssign) and isinstance(child.op, ast.Sub)
                    and not isinstance(child.value, ast.Constant)):
                found.append((function, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, "")
    return found


def test_only_the_sgd_step_subtracts_in_place():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, line in _subtractions(tree):
            if function != UPDATE_RULE:
                found[f"{path.name}:{line}"] = function
    assert found == {}


def test_the_scan_sees_subtractions_and_their_functions():
    tree = ast.parse("def f(a, b):\n    a -= 0.5 * b\n    a[0] -= 1.0\n\n"
                     "class C:\n    def g(self, w, g):\n        w -= g\n\n"
                     "x -= y\n")
    assert _subtractions(tree) == [("f", 2), ("g", 7), ("", 9)]
