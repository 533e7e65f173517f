"""Every module-level function and class of ``wsner`` has a caller outside
the test suite: ``src/wsner`` or ``perfbench`` names it somewhere other
than in its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wsner"

# Kept for the tests: references and oracles they compare against, and the
# synthetic tasks they train on.
TEST_SUPPORT = {
    ("tagger", "forward"),
    ("tagger", "loss_and_gradient"),
    ("evaluation", "token_accuracy"),
    ("synth", "make_noise_benchmark"),
    ("synth", "make_feature_noise_task"),
}


def _referenced(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _unreferenced():
    defined = set()
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if path.parent == PACKAGE:
                    defined.add((path.stem, own))
            used |= _referenced(stmt) - {own}
    return {(module, name) for module, name in defined if name not in used}


def test_every_module_level_definition_has_a_non_test_caller():
    assert _unreferenced() == TEST_SUPPORT
