"""Every module-level function and class of ``wsner``, and every method of
such a class other than a dunder, has a caller outside the test suite:
``src/wsner`` or ``perfbench`` names it somewhere other than in its own
definition. Code that only tests call belongs in ``tests/support.py``.
Every parameter of a module-level function of ``wsner`` is read by its
body (methods, which may have to match another class's signature, are
not checked)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wsner"


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


def _is_function(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _unreferenced():
    defined = set()
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        ours = path.parent == PACKAGE
        for stmt in tree.body:
            if _is_function(stmt):
                if ours:
                    defined.add((path.stem, stmt.name))
                used |= _referenced(stmt) - {stmt.name}
            elif isinstance(stmt, ast.ClassDef):
                if ours:
                    defined.add((path.stem, stmt.name))
                for member in stmt.body:
                    if _is_function(member) and not member.name.startswith("__"):
                        if ours:
                            defined.add((path.stem, f"{stmt.name}.{member.name}"))
                        used |= _referenced(member) - {member.name}
                    else:
                        used |= _referenced(member)
                used |= set().union(*map(_referenced, stmt.bases + stmt.decorator_list))
            else:
                used |= _referenced(stmt)
    return {(module, name) for module, name in defined
            if name.rpartition(".")[2] not in used}


def test_every_module_level_definition_has_a_non_test_caller():
    assert _unreferenced() == set()


def _unread_parameters():
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not _is_function(stmt):
                continue
            args = stmt.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {sub.id for body in stmt.body for sub in ast.walk(body)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread |= {(path.stem, stmt.name, a.arg) for a in params if a.arg not in read}
    return unread


def test_every_parameter_of_a_module_level_function_is_read():
    assert _unread_parameters() == set()
