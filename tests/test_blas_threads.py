"""numpy's BLAS thread count is set in one place, ``tagger._pin_blas_threads``,
which runs it on one thread in every ``wsner`` process. Any other module
or function of ``wsner`` that names a BLAS thread variable or a
thread-count setter is a thread policy of its own."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wsner"
PIN = ("tagger.py", "_pin_blas_threads")
THREAD_NAME = re.compile(r"\w*_NUM_THREADS|VECLIB_MAXIMUM_THREADS|set_num_threads")


def _thread_names(text: str, function: str | None) -> list[int]:
    """Lines of *text*, a module's source, that name a BLAS thread variable
    or setter, outside the module-level function *function*."""
    allowed = set()
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            allowed = set(range(node.lineno, node.end_lineno + 1))
    return [lineno for lineno, line in enumerate(text.splitlines(), 1)
            if THREAD_NAME.search(line) and lineno not in allowed]


def test_only_the_pin_names_blas_threads():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        function = PIN[1] if path.name == PIN[0] else None
        found += [f"{path.name}:{line}"
                  for line in _thread_names(path.read_text(encoding="utf-8"), function)]
    assert found == []


def test_the_scan_sees_thread_names_outside_the_pin():
    text = ('"""Set OMP_NUM_THREADS."""\n'
            "def pin():\n    lib.openblas_set_num_threads(1)\n\n"
            "def other():\n    env['VECLIB_MAXIMUM_THREADS'] = '1'\n"
            "    # MKL_NUM_THREADS\n    torch.set_num_threads(2)\n")
    assert _thread_names(text, "pin") == [1, 6, 7, 8]
    assert _thread_names(text, None) == [1, 3, 6, 7, 8]
