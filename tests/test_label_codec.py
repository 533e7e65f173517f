"""Only ``corpus`` converts between spans and IO tags: every other module of
``wsner`` gets label indices from ``TagSet.encode`` and spans from
``TagSet.decode``, so the IO label order is known in one module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wsner"
TAG_CONVERSIONS = {"io_to_spans", "bio_to_spans"}


def _conversions_used(path) -> set[str]:
    """The tag conversions *path* calls or passes around (a plain import,
    such as the package's re-export, is not a use)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used & TAG_CONVERSIONS


def test_only_corpus_converts_between_spans_and_tags():
    used = {path.name: _conversions_used(path) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "corpus.py"}
    assert {name: found for name, found in used.items() if found} == {}
