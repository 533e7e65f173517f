"""``LabeledSentence._trusted`` makes a sentence without the constructor's
checks. Only three producers may call it, each of which makes fields that
hold by construction: ``gazetteer.annotate_distant``, the bulk path of
``corpus.read_tokens`` (the ``if bulk:`` branch) and ``tagger.predict``.
A call anywhere else would let a reader of user input skip validation
silently. Every sentence those producers emit equals the one the checking
constructor makes from its fields."""

import ast
import pickle
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wsner.corpus import PROVENANCES, Dataset, EntitySpan, LabeledSentence, TagSet, read_tokens
from wsner.date_rules import DateRuleSet
from wsner.errors import ParseError
from wsner.gazetteer import GazetteerEntry, annotate_distant, build_gazetteer
from wsner.tagger import EmbeddingTable, init_params, predict

from conftest import make_dataset, make_sentence

ROOT = Path(__file__).resolve().parent.parent
TRUSTED = "_trusted"
ALLOWED = {("corpus.py", "read_tokens", "bulk"), ("gazetteer.py", "annotate_distant", ""),
           ("tagger.py", "predict", "")}


def _trusted_uses(tree) -> list[tuple[str, str, int]]:
    """``(function, guard, line)`` of every reference to an attribute named
    ``_trusted`` in *tree*, other than its own definition: the function is
    the innermost one around it, or ``""`` at module level, and the guard
    the test of the innermost ``if`` whose body holds it, or ``""``."""
    found = []

    def visit(node, function, guard):
        if isinstance(node, ast.Attribute) and node.attr == TRUSTED:
            found.append((function, guard, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, guard = node.name, ""
        if isinstance(node, ast.If):
            visit(node.test, function, guard)
            for stmt in node.body:
                visit(stmt, function, ast.unparse(node.test))
            for stmt in node.orelse:
                visit(stmt, function, "")
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function, guard)

    visit(tree, "", "")
    return found


def test_only_the_listed_producers_make_unchecked_sentences():
    found = {}
    for path in sorted((ROOT / "src" / "wsner").glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, guard, line in _trusted_uses(tree):
            if (path.name, function, guard) not in ALLOWED:
                found[f"{path.name}:{line}"] = (function, guard)
    assert found == {}


def test_the_scan_sees_each_use_with_its_function_and_guard():
    tree = ast.parse("def f(bulk, x):\n"
                     "    if bulk:\n"
                     "        return C._trusted(x)\n"
                     "    else:\n"
                     "        C._trusted(x)\n"
                     "    for y in x:\n"
                     "        g = C._trusted\n"
                     "\n"
                     "class C:\n"
                     "    @classmethod\n"
                     "    def _trusted(cls, x):\n"
                     "        return cls._trusted\n"
                     "\n"
                     "h = [C._trusted(1) if z else 0 for z in ()]\n")
    assert _trusted_uses(tree) == [("f", "bulk", 3), ("f", "", 5), ("f", "", 7),
                                   ("_trusted", "", 12), ("", "", 14)]


def _assert_equal_to_checked(sent: LabeledSentence) -> None:
    checked = LabeledSentence(sent.tokens, sent.spans, sent.provenance)
    assert sent == checked and hash(sent) == hash(checked)
    assert vars(sent) == vars(checked) and list(vars(sent)) == list(vars(checked))
    assert type(sent.tokens) is tuple and type(sent.spans) is tuple
    assert pickle.dumps(sent) == pickle.dumps(checked)


# words with tone marks, digits and date keywords, and entries that overlap
# each other and the dates, so the merge keeps and drops candidates
_WORDS = ("Adé", "Ọlá", "Kàno", "ilé", "ọdún", "ODUN", "2018", "8", "²", "Ibadan", "ọjọ́",
          "x", "\ufeff")
_ENTRIES = [GazetteerEntry(tuple(surface.split()), label) for surface, label in (
    ("Adé", "PER"), ("Adé Ọlá", "PER"), ("Ọlá", "ORG"), ("Kàno", "LOC"),
    ("Kàno ilé", "ORG"), ("ọdún", "PER"), ("2018", "ORG"), ("ọdún 2018", "LOC"))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12), min_size=1,
                max_size=5),
       st.booleans())
def test_annotate_distant_emits_what_the_checking_constructor_makes(sentences, lowercase):
    gaz = build_gazetteer(_ENTRIES, lowercase=lowercase)
    rules = DateRuleSet.from_keywords(["odun", "ojo"])
    for date_rules in (rules, None):
        out = annotate_distant(make_dataset([make_sentence(s) for s in sentences]), gaz,
                               date_rules)
        for sent in out.sentences:
            _assert_equal_to_checked(sent)


_RAW_CHARS = st.sampled_from(["a", "ọ́", "K", "2", "\n", "\n", "\n", "\r\n", "\ufeff", "\t",
                              " "])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_RAW_CHARS, max_size=40).map("".join))
def test_read_tokens_emits_what_the_checking_constructor_makes(tmp_path, text):
    path = tmp_path / "raw.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        data = read_tokens(path)
    except ParseError:  # a bad token line, which only the line loop reads
        return
    for sent in data.sentences:
        _assert_equal_to_checked(sent)


_TAG_SET = TagSet(("PER", "LOC", "DATE"))
# a table for six of the words: the others are out of vocabulary
_TABLE = EmbeddingTable({w: k for k, w in enumerate(_WORDS[:6])},
                        np.random.default_rng(0).normal(size=(6, 3)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12),
                          st.sampled_from(PROVENANCES), st.booleans()),
                min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_predict_emits_what_the_checking_constructor_makes(sentences, seed):
    # spans in the input, which predict replaces, and output biases far
    # enough apart that each label wins somewhere
    rng = np.random.default_rng(seed)
    params = init_params(rng, "lstm", 3, 4, 5, _TAG_SET.size)
    params.b_out[:] = rng.normal(scale=2.0, size=_TAG_SET.size)
    data = Dataset(tuple(make_sentence(tokens, [EntitySpan("LOC", 0, 1)] if labeled else (),
                                       provenance)
                         for tokens, provenance, labeled in sentences), _TAG_SET)
    out = predict(data, params, _TABLE)
    assert [s.tokens for s in out.sentences] == [s.tokens for s in data.sentences]
    for sent in out.sentences:
        _assert_equal_to_checked(sent)
