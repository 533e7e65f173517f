import json

import numpy as np
import pytest

from wsner.corpus import Dataset, EntitySpan, LabeledSentence, TagSet
from wsner import tagger
from wsner.make_synth import write_synth_corpus
from wsner.tagger import EmbeddingTable


@pytest.fixture
def tag_set():
    return TagSet()


@pytest.fixture
def small_tag_set():
    return TagSet(("PER", "LOC"))


def make_sentence(tokens, spans=(), provenance="gold"):
    return LabeledSentence(tuple(tokens), tuple(spans), provenance)


def make_dataset(sentences, tag_set=None):
    return Dataset(tuple(sentences), tag_set or TagSet())


@pytest.fixture
def tiny_table():
    rng = np.random.default_rng(99)
    vocab = {f"w{i}": i for i in range(10)}
    return EmbeddingTable(vocab, rng.normal(size=(10, 4)))


@pytest.fixture
def parse_calls(monkeypatch):
    """The paths whose embeddings text is parsed while the test runs."""
    calls = []
    parse = tagger._parse_vectors

    def spy(path):
        calls.append(str(path))
        return parse(path)

    monkeypatch.setattr(tagger, "_parse_vectors", spy)
    return calls


def random_sentences(rng, n_sentences, tag_set, vocab_size=50, max_len=12):
    """Random sentences with random non-overlapping spans (adjacent spans
    of the same type allowed, which IO encoding cannot express)."""
    sentences = []
    for _ in range(n_sentences):
        n = int(rng.integers(1, max_len + 1))
        tokens = tuple(f"t{int(rng.integers(vocab_size))}" for _ in range(n))
        spans = []
        pos = 0
        while pos < n:
            if rng.random() < 0.4:
                length = int(rng.integers(1, min(3, n - pos) + 1))
                label = tag_set.entity_types[int(rng.integers(len(tag_set.entity_types)))]
                spans.append(EntitySpan(label, pos, pos + length))
                pos += length
            else:
                pos += 1
        sentences.append(LabeledSentence(tokens, tuple(spans)))
    return sentences


# the bundled sweep config cut to a tiny tagger and one repeat
TINY_SWEEP = {"clean_budgets": [40, "unlimited"], "repeats": 1, "hidden_size": 4,
              "feature_size": 4, "epochs": 1, "em_iterations": 1, "cleaner_epochs": 2}


def write_tiny_sweep(root, **overrides) -> dict[str, str]:
    """The bundled synthetic corpus at a tiny size, its config updated with
    ``TINY_SWEEP`` and *overrides*; returns name -> path as
    ``write_synth_corpus`` does."""
    paths = write_synth_corpus(str(root), seed=0, train_tokens=80, test_tokens=30,
                               extra_tokens=30)
    with open(paths["config"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(TINY_SWEEP, **overrides)
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return paths
