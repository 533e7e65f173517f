"""Synthetic low-resource tagging tasks.

Words carry a class identity; their embeddings sit near a class centroid
with per-word jitter, so a model can both generalize across words and
memorize individual ones. Noisy twins of gold datasets are produced by
uniform label flips, so the noise process is known exactly.
"""

from __future__ import annotations

import numpy as np

from .corpus import Dataset, LabeledSentence, TagSet
from .tagger import EmbeddingTable


def _make_vocabulary(rng, tag_set: TagSet, entity_words: int, outside_words: int,
                     dim: int, centroid_scale: float, jitter: float):
    """Words per label with centroid-plus-jitter embeddings whose dimension
    0 is 0.0 (free for a caller to mark words in), the table, and an empty
    set: the benchmark's inputs (``perfbench/inputs.py``) unpack three
    values."""
    words_by_label: dict[str, list[str]] = {}
    vocab: dict[str, int] = {}
    vectors = []
    labels = tag_set.labels
    counts = {lab: entity_words for lab in tag_set.entity_types}
    counts["O"] = outside_words
    for lab in labels:
        centroid = rng.normal(0.0, centroid_scale, size=dim)
        centroid[0] = 0.0
        words = []
        for i in range(counts[lab]):
            word = f"{lab.lower()}{i}"
            vec = centroid + rng.normal(0.0, jitter, size=dim)
            vec[0] = 0.0
            vocab[word] = len(vectors)
            vectors.append(vec)
            words.append(word)
        words_by_label[lab] = words
    return words_by_label, EmbeddingTable(vocab, np.array(vectors)), set()


def _make_sentences(rng, words_by_label, tag_set: TagSet, total_tokens: int,
                    min_len: int, max_len: int, entity_rate: float) -> list[LabeledSentence]:
    sentences = []
    produced = 0
    labels = tag_set.labels
    n_types = len(tag_set.entity_types)
    while produced < total_tokens:
        n = int(rng.integers(min_len, max_len + 1))
        tokens = []
        indices = []
        for _ in range(n):
            k = 1 + int(rng.integers(n_types)) if rng.random() < entity_rate else 0
            words = words_by_label[labels[k]]
            tokens.append(words[int(rng.integers(len(words)))])
            indices.append(k)
        sentences.append(LabeledSentence(tuple(tokens), tag_set.decode(indices)))
        produced += n
    return sentences


def uniform_flip(dataset: Dataset, noise_rate: float, seed) -> Dataset:
    """Noisy twin: each token's label flips, with probability
    ``noise_rate``, to a label drawn uniformly from the other labels."""
    rng = np.random.default_rng(seed)
    L = dataset.tag_set.size
    out = []
    for sent in dataset.sentences:
        idx = dataset.tag_set.encode(sent)
        flips = rng.random(len(idx)) < noise_rate
        offsets = rng.integers(1, L, size=len(idx))
        noisy = np.where(flips, (idx + offsets) % L, idx)
        out.append(LabeledSentence(sent.tokens, dataset.tag_set.decode(noisy), "distant"))
    return Dataset(tuple(out), dataset.tag_set)
