"""Helpers the tests share and nothing in ``wsner`` calls: a single-sentence
forward pass, a gradient workspace, token accuracy, and synthetic tasks
with a known noise process to train the noise methods on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wsner.corpus import Dataset, LabeledSentence, TagSet, check_aligned
from wsner.synth import _make_sentences, _make_vocabulary, uniform_flip
from wsner.tagger import EmbeddingTable, TaggerParams, _forward_batched, init_params


def forward(tokens, params: TaggerParams, table: EmbeddingTable) -> np.ndarray:
    """Per-token label distributions, shape (len(tokens), L), through the
    batched inference path that ``tagger.predict`` uses."""
    (_, probs), = _forward_batched(params, table, [tokens])
    return probs


def nan_workspace(params: TaggerParams) -> TaggerParams:
    """A gradient workspace for *params* filled with NaN, so that any
    element the backward pass leaves unwritten shows in a comparison."""
    return TaggerParams(*(np.full_like(arr, np.nan) for _, arr in params.arrays()))


def paper_shape_model(vocab: int = 500, seed: int = 0):
    """A tagger of the paper's shape (d=300, h=300, f=128, 3 labels) with
    seeded random weights, and a table of *vocab* random 300-d vectors
    named ``w0``, ``w1``, ..."""
    rng = np.random.default_rng(seed)
    table = EmbeddingTable({f"w{i}": i for i in range(vocab)}, rng.normal(size=(vocab, 300)))
    return init_params(rng, "lstm", 300, 300, 128, 3), table


def token_accuracy(gold: Dataset, pred: Dataset) -> float:
    """Fraction of tokens whose IO label matches gold."""
    check_aligned(gold, pred)
    encode = gold.tag_set.encode
    correct = sum(int((encode(g) == encode(p)).sum())
                  for g, p in zip(gold.sentences, pred.sentences))
    total = gold.num_tokens
    return correct / total if total else 0.0


@dataclass(frozen=True)
class SynthTask:
    clean: Dataset
    distant: Dataset
    pair_source: Dataset
    test: Dataset
    table: EmbeddingTable


def _splits(rng, words, tag_set, entity_rate, *tokens):
    return [Dataset(tuple(_make_sentences(rng, words, tag_set, n, 5, 10, entity_rate)),
                    tag_set)
            for n in tokens]


def make_noise_benchmark(seed: int, *, clean_tokens: int = 200,
                         noisy_tokens: int = 5000, test_tokens: int = 2000,
                         noise_rate: float = 0.3, entity_words: int = 220,
                         outside_words: int = 260, dim: int = 12,
                         centroid_scale: float = 1.0, jitter: float = 1.0,
                         entity_rate: float = 0.55) -> SynthTask:
    """Scarce clean data plus a large uniformly-noised pool over the same
    vocabulary; the test split shares the vocabulary but not the sentences."""
    rng = np.random.default_rng([seed, 0])
    tag_set = TagSet()
    words, table, _ = _make_vocabulary(rng, tag_set, entity_words, outside_words,
                                       dim, centroid_scale, jitter)
    clean, pool, test = _splits(rng, words, tag_set, entity_rate,
                                clean_tokens, noisy_tokens, test_tokens)
    distant = uniform_flip(pool, noise_rate, [seed, 1])
    pair_source = uniform_flip(clean, noise_rate, [seed, 2])
    return SynthTask(clean, distant, pair_source, test, table)


# A fixed row-stochastic channel over the default five IO labels.
RECOVERY_CHANNEL = np.array([
    [0.70, 0.15, 0.05, 0.05, 0.05],
    [0.10, 0.70, 0.10, 0.05, 0.05],
    [0.05, 0.05, 0.75, 0.10, 0.05],
    [0.05, 0.10, 0.05, 0.70, 0.10],
    [0.10, 0.05, 0.05, 0.10, 0.70],
])


def make_feature_noise_task(seed: int, *, clean_tokens: int = 400,
                            noisy_tokens: int = 4000, test_tokens: int = 1500,
                            entity_words: int = 80, outside_words: int = 120,
                            dim: int = 12, centroid_scale: float = 1.2,
                            jitter: float = 0.5, entity_rate: float = 0.5,
                            marker_words: float = 0.5) -> SynthTask:
    """Noise that depends on the input: marked words (marker set in the
    embedding) get their labels rotated to the next entity type; unmarked
    words keep clean labels. A global channel cannot express this."""
    rng = np.random.default_rng([seed, 0])
    tag_set = TagSet()
    words, table, marked = _make_vocabulary(
        rng, tag_set, entity_words, outside_words, dim, centroid_scale,
        jitter, marker_words=marker_words)
    clean, pool, test = _splits(rng, words, tag_set, entity_rate,
                                clean_tokens, noisy_tokens, test_tokens)

    def corrupt(ds: Dataset) -> Dataset:
        n_types = len(tag_set.entity_types)
        out = []
        for sent in ds.sentences:
            noisy = [
                1 + (t % n_types) if (tok in marked and t > 0) else t
                for tok, t in zip(sent.tokens, tag_set.encode(sent).tolist())
            ]
            out.append(LabeledSentence(sent.tokens, tag_set.decode(noisy), "distant"))
        return Dataset(tuple(out), tag_set)

    return SynthTask(clean, corrupt(pool), corrupt(clean), test, table)
