"""Helpers the tests share and nothing in ``wsner`` calls: the batched forward
pass split by sentence, a single-sentence one, a gradient workspace, token
accuracy, frozen references of the token reader, the CoNLL writer, the tag
decoders, the parameter draw and the digit rule, synthetic tasks with a
known noise process to train the noise methods on, a paper-shape gradient
digest with the BLAS thread count it ran at, sweep row functions that add a
digest of what each cell trained, and the environment the tests' byte pins
were taken in."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from wsner import experiment, noise, tagger
from wsner.corpus import (Dataset, EntitySpan, LabeledSentence, TagSet, check_aligned,
                          has_whitespace, open_utf8, spans_to_bio)
from wsner.errors import ParseError, SchemaError
from wsner.synth import _make_sentences, _make_vocabulary, uniform_flip
from wsner.tagger import (EmbeddingTable, TaggerParams, TrainItem, _forward_batched,
                          _item_loss_grads, init_params)


def sentence_probs(params: TaggerParams, table: EmbeddingTable, token_lists):
    """``(index, probs)`` for every token sequence of the list
    ``token_lists``, in the order the batched inference path that
    ``tagger.predict`` uses tags them: each batch's distributions split by
    sentence."""
    pairs = []
    for batch, probs in _forward_batched(params, table, token_lists):
        ends = np.cumsum([len(token_lists[i]) for i in batch.tolist()])
        pairs += zip(batch.tolist(), np.split(probs, ends[:-1]))
    return pairs


def stacked_table(blocks) -> tuple[EmbeddingTable, list[np.ndarray]]:
    """A table whose matrix stacks the (T, d) arrays *blocks*, and the row
    indices of each block in it: ``embed_rows`` of a block's rows gives the
    block back, bit for bit, so that a training item can stand for any
    input rows."""
    ends = np.cumsum([len(block) for block in blocks])
    table = EmbeddingTable({}, np.vstack(blocks))
    return table, [np.arange(end - len(block), end) for block, end in zip(blocks, ends)]


def forward(tokens, params: TaggerParams, table: EmbeddingTable) -> np.ndarray:
    """Per-token label distributions, shape (len(tokens), L), through the
    batched inference path that ``tagger.predict`` uses."""
    (_, probs), = sentence_probs(params, table, [tokens])
    return probs


def use_threads(monkeypatch, on: bool) -> None:
    """Run the LSTM's two directions on two threads (*on*) or on one, in
    training and in the batched forward, whatever the model's size and the
    host's CPUs."""
    monkeypatch.setattr(tagger, "_THREAD_WEIGHTS", 1 if on else math.inf)
    monkeypatch.setattr(tagger, "_cpu_count", lambda: 2)
    monkeypatch.setattr(tagger, "_sharing_processes", 1)


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


def paper_shape_grads_digest(tokens: int = 20) -> str:
    """sha256 of the loss and every parameter gradient of one seeded
    *tokens*-token sentence through the tagger of ``paper_shape_model``."""
    params, table = paper_shape_model()
    rng = np.random.default_rng(1)
    rows = table.row_indices([f"w{i}" for i in rng.integers(0, len(table), size=tokens)])
    item = TrainItem(rows, hard=rng.integers(0, 3, tokens))
    loss, grads, _ = _item_loss_grads(params, table.embed_rows(rows), item,
                                      grads=nan_workspace(params))
    digest = hashlib.sha256(np.float64(loss).tobytes())
    for _, g in grads.arrays():
        digest.update(g.tobytes())
    return digest.hexdigest()


def blas_thread_count() -> int:
    """The thread count of the OpenBLAS numpy ships, as its getter reports it."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    getter = lib.scipy_openblas_get_num_threads64_
    getter.argtypes, getter.restype = (), ctypes.c_int
    return getter()


def blas_report(cell) -> dict:
    """A sweep worker's row function that reports, for any *cell*, its
    process's BLAS thread count and ``paper_shape_grads_digest``."""
    return {"threads": blas_thread_count(), "digest": paper_shape_grads_digest()}


_CELL_ROW = experiment._cell_row

# The (python, numpy, BLAS) that the tests' byte pins were taken with;
# another environment may round differently, so there a pin is skipped,
# neither passed nor failed.
PINNED_ENVIRONMENT = ("3.11", "2.4.6", "scipy-openblas")


def environment() -> tuple[str, str, str]:
    """This process's python minor version, numpy version and BLAS name."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.25
        blas = "unknown"
    return f"{sys.version_info[0]}.{sys.version_info[1]}", np.__version__, blas


def cell_row_with_fit_digest(ctx, *cell) -> dict:
    """The sweep's runs.csv row of *cell*, its status followed by the sha256
    of the parameters that ``noise.fit`` trained for it, which the row's
    scores alone may not tell apart."""
    digests = []

    def spy(*args):
        params, channel = fit(*args)
        digests.append(hashlib.sha256(b"".join(a.tobytes() for _, a in params.arrays())))
        return params, channel

    fit, noise.fit = noise.fit, spy
    try:
        row = _CELL_ROW(ctx, *cell)
    finally:
        noise.fit = fit
    row["status"] += "".join(f" {d.hexdigest()}" for d in digests)
    return row


def worker_row_with_fit_digest(cell) -> dict:
    """``cell_row_with_fit_digest`` as a sweep worker's row function."""
    return cell_row_with_fit_digest(experiment._worker_ctx, *cell)


def run_python(code: str, threads: str | None, *args: str) -> str:
    """The output of ``python -c code args`` with ``src`` and this directory
    on its path and ``OPENBLAS_NUM_THREADS`` set to *threads*, or unset for
    ``None``, so that the BLAS starts with that many threads."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(os.path.dirname(here), "src"),
                                                      here]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def frozen_init_params(rng, embed_dim: int, hidden_size: int, feature_size: int,
                       label_count: int) -> TaggerParams:
    """``tagger.init_params`` with every shape and fan-in written out, frozen
    as the reference of its draws from the shape table."""
    gate = 4 * hidden_size

    def u(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    w_in_f = u((gate, embed_dim), embed_dim)
    u_f = u((gate, hidden_size), hidden_size)
    w_in_b = u((gate, embed_dim), embed_dim)
    u_b = u((gate, hidden_size), hidden_size)
    w_feat = u((feature_size, 2 * hidden_size), 2 * hidden_size)
    w_out = u((label_count, feature_size), feature_size)
    return TaggerParams(
        w_in_f, u_f, np.zeros(gate),
        w_in_b, u_b, np.zeros(gate),
        w_feat, np.zeros(feature_size),
        w_out, np.zeros(label_count),
    )


# The date rules' digit rule as a pattern: whole tokens like "8" or "2018",
# not "8th" or "08:30".
DIGITS_ONLY = re.compile(r"[0-9]+")


def line_loop_read_tokens(path) -> Dataset:
    """``corpus.read_tokens`` as a loop over the lines of the open file,
    frozen as the reference of its bulk split."""
    sentences = []
    tokens: list[str] = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                if tokens:
                    sentences.append(LabeledSentence(tuple(tokens), (), "distant"))
                    tokens = []
                continue
            token = line.split("\t")[0]
            if not token or has_whitespace(token):
                raise ParseError(f"{path}:{lineno}: bad token line {line!r}")
            tokens.append(token)
    if tokens:
        sentences.append(LabeledSentence(tuple(tokens), (), "distant"))
    return Dataset(tuple(sentences))


def per_token_write_conll(dataset: Dataset, path) -> None:
    """``corpus.write_conll`` as one formatted line per token of the
    ``spans_to_bio`` tags, frozen as the reference of its span-run writer."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent in dataset.sentences:
            fh.write("".join([f"{token}\t{tag}\n" for token, tag
                              in zip(sent.tokens, spans_to_bio(sent))]) + "\n")


def frozen_bio_to_spans(tags: list[str], tag_set: TagSet | None = None) -> list[EntitySpan]:
    """``corpus.bio_to_spans`` as a loop over the tags with its own span
    bookkeeping, frozen as the reference of the decoder over label runs."""
    tag_set = tag_set or TagSet()
    known = set(tag_set.entity_types)
    spans: list[EntitySpan] = []
    start = None
    current = None

    def close(end: int) -> None:
        nonlocal start, current
        if current is not None:
            spans.append(EntitySpan(current, start, end))
        start = current = None

    for i, tag in enumerate(tags):
        if tag == "O":
            close(i)
            continue
        if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI":
            raise SchemaError(f"position {i}: unknown tag {tag!r}")
        prefix, label = tag[0], tag[2:]
        if label not in known:
            raise SchemaError(f"position {i}: unknown entity type {label!r}")
        if prefix == "B" or current != label:
            close(i)
            start, current = i, label
    close(len(tags))
    return spans


def frozen_io_to_spans(tags: list[str], tag_set: TagSet | None = None) -> list[EntitySpan]:
    """``corpus.io_to_spans`` as a loop over the tags with its own span
    bookkeeping, frozen as the reference of the decoder over label runs."""
    tag_set = tag_set or TagSet()
    known = set(tag_set.entity_types)
    spans: list[EntitySpan] = []
    start = None
    current = None
    for i, tag in enumerate(tags):
        if tag != "O" and tag not in known:
            raise SchemaError(f"position {i}: unknown tag {tag!r}")
        if tag != current:
            if current is not None and current != "O":
                spans.append(EntitySpan(current, start, i))
            start, current = i, tag
    if current is not None and current != "O":
        spans.append(EntitySpan(current, start, len(tags)))
    return spans


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
    """Noise that depends on the input: marked words (embedding dimension 0
    set to 2.0 on the first *marker_words* fraction of each entity type's
    words) get their labels rotated to the next entity type; unmarked
    words keep clean labels. A global channel cannot express this."""
    rng = np.random.default_rng([seed, 0])
    tag_set = TagSet()
    words, table, _ = _make_vocabulary(rng, tag_set, entity_words, outside_words,
                                       dim, centroid_scale, jitter)
    marked = {word for lab in tag_set.entity_types
              for word in words[lab][:int(entity_words * marker_words)]}
    matrix = table.matrix.copy()
    matrix[[table.vocab[word] for word in marked], 0] = 2.0
    # a new table, so that its unknown-word vector is the mean of the marked matrix
    table = EmbeddingTable(table.vocab, matrix)
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
