"""Label-noise handling for training on automatically annotated data.

``fit`` is the one training pipeline, shared by ``wsner train`` and the
sweep. It runs one of ``METHODS`` with the settings in a ``MethodOptions``
and returns the tagger and the method's channel, if it has one.
``require_inputs`` is the one rule for what each method trains on, which
``fit``, ``wsner train`` and the sweep check before any work; no method
falls back to another when its data is missing. Confusion and cleaning
pair each clean sentence with its twin in the distant data themselves.
Embeddings are frozen, so the caller's table never changes and is the one
to tag with. ``load_settings`` reads the ``TaggerConfig`` and
``MethodOptions`` of a flat JSON config file, for ``wsner train`` and the
sweep alike.

* baseline-clean and naive-mix — plain training on the clean sentences,
  or on clean and distant ones with distant labels taken as gold.
* confusion — estimate how gold labels show up as noisy labels on the
  clean subset, then train with plain cross-entropy on clean sentences and
  channel-composed cross-entropy on distant ones; the channel itself stays
  trainable through a row-wise softmax.
* noise-channel — treat every label of the clean and distant sentences
  alike as possibly noisy and alternate ``_em_step``, whose E-step is the
  channel posterior that confusion's channel items train towards, with an
  epoch towards those posteriors: ``em_iterations`` epochs in all, and
  ``TaggerConfig.epochs`` is not read.
* cleaning — train a small network that maps (noisy label one-hot, tagger
  features) to a corrected label distribution, then train on the cleaned
  soft targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tagger
from .corpus import Dataset, check_aligned, merge, open_utf8, read_config
from .errors import AlignmentError, EstimationError, NumericsError, ParseError, WsnerError
from .gazetteer import distant_twin
from .tagger import (
    EmbeddingTable,
    TaggerConfig,
    TaggerParams,
    _sentence_forward,
    _sgd_epoch,
    _train_core,
    channel_posterior,
    embedded,
    make_items,
    require_integers,
)

ROW_SUM_TOL = 1e-9


# ---------------------------------------------------------------------------
# methods and their settings


# what each method trains on: clean sentences, distant sentences, and the
# distant twin of every clean sentence (see ``require_inputs``)
_NEEDS = {"baseline-clean": {"clean"}, "naive-mix": {"distant"}, "confusion": {"distant", "twins"},
          "noise-channel": {"distant"}, "cleaning": {"clean", "distant", "twins"}}
METHODS = tuple(_NEEDS)


@dataclass(frozen=True)
class MethodOptions:
    """Settings of the noise methods; each method reads only its own."""

    alpha: float = 1.0  # confusion: add-alpha smoothing of the counted channel
    em_iterations: int = 10  # noise-channel: EM rounds of one SGD epoch each; epochs is unread
    cleaner_hidden: int = 32  # cleaning
    cleaner_epochs: int = 50  # cleaning
    cleaner_learning_rate: float = 0.1  # cleaning

    def __post_init__(self):
        require_integers(self, ("em_iterations", "cleaner_epochs", "cleaner_hidden"), 1)
        if not 0 < self.cleaner_learning_rate < math.inf:  # also refuses NaN
            raise ValueError("cleaner_learning_rate must be > 0 and finite")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be >= 0 and finite")


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic matrix: ``matrix[t, y]`` is the probability that
    clean label ``labels[t]`` is observed as noisy label ``labels[y]``;
    each label names one row and column, so a repeated label is refused."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        m = np.array(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        L = len(self.labels)
        if len(set(self.labels)) < L:
            raise ValueError(f"repeated label {max(self.labels, key=self.labels.count)!r}")
        if m.shape != (L, L):
            raise ValueError(f"matrix shape {m.shape} does not match {L} labels")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if (m < -1e-12).any():
            raise ValueError("matrix entries must be non-negative")
        if np.abs(m.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("matrix rows must sum to 1")


def estimate_confusion(clean: np.ndarray, noisy: np.ndarray, labels,
                       alpha: float = 0.0) -> ConfusionMatrix:
    """Counting estimate over the aligned label-index arrays *clean* and
    *noisy* (indices into *labels*), with add-alpha smoothing:
    ``C[t, y] = (count(t→y) + alpha) / (count(t→·) + alpha·L)``.

    Unsmoothed rows without observations default to the identity row; no
    pairs at all with ``alpha=0`` is an estimation error.
    """
    labels = tuple(labels)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    L = len(labels)
    counts = np.zeros((L, L))
    np.add.at(counts, (clean, noisy), 1.0)
    if len(clean) == 0 and alpha == 0.0:
        raise EstimationError("no pairs and no smoothing: channel is undefined")
    row_sums = counts.sum(axis=1, keepdims=True)
    denom = row_sums + alpha * L
    matrix = (counts + alpha) / np.where(denom > 0, denom, 1.0)
    if alpha == 0.0:
        empty = row_sums[:, 0] == 0
        matrix[empty] = np.eye(L)[empty]
    return ConfusionMatrix(labels, matrix)


def save_confusion(channel: ConfusionMatrix, path) -> None:
    """Text serialization: a header naming the label order, then one row of
    decimal floats per clean label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# labels: " + " ".join(channel.labels) + "\n")
        for row in channel.matrix:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_confusion(path) -> ConfusionMatrix:
    with open_utf8(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# labels:"):
            raise ParseError(f"{path}:1: expected '# labels: ...' header")
        labels = tuple(header[len("# labels:"):].split())
        if len(set(labels)) < len(labels):
            raise ParseError(f"{path}:1: repeated label {max(labels, key=labels.count)!r}")
        rows = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                rows.append([float(v) for v in line.split()])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric matrix entry") from None
            if len(rows[-1]) != len(labels):
                raise ParseError(f"{path}:{lineno}: expected {len(labels)} values, "
                                 f"got {len(rows[-1])}")
    try:
        return ConfusionMatrix(labels, np.array(rows))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# clean/noisy pairing


def _label_pairs(clean_items, clean: Dataset,
                 pair_source: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The gold and the noisy label index of every clean token: gold from
    the items of the clean sentences, noisy from *pair_source*, their
    distant annotation, encoded in the clean tag set (a label outside it
    is a ``SchemaError``)."""
    check_aligned(clean, pair_source)
    none = np.zeros(0, dtype=np.int64)  # no clean sentences give no pairs
    return (np.concatenate([none, *(item.hard for item in clean_items)]),
            np.concatenate([none, *map(clean.tag_set.encode, pair_source.sentences)]))


# ---------------------------------------------------------------------------
# method 1: confusion-matrix channel with a clean/noisy split


def train_confusion_method(
    clean: Dataset,
    distant: Dataset,
    pair_source: Dataset,
    config: TaggerConfig,
    table: EmbeddingTable,
    options: MethodOptions = MethodOptions(),
) -> tuple[TaggerParams, ConfusionMatrix]:
    """Cross-entropy on clean sentences plus channel-composed cross-entropy
    on distant ones.

    The channel initializes from counting (gold, distant) tag pairs over
    ``pair_source``, the distant annotation of the clean sentences, with
    add-``options.alpha`` smoothing.
    """
    labels = clean.tag_set.labels
    clean_items = make_items(clean, table)
    channel = estimate_confusion(*_label_pairs(clean_items, clean, pair_source), labels,
                                 options.alpha)
    with np.errstate(divide="ignore"):
        logits = np.log(channel.matrix)
    items = clean_items + make_items(distant, table, channel=True)
    params, final_logits = _train_core(items, config, table, clean.tag_set.size,
                                       channel_logits=logits)
    return params, ConfusionMatrix(labels, tagger._softmax(final_logits))


# ---------------------------------------------------------------------------
# method 2: EM-estimated noise channel over a single noisy pool


# EM's initial channel: the identity blended with this much of the uniform
# channel, so label identities stay pinned
EM_CHANNEL_ANCHOR = 0.5


def _em_step(params: TaggerParams, items, table: EmbeddingTable, noisy, C):
    """One EM step over *items*, whose rows index *table* and whose stacked
    noisy label indices are *noisy*: every token's ``channel_posterior``
    under the model and ``C`` (E-step), the channel of the M-step (the
    row-normalized posterior mass per observed label, a closed-form
    maximizer; a row without mass keeps its value) and the E-step's
    observed-data log-likelihood."""
    probs = np.vstack([_sentence_forward(params, embedded(table, it.rows, params.dtype))[0]
                       for it in items])
    # a q of 0 makes 0 / 0 posteriors and log 0; the check comes first
    with np.errstate(divide="ignore", invalid="ignore"):
        posteriors, q = channel_posterior(probs, C, noisy)
        ll = float(np.log(q).sum())
    if not math.isfinite(ll):
        raise NumericsError("non-finite log-likelihood in E-step")
    counts = np.zeros_like(C)
    np.add.at(counts.T, noisy, posteriors)
    mass = counts.sum(axis=1, keepdims=True)
    return posteriors, np.where(mass > 0, counts / np.where(mass > 0, mass, 1.0), C), ll


def em_noise_channel(data: Dataset, config: TaggerConfig, table: EmbeddingTable,
                     em_iterations: int) -> tuple[TaggerParams, ConfusionMatrix]:
    """The tagger and channel of ``em_iterations`` rounds of ``_em_step``,
    each followed by an epoch of SGD towards the step's posteriors as soft
    targets (generalized EM), treating every label in *data* as noisy. The
    channel starts at the identity blended with the uniform channel."""
    if not data.sentences:
        raise ValueError("dataset is empty")
    L = data.tag_set.size
    rng = np.random.default_rng(config.seed)
    params = tagger._training_params(tagger.init_params(
        rng, "lstm", table.dimension, config.hidden_size, config.feature_size, L))
    C = (1.0 - EM_CHANNEL_ANCHOR) * np.eye(L) + EM_CHANNEL_ANCHOR / L
    items = make_items(data, table)
    noisy = np.concatenate([it.hard for it in items])
    splits = np.cumsum([len(it.hard) for it in items])[:-1]
    for _ in range(em_iterations):
        posteriors, C, _ = _em_step(params, items, table, noisy, C)
        for it, soft in zip(items, np.split(posteriors, splits)):
            it.soft = soft
        _sgd_epoch(params, items, table, config, rng)
    return params, ConfusionMatrix(data.tag_set.labels, C)


# ---------------------------------------------------------------------------
# method 3: feature-conditioned label cleaning


@dataclass
class CleaningParams:
    """One-hidden-layer network mapping (noisy one-hot ⧺ feature vector) to
    a distribution over labels."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def apply(self, inputs: np.ndarray) -> np.ndarray:
        """Cleaned distributions for a stack of input rows."""
        hidden = np.tanh(inputs @ self.w1.T + self.b1)
        logits = hidden @ self.w2.T + self.b2
        return tagger._softmax(logits)


def train_cleaner(inputs: np.ndarray, targets: np.ndarray, label_count: int,
                  rng: np.random.Generator, *, hidden_size: int,
                  learning_rate: float, epochs: int) -> CleaningParams:
    """Fit the cleaner with per-example SGD on cross-entropy, every update
    through ``tagger._sgd_step``, the one update rule. The weight gradients
    are formed in two buffers allocated once per call, so an example's
    update allocates no weight-sized array."""
    n, dim = inputs.shape
    if n == 0:
        raise EstimationError("no pairs to train the cleaner on")
    w1 = rng.uniform(-1, 1, size=(hidden_size, dim)) / math.sqrt(dim)
    b1 = np.zeros(hidden_size)
    w2 = rng.uniform(-1, 1, size=(label_count, hidden_size)) / math.sqrt(hidden_size)
    b2 = np.zeros(label_count)
    g1 = np.empty_like(w1)
    g2 = np.empty_like(w2)
    for _ in range(epochs):
        for k in rng.permutation(n):
            z = inputs[int(k)]
            a = np.tanh(w1 @ z + b1)
            dlogits = tagger._softmax(w2 @ a + b2)
            dlogits[targets[int(k)]] -= 1.0
            dpre = (w2.T @ dlogits) * (1.0 - a ** 2)
            np.multiply(dlogits[:, None], a, out=g2)
            np.multiply(dpre[:, None], z, out=g1)
            tagger._sgd_step(((w2, g2), (b2, dlogits), (w1, g1), (b1, dpre)), learning_rate)
        if not all(np.isfinite(arr).all() for arr in (w1, b1, w2, b2)):
            raise NumericsError("non-finite cleaner parameters")
    return CleaningParams(w1, b1, w2, b2)


def cleaner_inputs(feats: np.ndarray, noisy_indices: np.ndarray, L: int) -> np.ndarray:
    """Stack noisy one-hots before the tagger feature vectors."""
    return np.concatenate([np.eye(L)[noisy_indices], feats], axis=1)


def train_cleaning_method(
    clean: Dataset,
    distant: Dataset,
    pair_source: Dataset,
    config: TaggerConfig,
    table: EmbeddingTable,
    options: MethodOptions,
) -> tuple[TaggerParams, CleaningParams]:
    """Three phases: fit a base tagger on the clean data for features,
    train the cleaner on (distant tag, gold tag) pairs from the clean
    subset, then train the final tagger on clean hard targets plus cleaned
    soft targets for the distant sentences.

    The base tagger is baseline-clean's tagger of the same clean data and
    config, bit for bit: ``_train_core`` on the same items, seeded with
    ``config.seed`` alone. The cleaner draws from a stream of its own,
    ``[config.seed, 1]``.
    """
    L = clean.tag_set.size
    clean_items = make_items(clean, table)
    gold, noisy = _label_pairs(clean_items, clean, pair_source)

    # phase 0/1: base tagger for features, then the cleaner on clean pairs
    base_params, _ = _train_core(clean_items, config, table, L)
    feats = np.vstack([tagger.feature_vectors(embedded(table, item.rows, base_params.dtype),
                                              base_params)
                       for item in clean_items])
    cleaner = train_cleaner(
        cleaner_inputs(feats, noisy, L), gold, L,
        np.random.default_rng(np.random.SeedSequence([config.seed, 1])),
        hidden_size=options.cleaner_hidden, learning_rate=options.cleaner_learning_rate,
        epochs=options.cleaner_epochs,
    )

    # phase 2: cleaned soft targets for the distant sentences; a soft target
    # wins over the item's hard (distant) one
    distant_items = make_items(distant, table)
    for item in distant_items:
        sent_feats = tagger.feature_vectors(embedded(table, item.rows, base_params.dtype),
                                            base_params)
        item.soft = cleaner.apply(cleaner_inputs(sent_feats, item.hard, L))

    # phase 3: final tagger on hard clean + soft cleaned-distant targets
    params, _ = _train_core(clean_items + distant_items, config, table, L)
    return params, cleaner


# ---------------------------------------------------------------------------
# the one training pipeline


TAGGER_KEYS = tuple(f.name for f in fields(TaggerConfig))
OPTION_KEYS = tuple(f.name for f in fields(MethodOptions))


def load_settings(path, overrides: dict | None = None, keys=(), build=None):
    """The settings of the flat JSON config file *path* (none without a
    path) updated with *overrides*: the ``TaggerConfig`` and
    ``MethodOptions`` of its tagger and method keys, or what
    ``build(config, options, rest)`` makes of them and of *rest*, the
    values of the other *keys* it holds. Any other key, and every value
    refused with a ``TypeError`` or ``ValueError``, is a ``WsnerError``
    that starts with ``PATH: ``."""
    doc = {**(read_config(path) if path else {}), **(overrides or {})}
    try:
        unknown = doc.keys() - {*TAGGER_KEYS, *OPTION_KEYS, *keys}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config = TaggerConfig(**{k: doc[k] for k in TAGGER_KEYS if k in doc})
        options = MethodOptions(**{k: doc[k] for k in OPTION_KEYS if k in doc})
        if build is None:
            return config, options
        return build(config, options, {k: doc[k] for k in keys if k in doc})
    except (TypeError, ValueError) as exc:
        raise WsnerError(f"{path}: {exc}") from None


def require_inputs(methods, clean: Dataset, distant: Dataset, clean_name: str = "clean data",
                   distant_name: str = "distant data") -> Dataset | None:
    """Refuse *clean* and *distant* unless they hold what each of *methods*
    trains on, and return the distant twins of the clean sentences when one
    of them pairs (``distant_twin``), else None. baseline-clean needs clean
    sentences, naive-mix and noise-channel distant ones, confusion distant
    sentences and a twin for every clean one, and cleaning clean and
    distant sentences and the twins. A missing source is a ``WsnerError``
    and a clean sentence without a twin an ``AlignmentError``; either
    message starts with the *clean_name* or *distant_name* it concerns."""
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        for kind, data, name in (("clean", clean, clean_name), ("distant", distant, distant_name)):
            if kind in _NEEDS[method] and not data.sentences:
                raise WsnerError(f"{name}: no sentences; {method} needs {kind} sentences")
    if not any("twins" in _NEEDS[method] for method in methods):
        return None
    try:
        return distant_twin(clean, distant)
    except AlignmentError as exc:
        raise AlignmentError(f"{clean_name} vs {distant_name}: {exc}") from None


def fit(method: str, clean: Dataset, distant: Dataset, config: TaggerConfig,
        table: EmbeddingTable,
        options: MethodOptions) -> tuple[TaggerParams, ConfusionMatrix | None]:
    """The tagger that one of ``METHODS`` trains, and its channel when it has
    one, after ``require_inputs`` has checked *clean* and *distant*.

    Confusion and cleaning pair each clean sentence with its distant twin,
    its first token-identical sentence in *distant* (``distant_twin``);
    noise-channel runs EM over the clean and distant sentences together,
    ``options.em_iterations`` rounds of one SGD epoch each, and ignores
    ``config.epochs``.
    """
    twins = require_inputs((method,), clean, distant)
    if method == "baseline-clean":
        return tagger.train(clean, config, table), None
    if method == "naive-mix":
        return tagger.train(merge(clean, distant), config, table), None
    if method == "confusion":
        return train_confusion_method(clean, distant, twins, config, table, options)
    if method == "noise-channel":
        return em_noise_channel(merge(clean, distant), config, table, options.em_iterations)
    return train_cleaning_method(clean, distant, twins, config, table, options)[0], None
