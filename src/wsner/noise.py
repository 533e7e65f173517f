"""Label-noise handling for training on automatically annotated data.

``fit`` is the one training pipeline, shared by ``wsner train`` and the
sweep. It runs one of ``METHODS`` with the settings in a ``MethodOptions``
and returns a ``FitResult``: the tagger and the method's channel or
cleaner. Embeddings are frozen, so the caller's table never changes and is
the one to tag with. ``split_config`` builds the ``TaggerConfig`` and
``MethodOptions`` of a flat config document.

* baseline-clean and naive-mix — plain training on the clean sentences,
  or on clean and distant ones with distant labels taken as gold.
* confusion — estimate how gold labels show up as noisy labels on the
  clean subset, then train with plain cross-entropy on clean sentences and
  channel-composed cross-entropy on distant ones; the channel itself stays
  trainable through a row-wise softmax.
* noise-channel — treat every label as possibly noisy and alternate
  posterior inference over clean labels with channel and model updates.
* cleaning — train a small network that maps (noisy label one-hot, tagger
  features) to a corrected label distribution, then train on the cleaned
  soft targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import tagger
from .corpus import Dataset, merge, open_utf8, spans_to_io
from .errors import AlignmentError, EstimationError, NumericsError, ParseError, SchemaError
from .tagger import (
    EmbeddingTable,
    TaggerConfig,
    TaggerParams,
    _sentence_forward,
    _sgd_epoch,
    _train_core,
    make_items,
)

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic matrix: ``matrix[t, y]`` is the probability that
    clean label ``labels[t]`` is observed as noisy label ``labels[y]``."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        m = np.array(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        L = len(self.labels)
        if m.shape != (L, L):
            raise ValueError(f"matrix shape {m.shape} does not match {L} labels")
        if (m < -1e-12).any():
            raise ValueError("matrix entries must be non-negative")
        if np.abs(m.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("matrix rows must sum to 1")

    @classmethod
    def identity(cls, labels) -> "ConfusionMatrix":
        return cls(tuple(labels), np.eye(len(tuple(labels))))

    @classmethod
    def uniform_mix(cls, labels, rho: float) -> "ConfusionMatrix":
        """Identity blended with the uniform channel: (1-rho) I + rho/L."""
        labels = tuple(labels)
        L = len(labels)
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        return cls(labels, (1.0 - rho) * np.eye(L) + rho / L)


def estimate_confusion(pairs, labels, alpha: float = 0.0) -> ConfusionMatrix:
    """Counting estimate with add-alpha smoothing:
    ``C[t, y] = (count(t→y) + alpha) / (count(t→·) + alpha·L)``.

    Unsmoothed rows without observations default to the identity row; no
    pairs at all with ``alpha=0`` is an estimation error.
    """
    labels = tuple(labels)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    index = {lab: i for i, lab in enumerate(labels)}
    L = len(labels)
    counts = np.zeros((L, L))
    n = 0
    for clean_label, noisy_label in pairs:
        try:
            counts[index[clean_label], index[noisy_label]] += 1.0
        except KeyError as exc:
            raise SchemaError(f"unknown label {exc} in pair") from None
        n += 1
    if n == 0 and alpha == 0.0:
        raise EstimationError("no pairs and no smoothing: channel is undefined")
    row_sums = counts.sum(axis=1, keepdims=True)
    denom = row_sums + alpha * L
    matrix = (counts + alpha) / np.where(denom > 0, denom, 1.0)
    if alpha == 0.0:
        empty = row_sums[:, 0] == 0
        matrix[empty] = np.eye(L)[empty]
    return ConfusionMatrix(labels, matrix)


def noisy_forward(clean_dist, channel: ConfusionMatrix) -> np.ndarray:
    """Push a clean-label distribution through the channel:
    ``out[y] = sum_t clean[t] * C[t, y]``. Accepts a single distribution or
    a stack of them."""
    return np.asarray(clean_dist, dtype=float) @ channel.matrix


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
        rows = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                rows.append([float(v) for v in line.split()])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric matrix entry") from None
    try:
        return ConfusionMatrix(labels, np.array(rows))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# clean/noisy pairing


def token_pairs(gold: Dataset, noisy: Dataset) -> list[tuple[str, str]]:
    """Aligned (gold IO tag, noisy IO tag) pairs over two annotations of
    the same sentences."""
    if len(gold.sentences) != len(noisy.sentences):
        raise AlignmentError(
            f"sentence count mismatch: {len(gold.sentences)} vs {len(noisy.sentences)}"
        )
    pairs = []
    for i, (g, d) in enumerate(zip(gold.sentences, noisy.sentences)):
        if len(g.tokens) != len(d.tokens):
            raise AlignmentError(f"sentence {i}: token count mismatch")
        pairs.extend(zip(spans_to_io(g, gold.tag_set.outside),
                         spans_to_io(d, gold.tag_set.outside)))
    return pairs


# ---------------------------------------------------------------------------
# method 1: confusion-matrix channel with a clean/noisy split


def train_confusion_method(
    clean: Dataset,
    distant: Dataset,
    pair_source: Dataset | None,
    config: TaggerConfig,
    table: EmbeddingTable,
    *,
    alpha: float = 1.0,
    channel: ConfusionMatrix | None = None,
    train_channel: bool = True,
) -> tuple[TaggerParams, ConfusionMatrix | None]:
    """Cross-entropy on clean sentences plus channel-composed cross-entropy
    on distant ones.

    The channel initializes from counting (gold, distant) tag pairs over
    ``pair_source`` (the clean sentences re-annotated distantly) with
    add-``alpha`` smoothing, unless an explicit ``channel`` is given. With
    an empty distant set this is exactly plain training on the clean data.
    """
    if not distant.sentences:
        return tagger.train(clean, config, table), None
    labels = clean.tag_set.labels
    if channel is None:
        if pair_source is None:
            raise ValueError("pair_source is required when no channel is given")
        channel = estimate_confusion(token_pairs(clean, pair_source), labels, alpha)
    elif tuple(channel.labels) != tuple(labels):
        raise SchemaError("channel labels do not match the dataset tag set")
    with np.errstate(divide="ignore"):
        logits = np.log(channel.matrix)
    items = make_items(clean, table) + make_items(distant, table, channel=True)
    params, final_logits = _train_core(
        items, config, table, clean.tag_set.size,
        channel_logits=logits, train_channel=train_channel,
    )
    return params, ConfusionMatrix(labels, tagger._softmax(final_logits))


# ---------------------------------------------------------------------------
# method 2: EM-estimated noise channel over a single noisy pool


# EM's default initial channel: the identity blended with this much of the
# uniform channel
EM_CHANNEL_ANCHOR = 0.5


@dataclass
class NoiseChannelState:
    """Channel, per-token posterior over clean labels, and the observed-data
    log-likelihood trace (one value per EM iteration plus a final one)."""

    channel: ConfusionMatrix
    posteriors: np.ndarray
    log_likelihoods: list[float]


def em_noise_channel(
    data: Dataset,
    config: TaggerConfig,
    table: EmbeddingTable,
    em_iterations: int,
    *,
    channel_init: ConfusionMatrix | None = None,
    train_channel: bool = True,
    train_model: bool = True,
) -> tuple[TaggerParams, NoiseChannelState]:
    """Alternate posterior inference with channel and model updates,
    treating every label in *data* as possibly noisy.

    E-step: ``posterior(t | x, y~) ∝ p_model(t | x) · C[t, y~]``. M-step:
    the channel becomes the row-normalized posterior mass per observed
    label (a closed-form maximizer), and the model takes one epoch of SGD
    on the expected cross-entropy (generalized EM), whose soft targets are
    the posteriors. Unless ``channel_init`` is given, the channel starts at
    the identity blended with the uniform channel (``EM_CHANNEL_ANCHOR``),
    so label identities stay pinned.
    """
    if not data.sentences:
        raise ValueError("dataset is empty")
    if em_iterations < 1:
        raise ValueError("em_iterations must be >= 1")
    tag_set = data.tag_set
    L = tag_set.size
    labels = tag_set.labels
    rng = np.random.default_rng(config.seed)
    params = tagger.init_params(rng, "lstm", table.dimension,
                                config.hidden_size, config.feature_size, L)
    if channel_init is None:
        C = ConfusionMatrix.uniform_mix(labels, EM_CHANNEL_ANCHOR).matrix.copy()
    else:
        if tuple(channel_init.labels) != tuple(labels):
            raise SchemaError("channel labels do not match the dataset tag set")
        C = channel_init.matrix.copy()

    items = make_items(data, table)
    noisy = np.concatenate([it.hard for it in items])
    bounds = np.cumsum([0] + [len(it.hard) for it in items])

    def e_step():
        probs = np.vstack([_sentence_forward(params, it.X)[0] for it in items])
        liks = probs * C[:, noisy].T
        mass = liks.sum(axis=1)
        ll = float(np.log(mass).sum())
        if not math.isfinite(ll):
            raise NumericsError("non-finite log-likelihood in E-step")
        return liks / mass[:, None], ll

    lls: list[float] = []
    for _ in range(em_iterations):
        posteriors, ll = e_step()
        lls.append(ll)
        if train_channel:
            counts = np.zeros((L, L))
            np.add.at(counts.T, noisy, posteriors)
            mass = counts.sum(axis=1, keepdims=True)
            C = np.where(mass > 0, counts / np.where(mass > 0, mass, 1.0), C)
        if train_model:
            for it, start, end in zip(items, bounds[:-1], bounds[1:]):
                it.soft = posteriors[start:end]
            _sgd_epoch(params, items, config, rng)
    posteriors, ll = e_step()
    lls.append(ll)
    state = NoiseChannelState(ConfusionMatrix(labels, C), posteriors, lls)
    return params, state


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
                  rng: np.random.Generator, *, hidden_size: int = 32,
                  learning_rate: float = 0.1, epochs: int = 50) -> CleaningParams:
    """Fit the cleaner with per-example SGD on cross-entropy."""
    n, dim = inputs.shape
    if n == 0:
        raise EstimationError("no pairs to train the cleaner on")
    w1 = rng.uniform(-1, 1, size=(hidden_size, dim)) / math.sqrt(dim)
    b1 = np.zeros(hidden_size)
    w2 = rng.uniform(-1, 1, size=(label_count, hidden_size)) / math.sqrt(hidden_size)
    b2 = np.zeros(label_count)
    for _ in range(epochs):
        order = rng.permutation(n)
        for k in order:
            z = inputs[int(k)]
            a = np.tanh(w1 @ z + b1)
            logits = w2 @ a + b2
            p = tagger._softmax(logits)
            dlogits = p
            dlogits[targets[int(k)]] -= 1.0
            da = w2.T @ dlogits
            dpre = da * (1.0 - a ** 2)
            w2 -= learning_rate * np.outer(dlogits, a)
            b2 -= learning_rate * dlogits
            w1 -= learning_rate * np.outer(dpre, z)
            b1 -= learning_rate * dpre
        for arr in (w1, b1, w2, b2):
            if not np.isfinite(arr).all():
                raise NumericsError("non-finite cleaner parameters")
    return CleaningParams(w1, b1, w2, b2)


def _onehot(indices: np.ndarray, L: int) -> np.ndarray:
    out = np.zeros((len(indices), L))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def cleaner_inputs(feats: np.ndarray, noisy_indices: np.ndarray, L: int) -> np.ndarray:
    """Stack noisy one-hots before the tagger feature vectors."""
    return np.concatenate([_onehot(noisy_indices, L), feats], axis=1)


def train_cleaning_method(
    clean: Dataset,
    distant: Dataset,
    pair_source: Dataset | None,
    config: TaggerConfig,
    table: EmbeddingTable,
    *,
    cleaner_hidden: int = 32,
    cleaner_learning_rate: float = 0.1,
    cleaner_epochs: int = 50,
) -> tuple[TaggerParams, CleaningParams | None]:
    """Three phases: fit a base tagger on the clean data for features,
    train the cleaner on (distant tag, gold tag) pairs from the clean
    subset, then train the final tagger on clean hard targets plus cleaned
    soft targets for the distant sentences.

    With an empty distant set this is exactly plain training on clean data.
    """
    if not distant.sentences:
        return tagger.train(clean, config, table), None
    if pair_source is None:
        raise ValueError("pair_source is required to train the cleaner")
    tag_set = clean.tag_set
    L = tag_set.size
    if len(pair_source.sentences) != len(clean.sentences):
        raise AlignmentError("pair_source must re-annotate the clean sentences")

    # phase 0/1: base tagger for features, then the cleaner on clean pairs
    clean_items = make_items(clean, table)
    base_params, _ = _train_core(clean_items, config, table, L,
                                 seed=np.random.SeedSequence([config.seed, 0]))
    feats = []
    noisy_idx = []
    for item, d in zip(clean_items, pair_source.sentences):
        if len(item.hard) != len(d.tokens):
            raise AlignmentError("pair_source token counts do not match clean")
        feats.append(tagger.feature_vectors(item.X, base_params))
        noisy_idx.append(tagger.hard_targets(d, tag_set))
    inputs = cleaner_inputs(np.vstack(feats), np.concatenate(noisy_idx), L)
    cleaner = train_cleaner(
        inputs, np.concatenate([item.hard for item in clean_items]), L,
        np.random.default_rng(np.random.SeedSequence([config.seed, 1])),
        hidden_size=cleaner_hidden, learning_rate=cleaner_learning_rate,
        epochs=cleaner_epochs,
    )

    # phase 2: cleaned soft targets for the distant sentences; a soft target
    # wins over the item's hard (distant) one
    distant_items = make_items(distant, table)
    for item in distant_items:
        sent_feats = tagger.feature_vectors(item.X, base_params)
        item.soft = cleaner.apply(cleaner_inputs(sent_feats, item.hard, L))

    # phase 3: final tagger on hard clean + soft cleaned-distant targets
    params, _ = _train_core(clean_items + distant_items, config, table, L)
    return params, cleaner


# ---------------------------------------------------------------------------
# the one training pipeline


METHODS = ("baseline-clean", "naive-mix", "confusion", "noise-channel", "cleaning")


@dataclass(frozen=True)
class MethodOptions:
    """Settings of the noise methods; each method reads only its own."""

    alpha: float = 1.0  # confusion: add-alpha smoothing of the counted channel
    em_iterations: int = 10  # noise-channel
    noise_channel_data: str = "mix"  # noise-channel: "mix" or "distant-only"
    cleaner_hidden: int = 32  # cleaning
    cleaner_epochs: int = 50  # cleaning
    cleaner_learning_rate: float = 0.1  # cleaning

    def __post_init__(self):
        if self.noise_channel_data not in ("mix", "distant-only"):
            raise ValueError("noise_channel_data must be 'mix' or 'distant-only'")
        for name in ("em_iterations", "cleaner_epochs", "cleaner_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.cleaner_learning_rate > 0:
            raise ValueError("cleaner_learning_rate must be > 0")
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")


TAGGER_KEYS = tuple(f.name for f in fields(TaggerConfig))
OPTION_KEYS = tuple(f.name for f in fields(MethodOptions))


def split_config(doc: dict) -> tuple[TaggerConfig, MethodOptions, dict]:
    """The ``TaggerConfig`` and ``MethodOptions`` set by the keys of a flat
    config document, and the keys that belong to neither."""
    rest = {k: v for k, v in doc.items() if k not in TAGGER_KEYS + OPTION_KEYS}
    return (TaggerConfig(**{k: doc[k] for k in TAGGER_KEYS if k in doc}),
            MethodOptions(**{k: doc[k] for k in OPTION_KEYS if k in doc}), rest)


@dataclass(frozen=True)
class FitResult:
    """What ``fit`` trained: the tagger, and the method's channel or
    cleaner when it has one."""

    params: TaggerParams
    channel: ConfusionMatrix | None = None
    cleaner: CleaningParams | None = None


def fit(method: str, clean: Dataset, distant: Dataset, config: TaggerConfig,
        table: EmbeddingTable, options: MethodOptions,
        pair_source: Callable[[], Dataset]) -> FitResult:
    """Train a tagger with one of ``METHODS``.

    ``pair_source()`` returns the distant annotation of the clean sentences,
    for clean/distant label pairs; only confusion and cleaning call it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    channel = cleaner = None
    if method == "baseline-clean" or not distant.sentences:
        params = tagger.train(clean, config, table)
    elif method == "naive-mix":
        params = tagger.train(merge(clean, distant), config, table)
    elif method == "confusion":
        params, channel = train_confusion_method(clean, distant, pair_source(), config,
                                                 table, alpha=options.alpha)
    elif method == "noise-channel":
        data = merge(clean, distant) if options.noise_channel_data == "mix" else distant
        params, state = em_noise_channel(data, config, table, options.em_iterations)
        channel = state.channel
    else:
        params, cleaner = train_cleaning_method(
            clean, distant, pair_source(), config, table,
            cleaner_hidden=options.cleaner_hidden,
            cleaner_learning_rate=options.cleaner_learning_rate,
            cleaner_epochs=options.cleaner_epochs)
    return FitResult(params, channel, cleaner)
