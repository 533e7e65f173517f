"""Compact bidirectional recurrent tagger trained from scratch.

Architecture: pretrained embedding lookup, a bidirectional recurrent layer
(LSTM by default, a plain tanh cell behind a config switch), a linear
feature layer, and a linear classifier producing per-token label
distributions. Training is plain SGD with per-sentence updates; all
randomness (parameter init, shuffling) flows from one seeded generator, so
runs are bit-reproducible.

Everything is float64 numpy; gradients are exact (they are checked against
central finite differences in the test suite).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, LabeledSentence, TagSet, io_to_spans, spans_to_io
from .errors import NumericsError, ParseError

CELLS = ("lstm", "rnn")


# ---------------------------------------------------------------------------
# embeddings


class EmbeddingTable:
    """Token → vector lookup with a mean-vector fallback for unknowns.

    The unknown vector is the arithmetic mean of all rows, computed once at
    construction; with frozen embeddings (the default) neither the matrix
    nor the fallback changes during training.
    """

    def __init__(self, vocab: dict[str, int], matrix):
        self.vocab = dict(vocab)
        self.matrix = np.array(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] < 1:
            raise ValueError("embedding matrix must be 2-D with at least one row")
        if not np.isfinite(self.matrix).all():
            raise ValueError("embedding matrix contains non-finite values")
        for token, row in self.vocab.items():
            if not 0 <= row < self.matrix.shape[0]:
                raise ValueError(f"row index out of range for {token!r}")
        self.unk = self.matrix.mean(axis=0)

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        """Read word-vector text format: first line ``|V| d``, then one
        ``token v1 ... vd`` per line (space-separated). Duplicate tokens
        keep the first occurrence."""
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            parts = header.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:1: expected header '|V| d'")
            try:
                count, dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"{path}:1: expected header '|V| d'") from None
            if count < 1 or dim < 1:
                raise ParseError(f"{path}:1: vector count and dimension must be >= 1")
            matrix = np.empty((count, dim), dtype=float)
            vocab: dict[str, int] = {}
            row = 0
            for lineno, line in enumerate(fh, 2):
                fields = line.rstrip("\n").split(" ")
                if len(fields) == 1 and not fields[0]:
                    continue
                if row >= count:
                    raise ParseError(f"{path}:{lineno}: more rows than the header announced")
                if len(fields) != dim + 1:
                    raise ParseError(
                        f"{path}:{lineno}: expected {dim + 1} fields, got {len(fields)}"
                    )
                try:
                    matrix[row] = [float(v) for v in fields[1:]]
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric vector value") from None
                vocab.setdefault(fields[0], row)
                row += 1
        if row != count:
            raise ParseError(f"{path}: header announced {count} rows, found {row}")
        return cls(vocab, matrix)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.matrix.shape[0]} {self.matrix.shape[1]}\n")
            inverse = {row: tok for tok, row in self.vocab.items()}
            for r in range(self.matrix.shape[0]):
                vec = " ".join(repr(float(v)) for v in self.matrix[r])
                fh.write(f"{inverse.get(r, f'row{r}')} {vec}\n")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def index(self, token: str) -> int:
        """Row index, or -1 for out-of-vocabulary tokens."""
        return self.vocab.get(token, -1)

    def row_indices(self, tokens) -> np.ndarray:
        return np.array([self.index(t) for t in tokens], dtype=np.int64)

    def embed_rows(self, rows: np.ndarray) -> np.ndarray:
        X = self.matrix[np.maximum(rows, 0)]
        oov = rows < 0
        if oov.any():
            X[oov] = self.unk
        return X

    def lookup(self, token: str) -> np.ndarray:
        r = self.index(token)
        return self.matrix[r].copy() if r >= 0 else self.unk.copy()

    def embed(self, tokens) -> np.ndarray:
        return self.embed_rows(self.row_indices(tokens))

    def apply_update(self, rows: np.ndarray, dX: np.ndarray, lr: float) -> None:
        """SGD step on the looked-up rows (fine-tuning only)."""
        for t, r in enumerate(rows):
            if r >= 0:
                self.matrix[r] -= lr * dX[t]
            else:
                self.unk -= lr * dX[t]


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class TaggerConfig:
    hidden_size: int = 300
    feature_size: int = 128
    learning_rate: float = 0.01
    epochs: int = 10
    seed: int = 0
    fine_tune_embeddings: bool = False
    cell: str = "lstm"
    label_count: int | None = None

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.feature_size < 1:
            raise ValueError("feature_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.cell not in CELLS:
            raise ValueError(f"cell must be one of {CELLS}")


@dataclass
class TaggerParams:
    """All trainable matrices; field order is the canonical iteration and
    checkpoint order."""

    cell: str
    w_in_f: np.ndarray
    u_f: np.ndarray
    b_f: np.ndarray
    w_in_b: np.ndarray
    u_b: np.ndarray
    b_b: np.ndarray
    w_feat: np.ndarray
    b_feat: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    _FIELDS = ("w_in_f", "u_f", "b_f", "w_in_b", "u_b", "b_b",
               "w_feat", "b_feat", "w_out", "b_out")

    def arrays(self):
        return [(name, getattr(self, name)) for name in self._FIELDS]

    def copy(self) -> "TaggerParams":
        return TaggerParams(self.cell, *(getattr(self, n).copy() for n in self._FIELDS))

    def zeros_like(self) -> "TaggerParams":
        return TaggerParams(
            self.cell, *(np.zeros_like(getattr(self, n)) for n in self._FIELDS)
        )

    @property
    def hidden_size(self) -> int:
        return self.u_f.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.w_in_f.shape[1]

    @property
    def feature_size(self) -> int:
        return self.w_feat.shape[0]

    @property
    def label_count(self) -> int:
        return self.w_out.shape[0]

    @property
    def num_parameters(self) -> int:
        return sum(arr.size for _, arr in self.arrays())

    def check_finite(self) -> None:
        for name, arr in self.arrays():
            if not np.isfinite(arr).all():
                raise NumericsError(f"non-finite values in parameter {name}")


def init_params(rng: np.random.Generator, cell: str, embed_dim: int,
                hidden_size: int, feature_size: int, label_count: int) -> TaggerParams:
    """Uniform ±1/sqrt(fan-in) weights, zero biases; draw order is fixed."""
    if cell not in CELLS:
        raise ValueError(f"cell must be one of {CELLS}")
    gate = 4 * hidden_size if cell == "lstm" else hidden_size

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
        cell,
        w_in_f, u_f, np.zeros(gate),
        w_in_b, u_b, np.zeros(gate),
        w_feat, np.zeros(feature_size),
        w_out, np.zeros(label_count),
    )


# ---------------------------------------------------------------------------
# forward / backward


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# Per-gate scale for the fused nonlinearity, gate order [i, f, g, o]:
# sigmoid(x) = s*tanh(s*x) + s with s = 1/2, and tanh(x) = 1*tanh(1*x) + 0.
_GATE_SCALE = np.array([[0.5], [0.5], [1.0], [0.5]])
_GATE_SHIFT = np.array([[0.5], [0.5], [0.0], [0.5]])
_GATE_SCALE.flags.writeable = False
_GATE_SHIFT.flags.writeable = False


def _lstm_forward(w, u, b, X):
    """LSTM over the rows of ``X`` (T, d), starting from zero state.

    ``w`` (4h, d), ``u`` (4h, h) and ``b`` (4h,) stack the gates in the
    order [i, f, g, o]: input, forget, candidate, output. The sigmoid gates
    use sigma(x) = (1 + tanh(x/2)) / 2, so one ``tanh`` call per timestep
    covers all four gates and large preactivations cannot overflow.

    Returns the hidden states ``Hs`` (T, h) and the cache
    ``(X, A, Cs, TC, Hs)``: ``A`` (T, 4h) holds the gate activations
    [I, F, G, O] in the same order, ``Cs`` the cell states and ``TC``
    their tanh.
    """
    T = X.shape[0]
    h = u.shape[1]
    A = X @ w.T
    A += b
    gates = A.reshape(T, 4, h)
    Cs = np.empty((T, h))
    TC = np.empty((T, h))
    Hs = np.empty((T, h))
    c_prev = np.zeros(h)
    for t in range(T):
        if t:
            A[t] += u @ h_prev
        a = gates[t]
        a *= _GATE_SCALE
        np.tanh(a, out=a)
        a *= _GATE_SCALE
        a += _GATE_SHIFT
        i, f, g, o = a
        c, tc, h_prev = Cs[t], TC[t], Hs[t]
        np.multiply(f, c_prev, out=c)
        c += i * g
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_prev)
        c_prev = c
    return Hs, (X, A, Cs, TC, Hs)


def _cell_grads(w, X, Hs, dA):
    """Weight, recurrent, bias and input gradients of a recurrent cell
    from the preactivation gradients ``dA`` of every timestep."""
    return dA.T @ X, dA[1:].T @ Hs[:-1], dA.sum(axis=0), dA @ w


def _lstm_backward(w, u, cache, dHs):
    X, A, Cs, TC, Hs = cache
    T, h = Hs.shape
    I, F, G, O = A.reshape(T, 4, h).transpose(1, 0, 2)
    C_prev = np.zeros((T, h))
    C_prev[1:] = Cs[:-1]
    # Per gate, dA[t] = dc * DC[t] + dh * DO[t]: the activation derivative
    # (a(1 - a) for sigmoid, 1 - g^2 for tanh) times what the gate multiplies
    # in c = f*c_prev + i*g or h = o*tanh(c). Only the o block needs dh, so
    # DC's o block is zero and DO holds the o block alone.
    DC = np.stack([G * I * (1.0 - I), C_prev * F * (1.0 - F),
                   I * (1.0 - G * G), np.zeros((T, h))], axis=1)
    DO = TC * O * (1.0 - O)
    OT = O * (1.0 - TC * TC)
    dA = np.empty((T, 4 * h))
    dA_gates = dA.reshape(T, 4, h)
    dh = dHs[T - 1]
    dc = dh * OT[T - 1]
    for t in range(T - 1, -1, -1):
        np.multiply(DC[t], dc, out=dA_gates[t])
        np.multiply(dh, DO[t], out=dA_gates[t, 3])
        if t:
            dh = dA[t] @ u
            dh += dHs[t - 1]
            dc *= F[t]
            dc += dh * OT[t - 1]
    return _cell_grads(w, X, Hs, dA)


def _rnn_forward(w, u, b, X):
    T = X.shape[0]
    h = u.shape[1]
    Hs = np.empty((T, h))
    pre = X @ w.T + b
    hp = np.zeros(h)
    for t in range(T):
        Hs[t] = np.tanh(pre[t] + u @ hp)
        hp = Hs[t]
    return Hs, (X, Hs)


def _rnn_backward(w, u, cache, dHs):
    X, Hs = cache
    D = 1.0 - Hs * Hs
    dA = np.empty_like(Hs)
    T = Hs.shape[0]
    np.multiply(dHs[T - 1], D[T - 1], out=dA[T - 1])
    for t in range(T - 2, -1, -1):
        da = dA[t]
        np.matmul(dA[t + 1], u, out=da)
        da += dHs[t]
        da *= D[t]
    return _cell_grads(w, X, Hs, dA)


def _sentence_forward(params: TaggerParams, X: np.ndarray):
    cell_fwd = _lstm_forward if params.cell == "lstm" else _rnn_forward
    hs_f, cache_f = cell_fwd(params.w_in_f, params.u_f, params.b_f, X)
    hs_b_rev, cache_b = cell_fwd(params.w_in_b, params.u_b, params.b_b, X[::-1])
    H = np.concatenate([hs_f, hs_b_rev[::-1]], axis=1)
    feats = H @ params.w_feat.T + params.b_feat
    logits = feats @ params.w_out.T + params.b_out
    probs = _softmax(logits)
    return probs, (cache_f, cache_b, H, feats)


def _sentence_backward(params: TaggerParams, cache, dlogits: np.ndarray,
                       grads: TaggerParams) -> np.ndarray:
    cache_f, cache_b, H, feats = cache
    h = params.hidden_size
    grads.w_out += dlogits.T @ feats
    grads.b_out += dlogits.sum(axis=0)
    dfeats = dlogits @ params.w_out
    grads.w_feat += dfeats.T @ H
    grads.b_feat += dfeats.sum(axis=0)
    dH = dfeats @ params.w_feat
    cell_bwd = _lstm_backward if params.cell == "lstm" else _rnn_backward
    dw, du, db, dX_f = cell_bwd(params.w_in_f, params.u_f, cache_f, dH[:, :h])
    grads.w_in_f += dw
    grads.u_f += du
    grads.b_f += db
    dw, du, db, dX_b = cell_bwd(params.w_in_b, params.u_b, cache_b, dH[::-1, h:])
    grads.w_in_b += dw
    grads.u_b += du
    grads.b_b += db
    return dX_f + dX_b[::-1]


# ---------------------------------------------------------------------------
# per-sentence loss, shared by plain and channel-composed training


@dataclass
class TrainItem:
    """One sentence prepared for training: embedding row indices, cached
    embeddings (frozen mode), and hard or soft targets."""

    rows: np.ndarray
    X: np.ndarray | None
    hard: np.ndarray | None = None
    soft: np.ndarray | None = None
    channel: bool = False


def _item_loss_grads(params, X, item: TrainItem, C: np.ndarray | None = None,
                     want_channel_grad: bool = False):
    probs, cache = _sentence_forward(params, X)
    T = X.shape[0]
    dC = None
    if item.soft is not None:
        w = item.soft
        with np.errstate(divide="ignore"):
            lp = np.log(probs)
        loss = -np.where(w > 0.0, w * lp, 0.0).sum() / T
        dlogits = (probs - w) / T
    elif item.channel and C is not None:
        y = item.hard
        ct = C[:, y].T
        pc = probs * ct
        q = pc.sum(axis=1)
        loss = -np.log(q).sum() / T
        dlogits = (probs - pc / q[:, None]) / T
        if want_channel_grad:
            dC = np.zeros_like(C)
            dq = -1.0 / (q * T)
            np.add.at(dC.T, y, probs * dq[:, None])
    else:
        y = item.hard
        idx = np.arange(T)
        loss = -np.log(probs[idx, y]).sum() / T
        dlogits = probs.copy()
        dlogits[idx, y] -= 1.0
        dlogits /= T
    grads = params.zeros_like()
    dX = _sentence_backward(params, cache, dlogits, grads)
    return loss, grads, dC, dX


def hard_targets(sentence: LabeledSentence, tag_set: TagSet) -> np.ndarray:
    tags = spans_to_io(sentence, tag_set.outside)
    return np.array([tag_set.index(t) for t in tags], dtype=np.int64)


def make_items(dataset: Dataset, table: EmbeddingTable, *, channel: bool = False,
               cache: bool = True) -> list[TrainItem]:
    items = []
    for sent in dataset.sentences:
        rows = table.row_indices(sent.tokens)
        X = table.embed_rows(rows) if cache else None
        items.append(TrainItem(rows, X, hard=hard_targets(sent, dataset.tag_set),
                               channel=channel))
    return items


def _row_softmax(B: np.ndarray) -> np.ndarray:
    z = B - B.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _train_core(items: list[TrainItem], config: TaggerConfig, table: EmbeddingTable,
                label_count: int, *, channel_logits: np.ndarray | None = None,
                train_channel: bool = False, seed=None):
    """Seeded SGD over per-sentence steps; items flagged ``channel`` are
    scored through the current row-softmax of ``channel_logits``.

    Returns the trained parameters and the (possibly updated) channel
    logits.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    params = init_params(rng, config.cell, table.dimension, config.hidden_size,
                         config.feature_size, label_count)
    B = None if channel_logits is None else np.array(channel_logits, dtype=float)
    lr = config.learning_rate
    for epoch in range(config.epochs):
        order = rng.permutation(len(items))
        for k in order:
            item = items[int(k)]
            X = item.X if item.X is not None else table.embed_rows(item.rows)
            use_channel = item.channel and B is not None
            C = _row_softmax(B) if use_channel else None
            loss, grads, dC, dX = _item_loss_grads(
                params, X, item, C=C,
                want_channel_grad=use_channel and train_channel,
            )
            if not np.isfinite(loss):
                raise NumericsError(f"non-finite loss in epoch {epoch}")
            for (_, arr), (_, g) in zip(params.arrays(), grads.arrays()):
                arr -= lr * g
            if dC is not None:
                s = (dC * C).sum(axis=1, keepdims=True)
                B -= lr * (C * (dC - s))
            if config.fine_tune_embeddings:
                table.apply_update(item.rows, dX, lr)
        params.check_finite()
    return params, B


# ---------------------------------------------------------------------------
# public operations


def forward(tokens, params: TaggerParams, table: EmbeddingTable) -> np.ndarray:
    """Per-token label distributions, shape (len(tokens), L); rows sum to 1."""
    probs, _ = _sentence_forward(params, table.embed(tokens))
    return probs


def feature_vectors(tokens, params: TaggerParams, table: EmbeddingTable) -> np.ndarray:
    """Feature-layer outputs, shape (len(tokens), f); input to the label
    cleaner."""
    _, cache = _sentence_forward(params, table.embed(tokens))
    return cache[3]


def loss_and_gradient(batch, params: TaggerParams, table: EmbeddingTable,
                      tag_set: TagSet, soft_targets=None):
    """Mean per-token cross-entropy over the batch and its exact gradient.

    With ``soft_targets`` (one (T, L) distribution matrix per sentence) the
    loss is cross-entropy against those distributions; otherwise hard
    targets come from each sentence's spans.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    total_tokens = sum(len(s.tokens) for s in batch)
    grads = params.zeros_like()
    loss = 0.0
    for i, sent in enumerate(batch):
        X = table.embed(sent.tokens)
        probs, cache = _sentence_forward(params, X)
        T = X.shape[0]
        if soft_targets is not None:
            w = np.asarray(soft_targets[i], dtype=float)
            with np.errstate(divide="ignore"):
                lp = np.log(probs)
            loss += -np.where(w > 0.0, w * lp, 0.0).sum() / total_tokens
            dlogits = (probs - w) / total_tokens
        else:
            y = hard_targets(sent, tag_set)
            idx = np.arange(T)
            loss += -np.log(probs[idx, y]).sum() / total_tokens
            dlogits = probs.copy()
            dlogits[idx, y] -= 1.0
            dlogits /= total_tokens
        _sentence_backward(params, cache, dlogits, grads)
    if not np.isfinite(loss):
        raise NumericsError("non-finite loss")
    return loss, grads


def train(clean: Dataset, config: TaggerConfig, table: EmbeddingTable) -> TaggerParams:
    """Plain supervised training on gold spans (IO label space)."""
    if not clean.sentences:
        raise ValueError("training dataset is empty")
    L = clean.tag_set.size
    if config.label_count is not None and config.label_count != L:
        raise ValueError(
            f"config.label_count={config.label_count} but tag set has {L} labels"
        )
    items = make_items(clean, table, cache=not config.fine_tune_embeddings)
    params, _ = _train_core(items, config, table, L)
    return params


def predict(dataset: Dataset, params: TaggerParams, table: EmbeddingTable) -> Dataset:
    """Replace spans by per-token argmax predictions (ties go to the lowest
    label index, so all-uniform output yields the outside label)."""
    labels = dataset.tag_set.labels
    sentences = []
    for sent in dataset.sentences:
        probs = forward(sent.tokens, params, table)
        tags = [labels[int(i)] for i in probs.argmax(axis=1)]
        spans = io_to_spans(tags, dataset.tag_set)
        sentences.append(LabeledSentence(sent.tokens, tuple(spans), sent.provenance))
    return Dataset(tuple(sentences), dataset.tag_set)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: TaggerParams, tag_set: TagSet) -> None:
    """Self-describing dump: named float64 arrays plus a JSON metadata
    entry (cell type and label order)."""
    meta = json.dumps({
        "cell": params.cell,
        "entity_types": list(tag_set.entity_types),
        "outside": tag_set.outside,
    })
    arrays = {name: arr for name, arr in params.arrays()}
    np.savez(path, __meta__=np.array(meta), **arrays)


def load_checkpoint(path) -> tuple[TaggerParams, TagSet]:
    with np.load(path, allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["__meta__"]))
            arrays = [np.array(data[name], dtype=float) for name in TaggerParams._FIELDS]
        except KeyError as exc:
            raise ParseError(f"{path}: missing checkpoint entry {exc}") from None
    tag_set = TagSet(tuple(meta["entity_types"]), meta["outside"])
    params = TaggerParams(meta["cell"], *arrays)
    if params.cell not in CELLS:
        raise ParseError(f"{path}: unknown cell type {params.cell!r}")
    return params, tag_set
