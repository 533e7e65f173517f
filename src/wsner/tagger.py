"""Compact bidirectional recurrent tagger trained from scratch.

Architecture: a frozen pretrained embedding lookup, a bidirectional LSTM,
a linear feature layer, and a linear classifier producing per-token label
distributions. Training is plain SGD with per-sentence updates; all
randomness (parameter init, shuffling) flows from one seeded generator, so
runs are bit-reproducible. Everything is float64 numpy; gradients are
exact (they are checked against central finite differences in the test
suite).

The design is explained where it is implemented: the one-thread BLAS pin
at ``_pin_blas_threads``, running the LSTM's two directions on two threads
and stepping each direction's weights on the thread that formed their
gradients in "the two directions at once", the reused gradient workspace
at ``_sgd_epoch``, and batched tagging in "batched inference".
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import dataclasses
import functools
import json
import math
import numbers
import os
import stat
import threading
import warnings
import zipfile
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import Dataset, LabeledSentence, TagSet, open_utf8
from .errors import NumericsError, ParseError, SchemaError


def _pin_blas_threads() -> None:
    """Set numpy's BLAS to one thread, in every process that imports this
    module: the CLI, each sweep worker and any library caller. A threaded
    matrix product splits its sums by the thread count, so at paper shape
    one seed would otherwise give other bytes at another count: in a sweep
    worker than in the process that started it, or under another setting
    of the environment. Where numpy's BLAS has no known thread-count
    setter, warn and change nothing."""
    # A handle of a numpy extension also finds the symbols of the libraries
    # it links: the OpenBLAS of numpy 2 wheels (64- or 32-bit integers), of
    # numpy 1 wheels, or of the system.
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        if hasattr(lib, name):
            setter = getattr(lib, name)
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            return setter(1)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.25
        blas = "unknown"
    warnings.warn(f"numpy's BLAS ({blas}) has no known thread-count setter; results "
                  "may depend on its thread count", RuntimeWarning, stacklevel=2)


_pin_blas_threads()


# ---------------------------------------------------------------------------
# embeddings

# The binary cache ``EmbeddingTable.load`` keeps beside a text file. Bump the
# version whenever the parse or the cache layout changes what a cache holds.
CACHE_SUFFIX = ".wsner.npz"
_CACHE_VERSION = 1
_HASH_CHUNK = 1 << 20


def _parse_vectors(path) -> tuple[dict[str, int], np.ndarray]:
    """Vocabulary and matrix of a word-vector text file (the format is
    described at ``EmbeddingTable.load``)."""
    with open_utf8(path) as fh:
        header = fh.readline()  # outside the try: a UnicodeDecodeError is a ValueError
        try:
            count, dim = map(int, header.split())
        except ValueError:
            raise ParseError(f"{path}:1: expected header '|V| d'") from None
        if count < 1 or dim < 1:
            raise ParseError(f"{path}:1: vector count and dimension must be >= 1")
        # a row holds at least a space and a digit per value
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and count * dim * 2 > st.st_size:
            raise ParseError(f"{path}:1: header announces {count} vectors of dimension "
                             f"{dim}, more than the file's {st.st_size} bytes can hold")
        try:
            matrix = np.empty((count, dim), dtype=float)
        except (MemoryError, ValueError):
            raise ParseError(f"{path}:1: header announces {count} vectors of dimension "
                             f"{dim}, more than can be allocated") from None
        vocab: dict[str, int] = {}
        row = 0
        for lineno, line in enumerate(fh, 2):
            fields = line.rstrip("\n").split(" ")
            if len(fields) == 1 and not fields[0]:
                continue
            if not fields[-1]:
                fields.pop()  # the trailing space of a fastText row
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
            if not np.isfinite(matrix[row]).all():
                raise ParseError(f"{path}:{lineno}: non-finite vector value")
            vocab.setdefault(fields[0], row)
            row += 1
    if row != count:
        raise ParseError(f"{path}: header announced {count} rows, found {row}")
    return vocab, matrix


def _sha256(path) -> str:
    # imported here: hashlib loads OpenSSL, about 4 MB resident, which every
    # spawned sweep worker (they never load embeddings) would carry too
    import hashlib

    h = hashlib.sha256()
    buf = memoryview(bytearray(_HASH_CHUNK))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(buf[:n])
    return h.hexdigest()


def _file_version(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_ino, st.st_size, st.st_mtime_ns


def _write_cache(cache: str, table: "EmbeddingTable", digest: str) -> None:
    """Store *table* as the cache of text with sha256 *digest*. It is
    written to a temporary file in the cache's directory, created with the
    umask's permissions, and renamed into place, so a reader sees the old
    cache or the whole new one. A cache that cannot be written is skipped."""
    tmp = f"{cache}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    tokens = "\n".join(table.vocab).encode("utf-8")
    rows = np.fromiter(table.vocab.values(), dtype=np.int64, count=len(table.vocab))
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, version=np.int64(_CACHE_VERSION), sha256=np.str_(digest),
                     matrix=table.matrix, tokens=np.frombuffer(tokens, dtype=np.uint8),
                     rows=rows)
        os.replace(tmp, cache)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


class EmbeddingTable:
    """Token → vector lookup with a mean-vector fallback for unknowns.

    The unknown vector is the arithmetic mean of all rows, computed once at
    construction. Embeddings are frozen: training never changes the matrix
    or the fallback, so a float64 matrix is kept as given, not copied.
    """

    def __init__(self, vocab: dict[str, int], matrix):
        self.vocab = dict(vocab)
        self.matrix = np.asarray(matrix, dtype=float)
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
        ``token v1 ... vd`` per line, fields separated by single spaces. A
        row may end in one space, as the rows of fastText's ``.vec`` files
        do. Duplicate tokens keep the first occurrence.

        The parsed table is cached beside a regular file, as
        ``PATH.wsner.npz``: the matrix, the vocabulary in row order, the
        sha256 of the text bytes and a format version. A later load hashes
        the text and, when hash and version match the cache's, builds the
        table from the cache instead of parsing. The cache is keyed by
        content, never by size or modification time. A cache that is
        missing, unreadable, corrupt, stale or of another version is
        ignored, and the text is parsed and the cache rewritten; where it
        cannot be written, say in a read-only directory, loading goes on
        without it. Either way the table is the one the text parses to,
        bit for bit."""
        before = os.stat(path)
        if not stat.S_ISREG(before.st_mode):
            return cls(*_parse_vectors(path))
        digest = _sha256(path)
        cache = f"{os.fspath(path)}{CACHE_SUFFIX}"
        table = cls._from_cache(cache, digest)
        if table is None:
            table = cls(*_parse_vectors(path))
            # a file changed after it was hashed would key the cache by
            # bytes other than the ones parsed
            if _file_version(os.stat(path)) == _file_version(before):
                _write_cache(cache, table, digest)
        return table

    @classmethod
    def _from_cache(cls, cache: str, digest: str) -> "EmbeddingTable | None":
        """The table stored in *cache* for text with sha256 *digest* by
        this format version; None when there is no such cache."""
        try:
            # the file is opened here: np.load leaves it open when the
            # archive turns out to be corrupt
            with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
                if int(npz["version"]) != _CACHE_VERSION or str(npz["sha256"]) != digest:
                    return None
                tokens = npz["tokens"].tobytes().decode("utf-8").split("\n")
                vocab = dict(zip(tokens, npz["rows"].tolist(), strict=True))
                return cls(vocab, npz["matrix"])
        # what np.load and the checks raise on a missing, truncated or
        # garbled file, or on an .npy file (no context manager) where an
        # archive should be; zipfile refuses some damaged entry headers
        # with RuntimeError or its subclass NotImplementedError
        except (OSError, EOFError, zipfile.BadZipFile, KeyError, ValueError,
                AttributeError, TypeError, RuntimeError):
            return None

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

    def row_indices(self, tokens, count: int | None = None) -> np.ndarray:
        """The row index of every token, -1 for an out-of-vocabulary one, as
        int64, looked up in one C-level pass; *tokens* may be any iterable
        when its *count* is given."""
        return np.fromiter(map(self.vocab.get, tokens, repeat(-1)), np.int64,
                           len(tokens) if count is None else count)

    def embed_rows(self, rows: np.ndarray) -> np.ndarray:
        X = self.matrix[np.maximum(rows, 0)]
        oov = rows < 0
        if oov.any():
            X[oov] = self.unk
        return X

    def embed(self, tokens) -> np.ndarray:
        return self.embed_rows(self.row_indices(tokens))


# ---------------------------------------------------------------------------
# parameters


def require_integers(config, names, minimum: int) -> None:
    """Refuse a field among *names* of *config* that is not an integer (a
    float such as 1.5 or 2.0, a bool or a string, as a JSON config may
    give), or that is below *minimum*."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}")


@dataclass(frozen=True)
class TaggerConfig:
    hidden_size: int = 300
    feature_size: int = 128
    learning_rate: float = 0.01
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        require_integers(self, ("hidden_size", "feature_size", "epochs"), 1)
        require_integers(self, ("seed",), 0)
        if not 0 < self.learning_rate < math.inf:  # also refuses NaN
            raise ValueError("learning_rate must be positive and finite")


@dataclass
class TaggerParams:
    """All trainable matrices; field order is the canonical iteration and
    checkpoint order."""

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

    def arrays(self):
        return [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)]

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


def _param_shapes(d: int, h: int, f: int, labels: int) -> tuple[tuple[int, ...], ...]:
    """The shape of every ``TaggerParams`` field, in field order, at
    embedding size *d*, hidden size *h*, *f* features and *labels* labels;
    the one table behind ``init_params`` and ``load_checkpoint``."""
    return ((4 * h, d), (4 * h, h), (4 * h,), (4 * h, d), (4 * h, h), (4 * h,),
            (f, 2 * h), (f,), (labels, f), (labels,))


def init_params(rng: np.random.Generator, cell: str, embed_dim: int,
                hidden_size: int, feature_size: int, label_count: int) -> TaggerParams:
    """Uniform ±1/sqrt(fan-in) weights, zero biases, drawn in field order.
    *cell* must be ``"lstm"``, the only cell; callers still pass it."""
    if cell != "lstm":
        raise ValueError(f"unknown cell {cell!r}; the tagger is an LSTM")

    def draw(shape):
        if len(shape) == 1:
            return np.zeros(shape)
        bound = 1.0 / math.sqrt(shape[1])
        return rng.uniform(-bound, bound, size=shape)

    return TaggerParams(*map(draw, _param_shapes(embed_dim, hidden_size, feature_size,
                                                 label_count)))


# ---------------------------------------------------------------------------
# forward / backward


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# Per-gate scale for the fused nonlinearity, gate order [i, f, g, o]:
# sigmoid(x) = s*tanh(s*x) + s with s = 1/2, and tanh(x) = 1*tanh(1*x) + 0.
_GATE_SCALE = (0.5, 0.5, 1.0, 0.5)
_GATE_SHIFT = (0.5, 0.5, 0.0, 0.5)


@functools.lru_cache(maxsize=8)
def _gate_affine(h: int):
    """``_GATE_SCALE`` and ``_GATE_SHIFT`` repeated over ``h`` units: flat
    (4h,) read-only vectors that act on ``(..., 4h)`` preactivations, one
    timestep's or a batch's. Cached per hidden size, since a process
    trains one or two of them."""
    scale = np.repeat(_GATE_SCALE, h)
    shift = np.repeat(_GATE_SHIFT, h)
    scale.flags.writeable = False
    shift.flags.writeable = False
    return scale, shift


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

    The input products of all steps are formed before the loop, and the
    loop writes each step's results in place: the gates into ``A``, the
    states into ``Cs``, ``TC`` and ``Hs``, the recurrent product into one
    (4h,) buffer and ``i * g`` into one (h,) buffer, both allocated once
    per call. It iterates over per-gate views of ``A`` made once per call,
    so a step allocates no array data.
    """
    T = X.shape[0]
    h = u.shape[1]
    A = X @ w.T
    A += b
    I, F, G, O = A.reshape(T, 4, h).transpose(1, 0, 2)
    scale, shift = _gate_affine(h)
    Cs = np.empty((T, h))
    TC = np.empty((T, h))
    Hs = np.empty((T, h))
    rec = np.empty(4 * h)
    ig = np.empty(h)
    c_prev = np.zeros(h)
    h_prev = None
    for a, i, f, g, o, c, tc, hs in zip(A, I, F, G, O, Cs, TC, Hs):
        if h_prev is not None:
            u.dot(h_prev, out=rec)
            a += rec
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=hs)
        c_prev, h_prev = c, hs
    return Hs, (X, A, Cs, TC, Hs)


def _lstm_backward(u, cache, dHs, *, out):
    """Weight, recurrent and bias gradients of one ``_lstm_forward`` pass
    from the gradients ``dHs`` of its hidden states, written into the
    arrays ``out = (dW, dU, db)`` (shapes (4h, d), (4h, h), (4h,)), which
    are returned. Every element of them is overwritten; at T=1 ``dU`` is
    the zero product over no steps. The embeddings are frozen, so no input
    gradient is formed and the input weights are not needed.

    The preactivation gradients ``dA`` (T, 4h) are the only (T, 4h) array
    made; one (T, 2h) buffer holds the sigmoid slopes ``1 - a`` and then
    the o gate's share of ``dc``. Before the loop each gate block of ``dA``
    is filled in place with what that gate's gradient needs besides ``dc``
    (the i, f and g blocks) or ``dh`` (the o block); the loop multiplies
    them in place, step by step, and forms ``dh`` and the ``dc`` increment
    in two (h,) buffers allocated once per call.
    """
    X, A, Cs, TC, Hs = cache
    T, h = Hs.shape
    gates = A.reshape(T, 4, h)
    I, F, G, O = gates.transpose(1, 0, 2)
    dA = np.empty((T, 4 * h))
    dgates = dA.reshape(T, 4, h)
    DI, DF, DG, DO = dgates.transpose(1, 0, 2)
    # Per gate, dA[t] = dc * D[t] (i, f, g) or dh * D[t] (o), where D is the
    # activation derivative (a(1 - a) for sigmoid, 1 - g^2 for tanh) times
    # what the gate multiplies in c = f*c_prev + i*g or h = o*tanh(c).
    np.multiply(G, I, out=DI)
    DF[0] = 0.0
    np.multiply(Cs[:-1], F[1:], out=DF[1:])
    np.multiply(G, G, out=DG)
    np.subtract(1.0, DG, out=DG)
    DG *= I
    np.multiply(TC, O, out=DO)
    # times 1 - a on the sigmoid blocks (i and f together, then o) through
    # one (T, 2h) buffer, whose second half then holds OT, the o gate's
    # share of dc: o * (1 - tanh(c)^2)
    slope = np.subtract(1.0, gates[:, :2])
    dgates[:, :2] *= slope
    slope_o, OT = slope.transpose(1, 0, 2)
    np.subtract(1.0, O, out=slope_o)
    DO *= slope_o
    np.multiply(TC, TC, out=OT)
    np.subtract(1.0, OT, out=OT)
    OT *= O
    DC = dgates[:, :3]
    dh = dHs[T - 1]
    dc = dh * OT[T - 1]
    rec = np.empty(h)
    carry = np.empty(h)
    # steps T-1 down to 1, each forming the dh and dc of the step before it
    steps = zip(DC[:0:-1], DO[:0:-1], dA[:0:-1], F[:0:-1], dHs[-2::-1], OT[-2::-1])
    for dc_gates, do_gate, da, f, dhs_prev, ot_prev in steps:
        dc_gates *= dc
        do_gate *= dh
        da.dot(u, out=rec)
        rec += dhs_prev
        dh = rec
        dc *= f
        np.multiply(dh, ot_prev, out=carry)
        dc += carry
    DC[0] *= dc
    DO[0] *= dh
    dW, dU, db = out
    np.matmul(dA.T, X, out=dW)
    np.matmul(dA[1:].T, Hs[:-1], out=dU)
    dA.sum(axis=0, out=db)
    return out


# ---------------------------------------------------------------------------
# the two directions at once
#
# The LSTM's two directions touch disjoint arrays until a sentence pass
# joins their states, once its backward pass has split their gradients,
# and until batched inference sums their logits. _both runs them on two
# threads from _THREAD_WEIGHTS weight floats per direction, 4h(d + h) (the
# paper shape, not the synthetic one), given two CPUs for each process
# that shares them, so a sweep pool that fills the CPUs keeps to one
# thread per worker. The bytes are those of one thread: each product still
# runs on one BLAS thread, numpy releases the GIL inside products and
# elementwise arithmetic, and nothing is summed across threads. Below the
# threshold, handing the GIL over at every step costs more than the
# overlap gains:
# on a 2-vCPU x86-64 host an SGD epoch took 38 / 89 ms on one / two
# threads at d=12, h=16 (the synthetic shape), 151 / 212 at d=300, h=100,
# 258 / 271 at d=300, h=160, 311 / 293 at d=300, h=175 and 980 / 678 at
# d=300, h=300 (the paper shape); tagging wins from about 100,000 floats.
#
# Training steps each direction's weights (w_in, u, b) on the thread that
# ran its backward pass, right after it: their gradients are still in that
# core's cache, and the other CPU would otherwise sit idle while the calling
# thread walked all ~1.5 M parameters and their gradients (about 24 MB at
# paper shape) after the join. The head (w_feat, b_feat, w_out, b_out) is
# stepped on the calling thread after the join, and the channel logits B by
# _sgd_epoch after that. The bytes are those of one step after the whole
# backward pass: every update is the same _sgd_step arithmetic on the same
# values, since no gradient reads a parameter stepped before it (nothing
# after a direction's backward reads its weights; the head gradients need
# only dfeats, H, feats and dlogits, and B's only C and dC). On a 2-vCPU
# x86-64 host the step after the join took about a fifth of a paper-shape
# confusion epoch; moved into the threads, it cut the benchmark's
# paper-train work_s from 0.449 to 0.402 reference s (medians of 10 pairs).
_THREAD_WEIGHTS = 300_000
# Processes that share this one's CPUs: a sweep worker's pool size
# (experiment._init_worker), else 1.
_sharing_processes = 1


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _two_threads(d: int, h: int) -> bool:
    """Whether an LSTM over d-dimensional inputs with h units runs its
    directions on two threads, by the rule above."""
    return (4 * h * (d + h) >= _THREAD_WEIGHTS
            and _cpu_count() >= 2 * _sharing_processes)


def _both(first, second, threaded: bool):
    """``(first(), second())``, in that order on this thread, or, if
    *threaded*, ``first`` on a new thread in a copy of this thread's
    context (numpy's error state lives there) while ``second`` runs here.
    The thread is joined before this returns or raises, and its exception
    is raised here."""
    if not threaded:
        return first(), second()
    context = contextvars.copy_context()
    result, failure = [], []

    def work():
        try:
            result.append(context.run(first))
        except BaseException as exc:  # raised again in the calling thread
            failure.append(exc)

    worker = threading.Thread(target=work, name="wsner-forward")
    worker.start()
    try:
        second_result = second()
    finally:
        worker.join()
    if failure:
        raise failure[0]
    return result[0], second_result


def _sentence_forward(params: TaggerParams, X: np.ndarray):
    (hs_f, cache_f), (hs_b_rev, cache_b) = _both(
        lambda: _lstm_forward(params.w_in_f, params.u_f, params.b_f, X),
        lambda: _lstm_forward(params.w_in_b, params.u_b, params.b_b, X[::-1]),
        _two_threads(params.embed_dim, params.hidden_size))
    H = np.concatenate([hs_f, hs_b_rev[::-1]], axis=1)
    feats = H @ params.w_feat.T + params.b_feat
    logits = feats @ params.w_out.T + params.b_out
    probs = _softmax(logits)
    return probs, (cache_f, cache_b, H, feats)


def _sentence_backward(params: TaggerParams, cache, dlogits: np.ndarray,
                       grads: TaggerParams, *, lr: float | None = None) -> TaggerParams:
    """Every parameter's gradient of one sentence pass from its logit
    gradients, written into the workspace ``grads`` (a ``TaggerParams`` of
    the parameters' shapes), which is returned. Every element of every
    field is overwritten, so the workspace may hold anything before, such
    as a previous, longer sentence's gradients.

    Training passes ``lr``: every parameter then also takes its SGD step
    (``_sgd_step``) as soon as its gradient is formed, each direction's
    LSTM weights on the thread that ran its backward pass and the head on
    the calling thread after the join, and the workspace is left holding
    ``lr`` × gradient ("the two directions at once")."""
    cache_f, cache_b, H, feats = cache
    h = params.hidden_size
    dfeats = dlogits @ params.w_out
    dH = dfeats @ params.w_feat

    def direction(weights, cache, dHs, out):
        # dHs and out by keyword: perfbench/tracing.py counts the tokens of
        # argument 3 or of the keyword dHs, so out must not take position 3
        _lstm_backward(weights[1], cache, dHs=dHs, out=out)
        # nothing after this reads the direction's weights, so they are
        # stepped at once, on the core that wrote their gradients
        if lr is not None:
            _sgd_step(zip(weights, out), lr)

    # the directions read and write disjoint fields of params and grads
    _both(lambda: direction((params.w_in_f, params.u_f, params.b_f), cache_f, dH[:, :h],
                            (grads.w_in_f, grads.u_f, grads.b_f)),
          lambda: direction((params.w_in_b, params.u_b, params.b_b), cache_b, dH[::-1, h:],
                            (grads.w_in_b, grads.u_b, grads.b_b)),
          _two_threads(params.embed_dim, h))
    np.matmul(dfeats.T, H, out=grads.w_feat)
    dfeats.sum(axis=0, out=grads.b_feat)
    np.matmul(dlogits.T, feats, out=grads.w_out)
    dlogits.sum(axis=0, out=grads.b_out)
    if lr is not None:
        _sgd_step(((params.w_feat, grads.w_feat), (params.b_feat, grads.b_feat),
                   (params.w_out, grads.w_out), (params.b_out, grads.b_out)), lr)
    return grads


# ---------------------------------------------------------------------------
# batched inference
#
# Inference-only forward over many sentences at once. One float budget sizes
# batches and windows alike: _batch_width(h), max(_BATCH_SENTENCES,
# _WINDOW_FLOATS // 4h), is 1,200 at h=16 (the synthetic shape) and 128 at
# h=300 (the paper shape); the float budget decides below h=150 and the
# sentence floor from there on. Sentences are sorted longest first (a stable
# sort) and cut into batches of that many sentences, whatever their
# lengths. The sentences still running at a timestep are a prefix of the
# batch, so no masking is needed: in time-major order, step t's tokens are
# the one slice offs[t]:offs[t+1].
#
# Per batch, not per sentence. The embedding row indices of all a batch's
# tokens are looked up in one C-level pass (EmbeddingTable.row_indices over
# the chained token sequences) into one flat array, and predict takes one
# argmax of the batch's distributions, as one list that it slices per
# sentence. A decoded sentence is made unchecked (LabeledSentence._trusted):
# its tokens and provenance are those of a checked sentence, and
# TagSet.decode makes spans that are sorted and in range by construction.
#
# Windows. The steps are cut into runs of consecutive steps with at most
# _batch_width(h) tokens in total; a step has at most one token per sentence
# of its batch, so every step fits. Per window a direction makes one
# embedding gather, one input product into a (tokens, 4h) gate buffer and
# one head product. Only the recurrent product and the gate arithmetic run
# per step, in place on the step's slice, and the step's hidden states
# overwrite its spent input gates. Each step also takes the next step's
# recurrent product, so a window's last states are read before the next
# window's input product overwrites them, and no copy of them is kept.
#
# Why a floor of 128 sentences. At paper shape each input or recurrent
# product, (n, 300) @ (300, 1200), reads the whole weight matrix whatever
# its row count n. One such float64 product on one BLAS thread of a 2-vCPU
# x86-64 host took 87, 222, 334, 777, 1,341 and 2,589 us at n = 1, 4, 16,
# 64, 128 and 256: roughly 200 us a call plus 10 us a row, so fewer and
# fuller products win.
#
# Folded head. The feature and output layers are linear, so the logits are
# H @ M.T + m0 with M = w_out @ w_feat (L, 2h) and m0 = w_out @ b_feat +
# b_out, formed once per call. The forward direction adds its states times
# its half of M into the batch's (tokens, L) logits, which start at m0; the
# backward direction adds into a zeroed (tokens, L) share of its own, added
# once both have run, so every logit is (m0 + forward) + backward on one
# thread or two. The softmax runs once per batch.
#
# Memory. A buffer set (the gate, recurrent-product and cell-state
# buffers) is allocated once per call, since buffers allocated and freed
# batch after batch fragment the heap and raise the process's peak memory,
# and in the calling thread, so the other one allocates little. It serves
# every batch and window; one set serves both directions on one thread,
# and each thread has its own on two. Besides them a batch holds its
# (tokens, L) logits, backward share and distributions and a few integer
# index arrays, never (tokens, f) features or the (tokens, 4h) input
# projection of the whole batch; a process that tags with the paper-shape
# tagger reaches its peak memory here. The gate buffer has a row per token
# of a window, and the recurrent-product and cell-state buffers a row per
# sentence of a batch. Up to h=150 the gate buffer holds about
# _WINDOW_FLOATS floats (600 KiB); at h=300 the buffers are (128, 4h),
# (128, 4h) and (128, h), about 2.7 MB per thread, and a full batch of
# 60-token sentences peaks at about 6.6 MiB under tracemalloc on two threads.
_BATCH_SENTENCES = 128
_WINDOW_FLOATS = 64 * 1200


def _batch_width(h: int) -> int:
    """Sentences per batch and tokens per window at hidden size *h*: the
    float budget's width below h=150, 128 from there on (the rule and its
    reason are in "batched inference")."""
    return max(_BATCH_SENTENCES, _WINDOW_FLOATS // (4 * h))


def _inference_batches(lengths: np.ndarray, width: int):
    """Input indices sorted by length, longest first (equal lengths keep
    input order), cut into batches of *width*."""
    order = np.argsort(-lengths, kind="stable")
    for start in range(0, len(order), width):
        yield order[start:start + width]


def _batch_direction(w, u, b, proj, table: EmbeddingTable, rows, pos, offs,
                     bounds, buffers, out) -> None:
    """One direction of the LSTM over a length-sorted batch in time-major
    order: step ``t`` reads embedding rows ``rows[offs[t]:offs[t + 1]]``
    and adds its states times ``proj.T`` into ``out`` at ``pos`` of the
    same slice. Windows are the step ranges ``bounds[k]:bounds[k + 1]``.
    ``buffers`` are the gate buffer, with a row for each token of a window,
    and the recurrent product and cell state, with a row for each
    sentence."""
    h = u.shape[1]
    scale, shift = _gate_affine(h)
    gates, rec, cell = buffers
    last = len(offs) - 2
    for t0, t1 in zip(bounds, bounds[1:]):
        lo, hi = offs[t0], offs[t1]
        window = gates[:hi - lo]
        np.matmul(table.embed_rows(rows[lo:hi]), w.T, out=window)
        window += b
        for t in range(t0, t1):
            n = offs[t + 1] - offs[t]
            a = window[offs[t] - lo:offs[t + 1] - lo]
            c = cell[:n]
            if t:
                a += rec[:n]
            a *= scale
            np.tanh(a, out=a)
            a *= scale
            a += shift
            i, f, g, o = a.reshape(n, 4, h).transpose(1, 0, 2)
            # the step's gate blocks are free once read: i takes i * g and
            # then the hidden state, g takes tanh(c)
            i *= g
            if t:
                c *= f
                c += i
            else:
                c[...] = i
            h_t = np.multiply(o, np.tanh(c, out=g), out=i)
            if t < last:
                # the next step's recurrent product, taken now: after a
                # window's last step its input product overwrites these states
                m = offs[t + 2] - offs[t + 1]
                np.matmul(h_t[:m], u.T, out=rec[:m])
        out[pos[lo:hi]] += window[:, :h] @ proj.T


def _batch_probs(directions, bias, table: EmbeddingTable, flat, lengths,
                 buffer_sets) -> np.ndarray:
    """Label distributions of one batch, as one ``(tokens, L)`` array in
    batch order: ``flat`` holds the embedding row indices of its sentences
    one after another, ``lengths`` their lengths, longest first.
    ``directions`` holds the forward, then the backward weights ``(w, u,
    b, proj)`` of ``_batch_direction``, ``bias`` the folded head's ``m0``.
    ``buffer_sets`` holds one set of ``_batch_direction``'s buffers, or two
    to run the directions on two threads (``_both``); a window has at most
    as many tokens as a gate buffer has rows."""
    starts = np.cumsum(lengths) - lengths
    running = np.arange(lengths[0])[:, None] < lengths
    # time-major (step, sentence) pairs and each token's flat position
    step, sent = np.nonzero(running)
    pos_f = starts[sent] + step
    pos_b = starts[sent] + lengths[sent] - 1 - step
    del step, sent
    offs = np.concatenate(([0], np.cumsum(running.sum(axis=1))))
    bounds = [0]
    while bounds[-1] < len(offs) - 1:
        end = np.searchsorted(offs, offs[bounds[-1]] + len(buffer_sets[0][0]), side="right")
        bounds.append(int(end) - 1)
    offs = offs.tolist()
    logits = np.tile(bias, (len(flat), 1))
    backward = np.zeros_like(logits)
    (fwd, bwd), rows_f, rows_b = directions, flat[pos_f], flat[pos_b]
    _both(lambda: _batch_direction(*fwd, table, rows_f, pos_f, offs, bounds,
                                   buffer_sets[-1], logits),
          lambda: _batch_direction(*bwd, table, rows_b, pos_b, offs, bounds,
                                   buffer_sets[0], backward),
          len(buffer_sets) == 2)
    logits += backward
    return _softmax(logits)


def _forward_batched(params: TaggerParams, table: EmbeddingTable, token_lists):
    """``(batch, probs)`` for each batch of the token sequences in the list
    ``token_lists``: the batch's input indices (``_inference_batches``) and
    its ``(tokens, L)`` distributions, its sentences' rows one after another
    in that order. Only one batch's distributions are held at a time."""
    lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    h = params.hidden_size
    width = _batch_width(h)
    fold = params.w_out @ params.w_feat
    directions = ((params.w_in_f, params.u_f, params.b_f, fold[:, :h]),
                  (params.w_in_b, params.u_b, params.b_b, fold[:, h:]))
    bias = params.w_out @ params.b_feat + params.b_out
    rows = min(width, int(lengths.sum()))
    sentences = min(width, len(token_lists))
    threads = 2 if _two_threads(params.embed_dim, h) else 1
    buffer_sets = [(np.empty((rows, 4 * h)), np.empty((sentences, 4 * h)),
                    np.empty((sentences, h)))
                   for _ in range(threads)]
    for batch in _inference_batches(lengths, width):
        batch_lengths = lengths[batch]
        tokens = chain.from_iterable(map(token_lists.__getitem__, batch.tolist()))
        flat = table.row_indices(tokens, int(batch_lengths.sum()))
        yield batch, _batch_probs(directions, bias, table, flat, batch_lengths, buffer_sets)


# ---------------------------------------------------------------------------
# per-sentence loss: the one loss behind SGD for every method


@dataclass
class TrainItem:
    """One sentence prepared for training: its embedded rows ``X`` (T, d)
    and label indices ``hard``. Its target, a distribution per token, is
    ``soft`` (T, L) if set, else the channel posterior of ``hard`` for a
    ``channel`` item, else the one-hot of ``hard``."""

    X: np.ndarray
    hard: np.ndarray | None = None
    soft: np.ndarray | None = None
    channel: bool = False


def channel_posterior(probs: np.ndarray, C: np.ndarray, y: np.ndarray):
    """The posterior over clean labels of tokens observed with the noisy
    labels ``y``, ``posterior[i, t] ∝ probs[i, t] · C[t, y[i]]``, and its
    normalizer ``q[i]``, the probability the channel gives ``y[i]``."""
    pc = probs * C[:, y].T
    q = pc.sum(axis=1)
    return pc / q[:, None], q


def _item_loss_grads(params, X, item: TrainItem, C: np.ndarray | None = None, *,
                     grads: TaggerParams, lr: float | None = None):
    """Mean loss over one sentence's tokens and its gradients
    ``(loss, grads, dC)``, the parameter gradients written into the
    workspace ``grads`` (see ``_sentence_backward``, which also takes the
    SGD step when given ``lr``; ``C`` stays the fourth parameter, which
    perfbench/tracing.py reads by position to name the loss span). The
    logit gradient is ``(probs − w) / T`` for the item's target ``w`` (see
    ``TrainItem``; an item is a channel item only when ``C`` is given). A
    channel item's loss is ``−mean log q`` and ``dC`` its gradient with
    respect to ``C``; any other item's loss is the cross-entropy to ``w``,
    and ``dC`` is None. A non-finite loss raises ``NumericsError``, before
    any gradient is formed or parameter stepped."""
    probs, cache = _sentence_forward(params, X)
    T = X.shape[0]
    channel = item.soft is None and item.channel and C is not None
    # divergence shows in the loss, checked before any gradient is formed:
    # a channel probability q of 0 makes 0 / 0 posteriors and log 0, and a
    # probability of 0 makes 0 * log 0 = nan where the target is 0, which
    # np.where drops
    with np.errstate(divide="ignore", invalid="ignore"):
        # keep soft > channel > hard: perfbench/tracing.py names loss spans by it
        if item.soft is not None:
            w = item.soft
        elif channel:
            w, q = channel_posterior(probs, C, item.hard)
            loss = -np.log(q).sum() / T
        else:
            w = np.eye(probs.shape[1])[item.hard]
        if not channel:
            loss = -np.where(w > 0.0, w * np.log(probs), 0.0).sum() / T
    if not np.isfinite(loss):
        raise NumericsError("non-finite training loss")
    dC = None
    if channel:
        dC = np.zeros_like(C)
        dq = -1.0 / (q * T)
        np.add.at(dC.T, item.hard, probs * dq[:, None])
    dlogits = (probs - w) / T
    return loss, _sentence_backward(params, cache, dlogits, grads, lr=lr), dC


def make_items(dataset: Dataset, table: EmbeddingTable, *,
               channel: bool = False) -> list[TrainItem]:
    return [TrainItem(table.embed(sent.tokens), hard=dataset.tag_set.encode(sent),
                      channel=channel)
            for sent in dataset.sentences]


def _sgd_step(pairs, lr: float) -> None:
    """``array -= lr * gradient`` for every ``(array, gradient)`` pair: the one
    update rule of the tagger's parameters, the channel logits and the label
    cleaner's weights. Each gradient is scaled in place first (bit-identical
    to ``array -= lr * g``), so the caller must not use it afterwards."""
    for arr, g in pairs:
        g *= lr
        arr -= g


def _sgd_epoch(params: TaggerParams, items: list[TrainItem], config: TaggerConfig,
               rng: np.random.Generator, B: np.ndarray | None = None) -> None:
    """One pass of per-sentence SGD over *items* in an order drawn from
    *rng*; items flagged ``channel`` are scored through the row-softmax of
    the channel logits ``B``, which train in place. Both update through
    ``_sgd_step``, the one update rule: the tagger's parameters inside
    ``_sentence_backward``, as each gradient is formed (``lr`` passed
    through ``_item_loss_grads``), and then ``B`` here.

    Every step's gradients are written into one workspace allocated here,
    uninitialised (``np.empty_like`` of each parameter), since the backward
    pass overwrites all of it and ``_sgd_step`` then scales it in place.
    At paper shape (d=h=300) a step's gradients are about 11.5 MB;
    allocating them afresh per sentence costs page faults and raises the
    process's peak memory, for values subtracted from the weights at once."""
    lr = config.learning_rate
    grads = TaggerParams(*(np.empty_like(arr) for _, arr in params.arrays()))
    for k in rng.permutation(len(items)):
        item = items[int(k)]
        C = _softmax(B) if item.channel and B is not None else None
        _, _, dC = _item_loss_grads(params, item.X, item, C=C, grads=grads, lr=lr)
        if dC is not None:
            # dC back through the row softmax C = softmax(B) is the gradient of B
            _sgd_step([(B, C * (dC - (dC * C).sum(axis=1, keepdims=True)))], lr)
    params.check_finite()


def _train_core(items: list[TrainItem], config: TaggerConfig, table: EmbeddingTable,
                label_count: int, *, channel_logits: np.ndarray | None = None,
                seed=None):
    """Seeded SGD, ``config.epochs`` passes of ``_sgd_epoch``.

    Returns the trained parameters and the trained channel logits (None
    without ``channel_logits``).
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    params = init_params(rng, "lstm", table.dimension, config.hidden_size,
                         config.feature_size, label_count)
    B = None if channel_logits is None else np.array(channel_logits, dtype=float)
    for _ in range(config.epochs):
        _sgd_epoch(params, items, config, rng, B)
    return params, B


# ---------------------------------------------------------------------------
# public operations


def feature_vectors(X: np.ndarray, params: TaggerParams) -> np.ndarray:
    """Feature-layer outputs for the embedded rows ``X`` (T, d), shape
    (T, f); input to the label cleaner."""
    _, cache = _sentence_forward(params, X)
    return cache[3]


def train(clean: Dataset, config: TaggerConfig, table: EmbeddingTable) -> TaggerParams:
    """Plain supervised training on gold spans (IO label space)."""
    if not clean.sentences:
        raise ValueError("training dataset is empty")
    items = make_items(clean, table)
    params, _ = _train_core(items, config, table, clean.tag_set.size)
    return params


def predict(dataset: Dataset, params: TaggerParams, table: EmbeddingTable) -> Dataset:
    """Replace spans by per-token argmax predictions (ties go to the lowest
    label index, so all-uniform output yields the outside label), keeping
    the input order; sentences are tagged in batches ("batched inference").

    The model's label count must equal the tag set's size and its
    embedding size the table's, else ``SchemaError`` names both numbers;
    this is the one check on the path, since nothing after it checks again.

    The distributions equal the per-sentence forward pass up to rounding,
    and the rounding depends on the batch: a window's products have as
    many rows as the window has tokens, so a sentence's distributions may
    differ in the last bits with the sentences that share its batch. The
    same input always gives the same output, but tagging a subset of a
    dataset need not give bit-equal distributions for the sentences it
    shares with the whole, and in a near tie their argmax labels may differ.
    """
    tag_set = dataset.tag_set
    if params.label_count != tag_set.size:
        raise SchemaError(f"the model has {params.label_count} labels but the tag set "
                          f"has {tag_set.size}")
    if params.embed_dim != table.dimension:
        raise SchemaError(f"the model takes embeddings of size {params.embed_dim} but "
                          f"the table's have size {table.dimension}")
    decode = tag_set.decode
    sentences = list(dataset.sentences)
    for batch, probs in _forward_batched(params, table, [s.tokens for s in sentences]):
        labels = probs.argmax(axis=1).tolist()
        end = 0
        for i in batch.tolist():
            sent = sentences[i]
            start, end = end, end + len(sent.tokens)
            sentences[i] = LabeledSentence._trusted(sent.tokens, decode(labels[start:end]),
                                                    sent.provenance)
    return Dataset(tuple(sentences), tag_set)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: TaggerParams, tag_set: TagSet) -> None:
    """Self-describing dump at exactly *path*: named float64 arrays plus a
    JSON metadata entry (label order; the outside label is always ``O``,
    and is written for readers that require the key)."""
    meta = json.dumps({"entity_types": list(tag_set.entity_types), "outside": "O"})
    arrays = {name: arr for name, arr in params.arrays()}
    # an open file: given a path without '.npz', np.savez would add one
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(meta), **arrays)


def load_checkpoint(path) -> tuple[TaggerParams, TagSet]:
    """The parameters and tag set saved by ``save_checkpoint``; a ``ParseError``
    for a file that is no checkpoint, lacks an entry, has malformed metadata,
    has a parameter of a wrong shape or with a non-finite value, or fails to
    be read once open (``zipfile`` raises ``RuntimeError`` or its subclass
    ``NotImplementedError`` on some damaged headers, a bad offset ``OSError``)."""
    # the file is opened here: np.load leaves it open when the archive
    # turns out to be corrupt
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ParseError(f"{path}: not a checkpoint (.npz archive)")
            with archive as data:
                meta = json.loads(str(data["__meta__"]))
                if not isinstance(meta, dict):
                    raise ParseError(f"{path}: checkpoint metadata is not a JSON object")
                types, outside = meta["entity_types"], meta["outside"]
                if not (isinstance(types, list)
                        and all(isinstance(t, str) for t in [outside, *types])):
                    raise ParseError(f"{path}: checkpoint metadata needs a list of "
                                     "entity_types strings and an outside string")
                if outside != "O":
                    raise ParseError(f"{path}: outside label {outside!r}; wsner reads only 'O'")
                tag_set = TagSet(tuple(types))
                arrays = [np.array(data[f.name], dtype=float)
                          for f in dataclasses.fields(TaggerParams)]
        except (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile):
            raise ParseError(f"{path}: not a checkpoint (.npz archive)") from None
        except KeyError as exc:
            raise ParseError(f"{path}: missing checkpoint entry {exc}") from None
        except SchemaError as exc:  # labels TagSet refuses, such as a repeated type
            raise ParseError(f"{path}: {exc}") from None
    # checkpoints from before the LSTM became the only cell name their cell
    if meta.get("cell", "lstm") != "lstm":
        raise ParseError(f"{path}: unknown cell type {meta['cell']!r}; the tagger is an LSTM")
    params = TaggerParams(*arrays)
    # the matrices that give the sizes every other shape must agree with
    for name in ("w_in_f", "u_f", "w_feat"):
        if getattr(params, name).ndim != 2:
            raise ParseError(f"{path}: parameter {name} is not a matrix")
    expected = _param_shapes(params.embed_dim, params.hidden_size, params.feature_size,
                             tag_set.size)
    for (name, arr), shape in zip(params.arrays(), expected):
        if arr.shape != shape:
            raise ParseError(f"{path}: parameter {name} has shape {arr.shape}, "
                             f"expected {shape}")
    # a NaN weight would make every argmax label 0, the outside label
    try:
        params.check_finite()
    except NumericsError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return params, tag_set
