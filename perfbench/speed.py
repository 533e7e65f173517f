"""Wall time corrected for the speed of a shared core.

The benchmark runs on a few cores of a shared host, whose speed swings by
a third or more within seconds as other tenants come and go; a run's
median wall time then says more about the neighbours than about wsner.
``SpeedClock`` therefore times work in short pieces and, between pieces,
runs fixed probe kernels that do not touch wsner, one per kind of work:
``interpreter`` (a small numpy recurrence and dict/str work, like the
d=12 tagger, annotation and parsing) and ``blas`` (matrix-vector
products with four 1200x300 matrices, the size of the paper-shape
tagger's LSTM weights, which do not fit in a core's own cache). The two kinds slow
down at different moments, so each timing names the kind its work is. A
piece's reference time is its wall time scaled by ``REFERENCE_S[kind]`` /
the median time of the ``2 * NEAREST`` probes of that kind run nearest to
it: what the piece would have taken on a core that runs the probe in the
reference time. Probe time is not part of any piece.

Pieces end where wsner passes one of a few hooked functions (a sentence
forward pass, a gazetteer sentence match, a sweep cell) at least
``LAP_S`` after the last probe, and at the end of each measurement. A
hook whose function no longer exists is skipped; pieces then get longer
and the correction coarser, but the figures stay comparable.
"""

from __future__ import annotations

import functools
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from tracing import rebind

# least measured time between two probes
LAP_S = 0.15
# probes on each side of a piece whose median is its speed
NEAREST = 2
# probe times on a quiet core (x86-64, Python 3.11, numpy 2.4, OpenBLAS with
# one thread); they fix the scale of reference seconds, not their spread
REFERENCE_S = {"interpreter": 0.0014, "blas": 0.002}

_rng = np.random.default_rng(0)
_W_SMALL = _rng.standard_normal((64, 28))
_X_SMALL = _rng.standard_normal((200, 12))
_W_WIDE = _rng.standard_normal((4, 1200, 300))
_X_WIDE = _rng.standard_normal((4, 300))
_WORDS = [f"W{i % 211}o{i % 17}" for i in range(7000)]


def _interpreter_kernel() -> float:
    h = np.zeros(16)
    for x in _X_SMALL:
        h = np.tanh(_W_SMALL @ np.concatenate((x, h)))[:16]
    counts: dict[str, int] = {}
    for w in _WORDS:
        key = w.lower()
        counts[key] = counts.get(key, 0) + len(key)
    return float(h.sum()) + len(counts)


def _blas_kernel() -> float:
    return sum(float((w @ x).sum()) for w in _W_WIDE for x in _X_WIDE)


KERNELS = {"interpreter": _interpreter_kernel, "blas": _blas_kernel}


def _hooked():
    """(owner, attribute) of the functions whose calls may end a piece."""
    from wsner import experiment, gazetteer, tagger

    return [(tagger, "_sentence_forward"), (gazetteer, "match_sentence"),
            (experiment, "run_cell")]


class SpeedClock:
    """Times measurements as lists of pieces; ``seconds`` and
    ``reference_seconds`` turn them into wall and reference time once
    every probe of the run is known."""

    def __init__(self):
        self._pid = os.getpid()
        self._probe_mid: list[float] = []
        self._probe_s: dict[str, list[float]] = {kind: [] for kind in KERNELS}
        self._last_probe_end = float("-inf")
        self._open: float | None = None
        self._pieces: list[tuple[float, float]] = []

    def _probe(self) -> None:
        start = perf_counter()
        for kind, kernel in KERNELS.items():
            # the untimed pass brings the kernel's data back into cache, so
            # the timed pass does not depend on what the work evicted
            kernel()
            t0 = perf_counter()
            kernel()
            self._probe_s[kind].append(perf_counter() - t0)
        self._last_probe_end = perf_counter()
        self._probe_mid.append((start + self._last_probe_end) / 2)

    def tick(self) -> None:
        """End the current piece here if a probe is due."""
        if self._open is None or os.getpid() != self._pid:
            return
        now = perf_counter()
        if now - self._last_probe_end >= LAP_S:
            self._pieces.append((self._open, now))
            self._probe()
            self._open = perf_counter()

    def measure(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` and the pieces its call was timed in."""
        if self._open is not None:
            raise RuntimeError("SpeedClock measurements do not nest")
        if perf_counter() - self._last_probe_end >= LAP_S:
            self._probe()
        self._pieces = []
        self._open = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._pieces.append((self._open, perf_counter()))
            self._open = None
            if perf_counter() - self._last_probe_end >= LAP_S:
                self._probe()
        return result, self._pieces

    @staticmethod
    def seconds(pieces) -> float:
        return sum(end - start for start, end in pieces)

    def reference_seconds(self, pieces, kind: str) -> float:
        """Reference time of ``pieces`` of work of the given kind."""
        mids = np.asarray(self._probe_mid)
        probes = self._probe_s[kind]
        total = 0.0
        for start, end in pieces:
            i = int(np.searchsorted(mids, (start + end) / 2))
            near = probes[max(0, i - NEAREST):i + NEAREST]
            total += (end - start) * REFERENCE_S[kind] / statistics.median(near)
        return total

    def probe_summary(self) -> dict[str, tuple[int, float]]:
        """Per kind, the number of probes and their median time."""
        return {kind: (len(v), statistics.median(v)) for kind, v in self._probe_s.items()}

    def _hook(self, fn):
        def hooked(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return functools.update_wrapper(hooked, fn)

    @contextmanager
    def hooks(self):
        """Let the hooked wsner functions end pieces while open."""
        undo = []
        for owner, attr in _hooked():
            original = getattr(owner, attr, None)
            if original is not None:
                rebind(original, self._hook(original), undo)
        try:
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)
