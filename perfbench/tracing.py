"""In-memory span tracing of wsner layers, applied from outside the package.

``Tracer.patch()`` rebinds each traced function in every loaded ``wsner``
module that holds it (``noise`` imports several ``tagger`` helpers by name,
so patching ``tagger`` alone would miss the EM and cleaner paths) and
restores every binding on exit. Spans (name, start, end, parent) are kept
in flat arrays; ``layer_values`` turns them into per-layer totals, self
times (span time minus the time of its child spans), call counts and the
counters recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LOSS_KINDS = ("hard", "soft", "channel")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _loss_span(args, kwargs):
    # mirrors the branch order of tagger._item_loss_grads
    item = _arg(args, kwargs, 2, "item")
    if item.soft is not None:
        return "tagger.loss.soft"
    if item.channel and _arg(args, kwargs, 3, "C") is not None:
        return "tagger.loss.channel"
    return "tagger.loss.hard"


def _cell_span(args, kwargs):
    return f"experiment.cell.{_arg(args, kwargs, 2, 'method')}"


def _tokens_of_arg(index, name):
    return lambda a, k, r: (("tokens", len(_arg(a, k, index, name))),)


def rebind(original, replacement, undo: list) -> bool:
    """Point every ``wsner`` module attribute bound to ``original`` at
    ``replacement``, appending (module, attribute, original) to ``undo``;
    False when no module binds it."""
    found = False
    for modname, module in list(sys.modules.items()):
        if modname != "wsner" and not modname.startswith("wsner."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
                found = True
    return found


def _function_specs():
    """(function, span name or name function, counter function) for every
    module-level function the benchmark traces."""
    from wsner import corpus, date_rules, evaluation, experiment, gazetteer, noise, tagger

    return [
        (tagger._lstm_forward, "tagger.lstm_forward", _tokens_of_arg(3, "X")),
        (tagger._lstm_backward, "tagger.lstm_backward", _tokens_of_arg(3, "dHs")),
        (tagger._sentence_forward, "tagger.head_forward", None),
        (tagger._sentence_backward, "tagger.head_backward", None),
        (tagger._item_loss_grads, _loss_span, _tokens_of_arg(1, "X")),
        (tagger._train_core, "tagger.sgd", None),
        (tagger.predict, "tagger.predict", None),
        (tagger.feature_vectors, "tagger.feature_vectors", None),
        (noise.em_noise_channel, "noise.em", None),
        (noise.train_cleaner, "noise.cleaner_train",
         lambda a, k, r: (("examples", len(a[0]) * k.get("epochs", 50)),)),
        (noise.estimate_confusion, "noise.estimate_confusion", None),
        (experiment.run_cell, _cell_span, None),
        (experiment._build_context, "experiment.build_context", None),
        (experiment.write_aggregate, "experiment.write_aggregate", None),
        (corpus.read_conll, "corpus.read_conll", lambda a, k, r: (("tokens", r.num_tokens),)),
        (corpus.read_tokens, "corpus.read_tokens", lambda a, k, r: (("tokens", r.num_tokens),)),
        (corpus.write_conll, "corpus.write_conll", lambda a, k, r: (("tokens", a[0].num_tokens),)),
        (corpus.subsample_tokens, "corpus.subsample", lambda a, k, r: (("tokens", r.num_tokens),)),
        (gazetteer.build_gazetteer, "gazetteer.build", lambda a, k, r: (("entries", len(r)),)),
        (gazetteer.match_sentence, "gazetteer.match",
         lambda a, k, r: (("tokens", len(a[0])), ("spans", len(r)))),
        (date_rules.annotate_dates, "date_rules.annotate",
         lambda a, k, r: (("tokens", len(a[0])), ("spans", len(r)))),
        (gazetteer.annotate_distant, "gazetteer.merge",
         lambda a, k, r: (("kept", sum(len(s.spans) for s in r.sentences)),)),
        (evaluation.span_prf, "evaluation.span_prf",
         lambda a, k, r: (("sentences", len(a[0].sentences)),)),
    ]


def _method_specs():
    """(class, attribute, span name) for traced methods."""
    from wsner import noise, tagger

    return [
        (tagger.EmbeddingTable, "load", "tagger.embeddings_load"),
        (noise.CleaningParams, "apply", "noise.cleaner_apply"),
    ]


def span_names() -> set[str]:
    """Every span name a traced run can record."""
    from wsner import experiment

    names = {name for _, name, _ in _function_specs() if isinstance(name, str)}
    names |= {f"tagger.loss.{kind}" for kind in LOSS_KINDS}
    names |= {f"experiment.cell.{m}" for m in experiment.METHODS}
    names |= {name for _, _, name in _method_specs()}
    names.add("noise.em_e_step")
    return names


def counter_names() -> set[str]:
    """Every counter a traced run can record, as ``<span>.<counter>``."""
    return {
        "tagger.lstm_forward.tokens", "tagger.lstm_backward.tokens",
        "noise.em_e_step.tokens", "noise.cleaner_train.examples",
        "corpus.read_conll.tokens", "corpus.read_tokens.tokens",
        "corpus.write_conll.tokens", "corpus.subsample.tokens",
        "gazetteer.build.entries", "gazetteer.match.tokens",
        "gazetteer.match.spans", "date_rules.annotate.tokens",
        "date_rules.annotate.spans", "gazetteer.merge.kept",
        "evaluation.span_prf.sentences",
    } | {f"tagger.loss.{kind}.tokens" for kind in LOSS_KINDS}


def derivable_metrics() -> set[str]:
    """Names ``layer_values`` can return: ``<span>.s``, ``.self_s`` and
    ``.calls`` for every span, every counter, and the kept ratio."""
    out = set(counter_names()) | {"gazetteer.kept_ratio"}
    for name in span_names():
        out |= {f"{name}.s", f"{name}.self_s", f"{name}.calls"}
    return out


class Tracer:
    """Collects spans and counters while its ``patch()`` context is open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.ends)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` recorded as one span per call; ``name`` is a string or a
        function of the call's arguments; ``count`` returns (counter,
        increment) pairs from the arguments and the result."""
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            span = fixed or name(args, kwargs)
            idx = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                for key, n in count(args, kwargs, result):
                    self.counts[f"{span}.{key}"] += n
            return result

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def patch(self):
        """Rebind every traced function and method for the duration."""
        from wsner import noise

        undo = []
        try:
            for fn, name, count in _function_specs():
                if not rebind(fn, self.wrap(fn, name, count), undo):
                    raise RuntimeError(f"no module binds {fn.__qualname__}")
            # noise binds tagger._sentence_forward by name and only its EM
            # E-step calls it there: an outer span on that binding times the
            # E-step while the inner one still counts as head_forward.
            head = noise._sentence_forward
            undo.append((noise, "_sentence_forward", head))
            noise._sentence_forward = self.wrap(head, "noise.em_e_step",
                                                _tokens_of_arg(1, "X"))
            for cls, attr, name in _method_specs():
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(original.__func__, name))
                else:
                    replacement = self.wrap(original, name)
                setattr(cls, attr, replacement)
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_values(self) -> dict[str, float]:
        """Per-span total, self time and calls, plus the counters."""
        ids = np.frombuffer(self.name_ids, dtype=np.intc).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        total = np.bincount(ids, weights=dur, minlength=n)
        self_time = np.bincount(ids, weights=dur - child, minlength=n)
        calls = np.bincount(ids, minlength=n)
        out: dict[str, float] = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.s"] = float(total[nid])
            out[f"{name}.self_s"] = float(self_time[nid])
            out[f"{name}.calls"] = float(calls[nid])
        candidates = out.get("gazetteer.match.spans", 0.0) + out.get("date_rules.annotate.spans", 0.0)
        out["gazetteer.kept_ratio"] = (out.get("gazetteer.merge.kept", 0.0) / candidates
                                       if candidates else 0.0)
        return out

    def check_bindings(self) -> list[str]:
        """Both LSTM directions run once per sentence pass, so the cell
        calls must be exactly twice the head calls summed over every
        binding; a missed binding breaks the equality."""
        calls = np.bincount(np.frombuffer(self.name_ids, dtype=np.intc),
                            minlength=len(self.names))
        count = {name: int(calls[nid]) for nid, name in enumerate(self.names)}
        problems = []
        for cell, head in (("tagger.lstm_forward", "tagger.head_forward"),
                           ("tagger.lstm_backward", "tagger.head_backward")):
            if count.get(cell, 0) != 2 * count.get(head, 0):
                problems.append(f"{cell}.calls={count.get(cell, 0)} != "
                                f"2 x {head}.calls={count.get(head, 0)}")
        return problems

    def save(self, path) -> None:
        """Write the raw spans (times relative to the first span start)."""
        starts = np.frombuffer(self.starts)
        origin = starts[0] if len(starts) else 0.0
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_ids, dtype=np.intc),
            parent=np.frombuffer(self.parents, dtype=np.intc),
            start=starts - origin, end=np.frombuffer(self.ends) - origin)
