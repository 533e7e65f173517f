"""Seeded input generators for the three benchmark workloads.

Every generator writes its files into a given directory before any timing
starts and returns the paths plus whatever in-memory gold the checks need.
The same seed always produces the same bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from wsner import make_synth, synth
from wsner.corpus import Dataset, EntitySpan, LabeledSentence, TagSet, write_conll
from wsner.date_rules import DEFAULT_KEYWORD_RESOURCE
from wsner.tagger import EmbeddingTable

# synth-sweep: the bundled config cut to one repeat, so that a whole sweep
# (all six methods at both budgets) takes 13-21 s on one shared core. Two epochs,
# not one: after one epoch the budget-300 cells are barely trained and the
# sweep's mean F1 spreads by a quarter across seeds, after two by 6%.
SWEEP_OVERRIDES = {"repeats": 1, "epochs": 2, "em_iterations": 1,
                   "cleaner_epochs": 3}

# paper-train: the paper's tagger shape (d=300, h=300, f=128). One epoch at
# lr 0.2 trains the d=300 task nearly to convergence; at lr 0.1 the test F1
# ranged 0.85-0.99 across seeds, so it could not serve as a steady guard.
PAPER_DIM = 300
PAPER_TAGGER = {"hidden_size": 300, "feature_size": 128,
                "learning_rate": 0.2, "epochs": 1}

ENTITY_TYPES = ("PER", "ORG", "LOC")
ALIAS_SOURCE = "aliases"
ALIAS_MIN_LEN = 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale (full or the smoke test's tiny)."""

    synth_train: int
    synth_test: int
    synth_extra: int
    paper_clean: int
    paper_distant: int
    paper_test: int
    label_tokens: int
    label_names: int
    label_outside: int


FULL = Sizes(synth_train=2000, synth_test=700, synth_extra=1200,
             paper_clean=200, paper_distant=500, paper_test=1000,
             label_tokens=40000, label_names=150, label_outside=500)
TINY = Sizes(synth_train=150, synth_test=60, synth_extra=60,
             paper_clean=150, paper_distant=150, paper_test=100,
             label_tokens=300, label_names=20, label_outside=60)


# ---------------------------------------------------------------------------
# synth-sweep


def write_sweep_inputs(root: str, seed: int, sizes: Sizes) -> str:
    """The bundled synthetic corpus (generator seed 0, as ``wsner synth``
    writes it by default) and its sweep config with ``SWEEP_OVERRIDES`` and
    ``base_seed`` = *seed*; returns the config path.

    The seed moves the subsamples and the training seeds, not the corpus:
    task difficulty differs so much between generated corpora that the
    sweep's mean F1 would spread by about a third across seeds.
    """
    paths = make_synth.write_synth_corpus(
        root, seed=0, train_tokens=sizes.synth_train,
        test_tokens=sizes.synth_test, extra_tokens=sizes.synth_extra)
    with open(paths["config"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(SWEEP_OVERRIDES, base_seed=seed)
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return paths["config"]


# ---------------------------------------------------------------------------
# paper-train


def write_paper_inputs(root: str, seed: int, sizes: Sizes) -> dict[str, str]:
    """Gold clean, test and pool sentences (lengths 5-40) over a d=300
    vocabulary, noisy twins of the pool and of the clean set, and the
    embeddings; returns name -> path."""
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng([seed, 10])
    tag_set = TagSet()
    words, table, _ = synth._make_vocabulary(
        rng, tag_set, entity_words=200, outside_words=300, dim=PAPER_DIM,
        centroid_scale=1.0, jitter=1.4)

    def sentences(tokens):
        return Dataset(tuple(synth._make_sentences(rng, words, tag_set, tokens,
                                                   5, 40, 0.5)), tag_set)

    clean = sentences(sizes.paper_clean)
    pool = sentences(sizes.paper_distant)
    test = sentences(sizes.paper_test)
    datasets = {
        "clean": clean,
        "distant": synth.uniform_flip(pool, 0.3, [seed, 11]),
        "pair": synth.uniform_flip(clean, 0.3, [seed, 12]),
        "test": test,
    }
    paths = {}
    for name, ds in datasets.items():
        paths[name] = os.path.join(root, f"{name}.conll")
        write_conll(ds, paths[name])
    paths["embeddings"] = os.path.join(root, "embeddings.txt")
    table.save(paths["embeddings"])
    return paths


# ---------------------------------------------------------------------------
# label-corpus

_SYLLABLES = ("a", "bá", "bọ́", "dé", "dùn", "fẹ́", "fọ", "gbé", "gbọ̀", "jù",
              "kẹ́", "kó", "là", "lé", "mí", "mọ̀", "ní", "ò", "ọlá", "pé",
              "ṣà", "ṣe", "tó", "tú", "wà", "wọ́", "yẹ", "yí", "èé", "ìbí")


def _word(rng, syllables: int) -> str:
    return "".join(_SYLLABLES[int(i)] for i in
                   rng.integers(len(_SYLLABLES), size=syllables))


def _date_keywords() -> list[str]:
    text = resources.files("wsner.data").joinpath(DEFAULT_KEYWORD_RESOURCE).read_text("utf-8")
    return [w.strip() for w in text.splitlines()
            if w.strip() and not w.startswith("#")]


@dataclass(frozen=True)
class LabelInputs:
    tokens_path: str
    entities_path: str
    embeddings_path: str
    gold: Dataset
    min_len: dict


def write_label_inputs(root: str, seed: int, sizes: Sizes) -> LabelInputs:
    """Token corpus (sentence lengths 3-60) with the generator's gold, an
    entity-list TSV with multi-token surfaces, and d=300 word vectors.

    The entity list covers most but not all gold names, lists some outside
    words and some names under a second type, and carries two-letter
    aliases that the minimum-length filter drops; numbers also appear
    outside dates. So the distant annotation has both misses and false
    hits, and its F1 against gold is well inside (0, 1).
    """
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng([seed, 20])
    tag_set = TagSet()
    outside = sorted({_word(rng, int(rng.integers(1, 4))) for _ in range(sizes.label_outside)})
    names = {}
    for label in ENTITY_TYPES:
        surfaces = set()
        while len(surfaces) < sizes.label_names:
            n_tokens = int(rng.integers(1, 4))
            surfaces.add(tuple(_word(rng, int(rng.integers(2, 4))).capitalize()
                               for _ in range(n_tokens)))
        names[label] = sorted(surfaces)
    keywords = _date_keywords()

    sentences = []
    produced = 0
    while produced < sizes.label_tokens:
        # a name or date may overshoot the target by two tokens: lengths 3-60
        target = int(rng.integers(3, 59))
        tokens: list[str] = []
        spans = []
        while len(tokens) < target:
            r = rng.random()
            if r < 0.12:
                label = ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))]
                surface = names[label][int(rng.integers(len(names[label])))]
                spans.append(EntitySpan(label, len(tokens), len(tokens) + len(surface)))
                tokens.extend(surface)
            elif r < 0.16:
                keyword = keywords[int(rng.integers(len(keywords)))]
                follower = (str(int(rng.integers(1, 2030))) if rng.random() < 0.5
                            else outside[int(rng.integers(len(outside)))])
                spans.append(EntitySpan("DATE", len(tokens), len(tokens) + 2))
                tokens.extend((keyword, follower))
            elif r < 0.18:
                tokens.append(str(int(rng.integers(1, 100))))
            else:
                tokens.append(outside[int(rng.integers(len(outside)))])
        sentences.append(LabeledSentence(tuple(tokens), tuple(spans), "gold"))
        produced += len(tokens)
    gold = Dataset(tuple(sentences), tag_set)

    tokens_path = os.path.join(root, "corpus.tokens")
    with open(tokens_path, "w", encoding="utf-8") as fh:
        for sent in gold.sentences:
            fh.write("\n".join(sent.tokens))
            fh.write("\n\n")

    def share(items, fraction):
        # exact counts, not one draw per item: the annotation F1 then moves
        # less with the seed
        picked = rng.permutation(len(items))[:round(fraction * len(items))]
        return [items[int(k)] for k in sorted(picked)]

    entities_path = os.path.join(root, "entities.tsv")
    with open(entities_path, "w", encoding="utf-8") as fh:
        for label in ENTITY_TYPES:
            other = ENTITY_TYPES[(ENTITY_TYPES.index(label) + 1) % len(ENTITY_TYPES)]
            pool = names[label]
            rows = [(s, label, "kb") for s in share(pool, 0.75)]
            rows += [(s, other, "kb") for s in share(pool, 0.1)]
            rows += [(s[:1], label, "kb") for s in share([s for s in pool if len(s) > 1], 0.2)]
            rows += [((s[0][:2],), label, ALIAS_SOURCE) for s in share(pool, 0.3)]
            for surface, typ, source in rows:
                fh.write(f"{' '.join(surface)}\t{typ}\t{source}\n")
        for word in share(outside, 0.02):
            fh.write(f"{word}\t{ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))]}\tkb\n")

    vocab_words = sorted({t for s in gold.sentences for t in s.tokens if not t.isdigit()})
    keep = [w for w in vocab_words if rng.random() < 0.9]
    matrix = np.round(rng.normal(0.0, 0.5, size=(len(keep), PAPER_DIM)), 4)
    embeddings_path = os.path.join(root, "embeddings.txt")
    EmbeddingTable({w: i for i, w in enumerate(keep)}, matrix).save(embeddings_path)
    return LabelInputs(tokens_path, entities_path, embeddings_path, gold,
                       {ALIAS_SOURCE: ALIAS_MIN_LEN})

