"""Writer for the bundled synthetic corpus and sweep config.

Produces a small, fully reproducible low-resource setup: gold train/test
splits, a distant file holding noisy twins of the train sentences plus an
extra unlabeled-pool annotation, embeddings in word-vector text format, and
a ready-to-run experiment config.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .corpus import Dataset, TagSet, merge, write_conll
from .synth import _make_sentences, _make_vocabulary, uniform_flip

SWEEP_CONFIG = {
    "train": "train.conll",
    "test": "test.conll",
    "distant": "distant.conll",
    "distant_test": "distant_test.conll",
    "embeddings": "embeddings.txt",
    "out_dir": "runs",
    "clean_budgets": [300, "unlimited"],
    "methods": ["baseline-clean", "naive-mix", "confusion", "noise-channel",
                "cleaning", "distant-only"],
    "repeats": 2,
    "base_seed": 7,
    "hidden_size": 16,
    "feature_size": 16,
    "learning_rate": 0.05,
    "epochs": 6,
    "alpha": 1.0,
    "em_iterations": 6,
    "cleaner_hidden": 24,
    "cleaner_epochs": 30,
}


def write_synth_corpus(out_dir, seed: int = 0, *, train_tokens: int = 2000,
                       test_tokens: int = 700, extra_tokens: int = 1200,
                       noise_rate: float = 0.3) -> dict[str, str]:
    """Generate and write the corpus files; returns name → path."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 0])
    tag_set = TagSet()
    words, table, _ = _make_vocabulary(
        rng, tag_set, entity_words=60, outside_words=90, dim=12,
        centroid_scale=1.0, jitter=0.8)
    train = Dataset(tuple(_make_sentences(rng, words, tag_set, train_tokens,
                                          5, 10, 0.5)), tag_set)
    test = Dataset(tuple(_make_sentences(rng, words, tag_set, test_tokens,
                                         5, 10, 0.5)), tag_set)
    extra = Dataset(tuple(_make_sentences(rng, words, tag_set, extra_tokens,
                                          5, 10, 0.5)), tag_set)
    distant = merge(uniform_flip(train, noise_rate, [seed, 1]),
                    uniform_flip(extra, noise_rate, [seed, 2]))
    distant_test = uniform_flip(test, noise_rate, [seed, 3])

    paths = {}
    for name, ds in (("train", train), ("test", test), ("distant", distant),
                     ("distant_test", distant_test)):
        path = os.path.join(out_dir, f"{name}.conll")
        write_conll(ds, path)
        paths[name] = path
    emb_path = os.path.join(out_dir, "embeddings.txt")
    table.save(emb_path)
    paths["embeddings"] = emb_path
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(SWEEP_CONFIG, fh, indent=2)
        fh.write("\n")
    paths["config"] = config_path
    return paths
