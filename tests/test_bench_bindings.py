"""The benchmark's tracer (perfbench/tracing.py) binds wsner functions by
name; a rename that breaks it fails here in a second rather than in a
multi-minute benchmark smoke run. The benchmark's workloads call other
private wsner names too, so one test runs the whole benchmark at tiny
sizes. Nothing under perfbench/ is changed."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from wsner import corpus, date_rules, experiment, gazetteer, noise, tagger
from wsner.corpus import Dataset, LabeledSentence
from wsner.tagger import TaggerConfig

from conftest import write_tiny_sweep
from support import make_noise_benchmark

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_layer():
    task = make_noise_benchmark(0, clean_tokens=30, noisy_tokens=40, test_tokens=20,
                                      entity_words=6, outside_words=6)
    config = TaggerConfig(hidden_size=3, feature_size=3, epochs=1, seed=0)
    tracer = _tracing_module().Tracer()
    with tracer.patch():
        params = tagger.train(task.clean, config, task.table)
        tagger.predict(task.test, params, task.table)
        noise.em_noise_channel(task.distant, config, task.table, 1)
        noise.train_cleaning_method(task.clean, task.distant, task.pair_source, config,
                                    task.table, noise.MethodOptions(cleaner_epochs=1))
    assert tracer.check_bindings() == []
    values = tracer.layer_values()
    for span in ("tagger.lstm_forward", "tagger.lstm_backward", "tagger.head_forward",
                 "tagger.head_backward", "tagger.loss.hard", "tagger.loss.soft",
                 "tagger.sgd", "tagger.predict", "tagger.feature_vectors", "noise.em",
                 "noise.em_e_step", "noise.cleaner_train", "noise.cleaner_apply"):
        assert values.get(f"{span}.calls", 0) >= 1, span
    # patch() restores every binding it replaced
    assert not hasattr(tagger.predict, "__wrapped__")
    assert noise._sentence_forward is tagger._sentence_forward


def test_traced_training_counts_every_token_in_both_lstm_passes():
    # the tracer reads dHs of _lstm_backward as argument 3 or by keyword:
    # out passed at position 3 would be counted in place of dHs
    task = make_noise_benchmark(0, clean_tokens=30, noisy_tokens=40, test_tokens=20,
                                entity_words=6, outside_words=6)
    config = TaggerConfig(hidden_size=3, feature_size=3, epochs=2, seed=0)
    tracer = _tracing_module().Tracer()
    with tracer.patch():
        tagger.train(task.clean, config, task.table)
    assert tracer.check_bindings() == []
    values = tracer.layer_values()
    expected = 2 * task.clean.num_tokens * config.epochs
    assert values["tagger.lstm_backward.tokens"] == values["tagger.lstm_forward.tokens"] == expected


def test_traced_predict_records_no_sentence_pass():
    # the batched path stays out of the per-sentence spans whose calls the
    # binding check counts, 2 LSTM passes per head pass
    task = make_noise_benchmark(0, clean_tokens=30, noisy_tokens=40, test_tokens=20,
                                entity_words=6, outside_words=6)
    params = tagger.init_params(np.random.default_rng(0), "lstm", task.table.dimension,
                                3, 3, task.test.tag_set.size)
    tracer = _tracing_module().Tracer()
    with tracer.patch():
        tagger.predict(task.test, params, task.table)
    assert tracer.check_bindings() == []
    values = tracer.layer_values()
    assert values["tagger.predict.calls"] == 1
    for span in ("tagger.lstm_forward", "tagger.head_forward"):
        assert values.get(f"{span}.calls", 0) == 0, span


def test_tracer_binds_every_sweep_cell(tmp_path):
    config = experiment.load_config(write_tiny_sweep(tmp_path)["config"])
    ctx = experiment._build_context(config)
    tracer = _tracing_module().Tracer()
    with tracer.patch():
        for method in experiment.METHODS:
            experiment.run_cell(ctx, 40, method, 0)
    assert tracer.check_bindings() == []
    values = tracer.layer_values()
    for method in experiment.METHODS:
        assert values.get(f"experiment.cell.{method}.calls", 0) == 1, method
    # the EM E-step is what the noise module's own _sentence_forward binding times
    assert values.get("noise.em_e_step.calls", 0) >= 1
    assert noise._sentence_forward is tagger._sentence_forward


def test_tracer_sees_every_annotation_layer_once_per_sentence():
    # annotate_distant must reach match_sentence and annotate_dates through
    # their module bindings, once per sentence, or these spans read zero
    gaz = gazetteer.build_gazetteer([gazetteer.GazetteerEntry(("Kano",), "LOC")])
    rules = date_rules.default_date_rules()
    data = Dataset(tuple(LabeledSentence(tokens) for tokens in (
        ("Kano", "ọdún", "2018"), ("x",), ("ní", "Kano"), ("ọjọ́", "8", "Kano", "y"))))
    tracer = _tracing_module().Tracer()
    with tracer.patch():
        out = gazetteer.annotate_distant(data, gaz, rules)
    values = tracer.layer_values()
    n = len(data.sentences)
    assert values["gazetteer.match.calls"] == values["date_rules.annotate.calls"] == n
    assert values["gazetteer.merge.calls"] == 1
    assert values["gazetteer.match.tokens"] == values["date_rules.annotate.tokens"] == 10
    assert values["gazetteer.merge.kept"] == sum(len(s.spans) for s in out.sentences) == 5
    assert not hasattr(gazetteer.match_sentence, "__wrapped__")
    assert gazetteer.annotate_dates is date_rules.annotate_dates


def test_traced_annotation_of_a_read_corpus_sees_every_sentence_and_token(tmp_path):
    # one token per line and no other whitespace: read_tokens splits the
    # text in bulk, and the annotators still see each sentence once
    rng = np.random.default_rng(5)
    words = ("Kano", "Adé", "Ọlá", "ọdún", "ọjọ́", "2018", "8", "ilé", "owó", "ní")
    sentences = [[words[int(k)] for k in rng.integers(len(words), size=int(rng.integers(1, 16)))]
                 for _ in range(60)]
    path = tmp_path / "corpus.tokens"
    path.write_text("".join("\n".join(s) + "\n\n" for s in sentences), encoding="utf-8")
    gaz = gazetteer.build_gazetteer([gazetteer.GazetteerEntry(("Kano",), "LOC"),
                                     gazetteer.GazetteerEntry(("Adé", "Ọlá"), "PER"),
                                     gazetteer.GazetteerEntry(("Ọlá",), "ORG")])
    rules = date_rules.default_date_rules()
    tracer = _tracing_module().Tracer()
    with tracer.patch():
        out = gazetteer.annotate_distant(corpus.read_tokens(path), gaz, rules)
    values = tracer.layer_values()
    tokens = sum(len(s) for s in sentences)
    assert [list(s.tokens) for s in out.sentences] == sentences
    assert values["corpus.read_tokens.tokens"] == tokens
    assert values["gazetteer.match.calls"] == values["date_rules.annotate.calls"] == 60
    assert values["gazetteer.match.tokens"] == values["date_rules.annotate.tokens"] == tokens
    assert values["gazetteer.merge.kept"] == sum(len(s.spans) for s in out.sentences) > 0


def test_the_benchmark_runs_every_workload_at_tiny_sizes():
    # each workload checks its own output; about 7 s on two CPUs
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "1", "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 < result["attempted"], result
