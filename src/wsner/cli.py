"""Command-line surface: ingest → annotate → train → evaluate, plus the
experiment sweep.

``wsner annotate`` is the one place that makes distant labels. ``wsner
train`` and the sweep read them from its files and refuse, before any
training, inputs that ``noise.require_inputs`` refuses: every method but
baseline-clean needs distant sentences, and confusion and cleaning pair
each clean sentence with its first token-identical sentence in the distant
file, so the clean sentences must be annotated into that file too. ``wsner
evaluate --pred`` scores any annotation against gold, a distant one
included.

Exit codes: 0 success, 1 data error (message names the file and line when
known) or a sweep with a failed cell, 2 usage error (argparse).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import evaluation, experiment, noise, tagger
from .corpus import Dataset, TagSet, read_conll, read_tokens, write_conll
from .date_rules import DateRuleSet, default_date_rules
from .errors import AlignmentError, SchemaError, WsnerError
from .gazetteer import annotate_distant, build_gazetteer, read_entity_tsv, write_entity_tsv

EMBEDDINGS_CACHE = (
    "The parsed embeddings are cached beside their text file as "
    f"FILE{tagger.CACHE_SUFFIX}, keyed by the sha256 of the file's bytes, so a later run "
    "on the same bytes skips the parse; where that directory cannot be written, the cache "
    "is skipped.")
EMBEDDINGS_HELP = ("word vectors in text format: a '|V| d' line, then 'token v1 ... vd' "
                   "rows (fastText .vec files load as they are). " + EMBEDDINGS_CACHE)


def _tag_set(args) -> TagSet:
    if args.entity_types:
        return TagSet(tuple(args.entity_types.split(",")))
    return TagSet()


def _at_least(minimum: int):
    """The argparse type of an integer >= *minimum*; argparse reports any
    other value as a usage error naming the option."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # also the empty N of a --min-len value without '='
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value
    return parse


_min_len = _at_least(1)  # a --default-min-len value
_seed = _at_least(0)  # numpy's generators take no negative seed


def _min_len_item(text: str) -> tuple[str, int]:
    """One ``--min-len SOURCE=N`` value, its N checked like ``--default-min-len``."""
    source, _, n = text.partition("=")
    try:
        return source, _min_len(n)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected SOURCE=N with an integer N >= 1, "
                                         f"got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    # imported here: urllib.request loads ssl, which no other subcommand
    # needs and every spawned sweep worker would otherwise load too
    from . import ingest

    query = ingest.EntityQuery(
        entity_class=args.entity_class,
        language_code=args.lang,
        endpoint_url=args.endpoint or ingest.WIKIDATA_ENDPOINT,
        page_size=args.page_size,
        max_results=args.max_results,
    )
    transport = None
    if args.fixture:
        transport = ingest.FixtureTransport.from_files(args.fixture)
    result = ingest.fetch_entities(query, transport)
    write_entity_tsv(result.entries, args.out)
    note = " (truncated at max-results)" if result.truncated else ""
    print(f"wrote {len(result.entries)} {args.entity_class} entries to {args.out}{note}")
    return 0


def cmd_annotate(args) -> int:
    tag_set = _tag_set(args)
    if args.keywords is not None and DateRuleSet.date_label not in tag_set.entity_types:
        args.usage_error(f"--keywords: date rules label {DateRuleSet.date_label}, which is "
                         "not among --entity-types")
    corpus = Dataset(read_tokens(args.corpus).sentences, tag_set)
    entries = [entry for path in args.gazetteer for entry in read_entity_tsv(path, tag_set)]
    gaz = build_gazetteer(entries, dict(args.min_len or ()), tag_set=tag_set,
                          default_min_len=args.default_min_len, lowercase=args.lowercase,
                          strip_marks=args.strip_diacritics)
    rules = None
    if args.keywords == "default":
        rules = default_date_rules()
    elif args.keywords is not None:
        rules = DateRuleSet.load(args.keywords)
    annotated = annotate_distant(corpus, gaz, rules)
    write_conll(annotated, args.out)
    n_spans = sum(len(s.spans) for s in annotated.sentences)
    print(f"annotated {len(annotated.sentences)} sentences "
          f"({n_spans} spans) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.confusion_out and args.method not in ("confusion", "noise-channel"):
        args.usage_error(f"--confusion-out: {args.method} learns no channel; "
                         "use it with --method confusion or noise-channel")
    config, options = noise.load_settings(
        args.config, None if args.seed is None else {"seed": args.seed})
    tag_set = _tag_set(args)
    clean = read_conll(args.clean, tag_set=tag_set)
    distant = (read_conll(args.distant, tag_set=tag_set, provenance="distant")
               if args.distant else Dataset((), tag_set))
    noise.require_inputs((args.method,), clean, distant, args.clean,
                         args.distant or "--distant (not given)")
    table = tagger.EmbeddingTable.load(args.embeddings)
    params, channel = noise.fit(args.method, clean, distant, config, table, options)
    tagger.save_checkpoint(args.model_out, params, tag_set)
    print(f"saved model to {args.model_out}")
    if args.confusion_out:
        noise.save_confusion(channel, args.confusion_out)
        print(f"saved confusion matrix to {args.confusion_out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.pred and args.embeddings:
        args.usage_error("--embeddings: --pred is scored as it is; use it with --model")
    if args.model and args.entity_types:
        args.usage_error("--entity-types: --model scores with the checkpoint's labels")
    if not (args.pred or args.model and args.embeddings):
        args.usage_error("pass either --pred or both --model and --embeddings")
    if args.pred:
        tag_set = _tag_set(args)
        gold = read_conll(args.gold, tag_set=tag_set)
        pred = read_conll(args.pred, tag_set=tag_set)
    else:
        params, tag_set = tagger.load_checkpoint(args.model)
        gold = read_conll(args.gold, tag_set=tag_set)
        table = tagger.EmbeddingTable.load(args.embeddings)
        try:
            pred = tagger.predict(gold, params, table)
        except SchemaError as exc:  # a table of another size than the model's
            raise SchemaError(f"{args.model} vs {args.embeddings}: {exc}") from None
    source = args.pred or args.model
    try:
        metrics = evaluation.span_prf(gold, pred)
    except AlignmentError as exc:
        raise AlignmentError(f"{args.gold} vs {source}: {exc}") from None
    print(evaluation.format_report(metrics))
    if args.csv:
        columns = ["gold", "pred_source"] + evaluation.metrics_columns(tag_set)
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            row = {"gold": args.gold, "pred_source": source}
            row.update(evaluation.metrics_row(metrics, tag_set))
            writer.writerow(row)
        print(f"wrote metrics to {args.csv}")
    return 0


def cmd_inspect(args) -> int:
    if args.model:
        params, tag_set = tagger.load_checkpoint(args.model)
        print(f"labels: {' '.join(tag_set.labels)}")
        print(f"embedding dim: {params.embed_dim}  hidden: {params.hidden_size}  "
              f"features: {params.feature_size}  labels: {params.label_count}")
        print(f"parameters: {params.num_parameters}")
        for name, arr in params.arrays():
            print(f"  {name:8s} shape={arr.shape} "
                  f"min={arr.min():+.4f} max={arr.max():+.4f}")
    else:
        channel = noise.load_confusion(args.confusion)
        width = max(len(lab) for lab in channel.labels)
        header = " ".join(f"{lab:>8s}" for lab in channel.labels)
        print(f"{'':{width}s} {header}")
        for lab, row in zip(channel.labels, channel.matrix):
            cells = " ".join(f"{v:8.4f}" for v in row)
            print(f"{lab:{width}s} {cells}")
    return 0


def cmd_experiment(args) -> int:
    overrides = {}
    if args.out_dir:
        overrides["out_dir"] = os.path.abspath(args.out_dir)
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.base_seed is not None:
        overrides["base_seed"] = args.base_seed
    if args.budgets:
        overrides["clean_budgets"] = args.budgets.split(",")
    if args.methods:
        overrides["methods"] = args.methods.split(",")
    config = experiment.load_config(args.config, overrides)
    runs_path, agg_path = experiment.run_experiment(config)
    print(f"per-run metrics: {runs_path}")
    print(f"aggregated metrics: {agg_path}")
    with open(runs_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = [row for row in rows if row["status"] != "ok"]
    if failed:
        first = failed[0]
        print(f"error: {len(failed)} of {len(rows)} sweep cells failed; the first is "
              f"{first['setting']}/{first['method']}/{first['repeat']}: "
              f"{first['status'].removeprefix('error: ')}", file=sys.stderr)
        return 1
    return 0


def cmd_synth(args) -> int:
    from .make_synth import write_synth_corpus
    paths = write_synth_corpus(args.out_dir, seed=args.seed)
    print(f"wrote synthetic corpus to {args.out_dir}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsner",
        description="Weakly supervised NER: annotate, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="fetch an entity list from a SPARQL endpoint")
    p.add_argument("--class", dest="entity_class", required=True,
                   choices=("person", "organization", "location"))
    p.add_argument("--lang", required=True, help="label language code, e.g. yo")
    p.add_argument("--endpoint", default=None,
                   help="SPARQL endpoint URL (default: the Wikidata query service)")
    p.add_argument("--out", required=True)
    p.add_argument("--page-size", type=int, default=1000)
    p.add_argument("--max-results", type=int, default=None)
    p.add_argument("--fixture", action="append",
                   help="recorded response page(s); replays instead of HTTP")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("annotate", help="distant annotation via entity lists and date rules")
    p.add_argument("--corpus", required=True,
                   help="pre-tokenized file, one token per line")
    group = p.add_argument_group("distant annotator", "How the corpus is annotated.")
    group.add_argument("--gazetteer", action="append", default=[],
                       help="entity-list TSV 'surface<TAB>type<TAB>source'; repeatable")
    group.add_argument("--keywords", default=None,
                       help="date keyword file, or 'default' for the bundled list; "
                            "needs DATE among --entity-types")
    group.add_argument("--min-len", action="append", dest="min_len", type=_min_len_item,
                       help="SOURCE=N minimum character length per source")
    group.add_argument("--default-min-len", type=_min_len, default=1,
                       help="minimum character length of a source without --min-len")
    group.add_argument("--lowercase", action="store_true",
                       help="match entity lists case-insensitively")
    group.add_argument("--strip-diacritics", action="store_true",
                       help="match entity lists with combining marks removed")
    p.add_argument("--entity-types", default=None, help="comma-separated")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate, usage_error=p.error)

    p = sub.add_parser(
        "train", help="train a tagger, optionally with noise handling",
        description="Train a tagger with one method. baseline-clean trains on the --clean "
                    "sentences; naive-mix, confusion and noise-channel need --distant "
                    "sentences, and cleaning needs both. Confusion and cleaning also pair "
                    "each clean sentence with its first token-identical sentence in "
                    "--distant. Missing inputs are refused before the embeddings load.")
    p.add_argument("--clean", required=True)
    p.add_argument("--distant", default=None,
                   help="distant training data written by 'wsner annotate'")
    p.add_argument("--method", default="baseline-clean", choices=noise.METHODS)
    p.add_argument("--config", default=None,
                   help="flat JSON config with any of the keys "
                        + ", ".join(noise.TAGGER_KEYS + noise.OPTION_KEYS))
    p.add_argument("--seed", type=_seed, default=None,
                   help="training seed, an integer >= 0; overrides the config's seed")
    p.add_argument("--embeddings", required=True, help=EMBEDDINGS_HELP)
    p.add_argument("--entity-types", default=None)
    p.add_argument("--model-out", required=True)
    p.add_argument("--confusion-out", default=None,
                   help="write the learned channel; confusion and noise-channel only")
    p.set_defaults(func=cmd_train, usage_error=p.error)

    p = sub.add_parser("evaluate", help="span P/R/F1 of predictions or of a distant "
                                        "annotation against gold")
    p.add_argument("--gold", required=True)
    scored = p.add_mutually_exclusive_group()
    scored.add_argument("--pred", default=None,
                        help="the annotation to score: predictions, or a distant annotation "
                             "written by 'wsner annotate'")
    scored.add_argument("--model", default=None)
    p.add_argument("--embeddings", default=None, help="with --model: " + EMBEDDINGS_HELP)
    p.add_argument("--entity-types", default=None,
                   help="with --pred: comma-separated labels of both files (--model uses the "
                        "checkpoint's)")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_evaluate, usage_error=p.error)

    p = sub.add_parser("inspect", help="dump a model checkpoint or confusion matrix")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--model", default=None)
    what.add_argument("--confusion", default=None)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "experiment", help="run the clean-size × method × seed sweep",
        description="Run the clean-size × method × seed sweep into OUT_DIR/runs.csv and "
                    "OUT_DIR/aggregate.csv. The config's distant and distant_test files "
                    "come from 'wsner annotate'. Every method but baseline-clean and "
                    "distant-only trains on the distant file, and confusion and cleaning "
                    "pair each train sentence with its first token-identical sentence there; "
                    "distant-only scores distant_test. These inputs are checked before any "
                    "cell runs. "
                    "Pending cells run in spawned worker processes, one per CPU this process "
                    "may use and at most one per pending cell; with one worker they run in "
                    "this process. Workers start the most expensive cells first (cleaning, "
                    "noise-channel, confusion and naive-mix, baseline-clean, distant-only; "
                    "larger budgets first). Only this process writes runs.csv: one row per "
                    "cell in (budget, method, repeat) order, each flushed as it is written, "
                    "so an interrupted sweep resumes where it stopped. A finished row waits "
                    "until the rows before it are written; rows still held at an interrupt "
                    "are lost and their cells run again on resume. A cell that fails gets an "
                    "error row; after writing both files the sweep then exits 1, naming the "
                    "count of failed cells and the first one. " + EMBEDDINGS_CACHE)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--base-seed", type=_seed, default=None,
                   help="integer >= 0; repeat r trains with seed BASE_SEED + r")
    p.add_argument("--budgets", default=None,
                   help="comma-separated token budgets; 'unlimited' allowed")
    p.add_argument("--methods", default=None, help="comma-separated method names")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="regenerate the bundled synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WsnerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
