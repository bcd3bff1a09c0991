"""Command-line toolchain: train, pack, detect, evaluate, benchmark.

Exit codes: 0 success, 1 usage error, 2 data error, 3 gate failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from .engine import Engine, EngineConfig
from .evaluation import eval_inter, eval_intra, read_tagged_tsv
from .ngram import (
    DEFAULT_ALPHA,
    DEFAULT_RECENCY,
    Alphabet,
    TrigramModel,
    build_alphabet,
    perplexity,
    train_trigram,
)
from .pack import LanguagePack, PackError, read_pack, write_pack
from .selector import (
    SelectorParams,
    build_training_set,
    reduce_parameters,
    train_selector,
)
from .trie import Trie, lexicon_from_lines, load_lexicon, load_word_list, save_lexicon

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GATE = 3


class GateFailure(Exception):
    """An explicit quality gate (e.g. --min-f1) was not met."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this toolchain reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def _save_model_json(model: TrigramModel, path: str) -> None:
    doc = {
        "language": model.language,
        "alphabet": "".join(model.alphabet.symbols),
        "alpha": model.alpha,
        "table": model.table,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _load_model_json(path) -> TrigramModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return TrigramModel(
            language=doc["language"],
            alphabet=Alphabet(tuple(doc["alphabet"])),
            table=[float(x) for x in doc["table"]],
            alpha=float(doc["alpha"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a model file ({exc})") from exc


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False))


# --------------------------------------------------------------------- #
#  subcommands
# --------------------------------------------------------------------- #

def cmd_train_ngram(args) -> int:
    lines = _read_lines(args.corpus)
    heldout = [line for i, line in enumerate(lines) if i % 20 == 19]
    training = [line for i, line in enumerate(lines) if i % 20 != 19]
    if not training:
        raise ValueError("empty corpus")

    alphabet = build_alphabet(training, max_symbols=args.alphabet_size)
    model = train_trigram(training, alphabet, args.alpha, language=args.lang)
    _save_model_json(model, args.out)

    lexicon_path = Path(args.out).parent / f"{args.lang}.lex"
    lexicon = lexicon_from_lines(training, args.lexicon_size)
    save_lexicon(lexicon, lexicon_path)

    ppl_lines = heldout if heldout else training
    _print_json(
        {
            "language": args.lang,
            "corpus_lines": len(training),
            "heldout_lines": len(heldout),
            "alphabet": "".join(alphabet.symbols[1:]),
            "alphabet_size": len(alphabet),
            "heldout_perplexity": perplexity(model, ppl_lines),
            "lexicon_words": len(lexicon),
            "lexicon": str(lexicon_path),
            "model": args.out,
        }
    )
    return EXIT_OK


def _discover_models(models_dir: str) -> dict[str, TrigramModel]:
    """Every parseable model JSON in the directory, keyed by language.

    Other JSON files (selector reports etc.) are ignored.
    """
    models = {}
    for path in sorted(Path(models_dir).glob("*.json")):
        try:
            model = _load_model_json(path)
        except ValueError:
            continue
        models[model.language] = model
    if not models:
        raise ValueError(f"no model files in {models_dir}")
    return models


def cmd_train_selector(args) -> int:
    models = _discover_models(args.models)
    if args.lang not in models:
        raise ValueError(f"no model for language {args.lang!r} in {args.models}")
    lexicons = {}
    for lang in models:
        lex_path = Path(args.lexicons) / f"{lang}.lex"
        if not lex_path.exists():
            raise ValueError(f"missing lexicon {lex_path}")
        lexicons[lang] = [word for word, _ in load_lexicon(lex_path).ranked()]

    rows = build_training_set(
        lexicons, models, args.lang, args.positives, args.negatives
    )
    params = train_selector(rows, language=args.lang)
    threshold = reduce_parameters(params)
    report = {
        "language": args.lang,
        "w": params.weight,
        "b": params.bias,
        "tau": threshold.tau,
        "epochs": params.epochs,
        "final_loss": params.final_loss,
        "positives": args.positives,
        "negatives": args.negatives,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    _print_json(report)
    return EXIT_OK


def _load_selector_json(path) -> SelectorParams:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return SelectorParams(
            language=doc["language"], weight=float(doc["w"]), bias=float(doc["b"])
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a selector file ({exc})") from exc


def cmd_pack(args) -> int:
    model = _load_model_json(args.model)
    params = _load_selector_json(args.selector)
    if params.language != model.language:
        raise ValueError(
            f"selector is for {params.language!r}, model for {model.language!r}"
        )
    threshold = reduce_parameters(params)
    lexicon = load_lexicon(args.lexicon)
    pronouns = load_word_list(args.pronouns) if args.pronouns else Trie()
    sizes = write_pack(model, threshold, lexicon, args.out, proper_nouns=pronouns)
    _print_json(
        {
            "out": args.out,
            "language": model.language,
            "uncompressed_bytes": sizes.raw,
            "compressed_bytes": sizes.compressed,
            "table_uncompressed_bytes": sizes.table_raw,
            "table_compressed_bytes": sizes.table_compressed,
        }
    )
    return EXIT_OK


def _load_packs(packs_dir: str, langs: list[str] | None) -> dict[Path, LanguagePack]:
    """Read each pack once: the `langs` packs in that order, else every
    pack in the directory.  Keyed by path, in engine registration order."""
    pack_dir = Path(packs_dir)
    if langs is None:
        paths = sorted(pack_dir.glob("*.ldep"))
        if not paths:
            raise ValueError(f"no .ldep packs in {packs_dir}")
    else:
        paths = [pack_dir / f"{lang}.ldep" for lang in langs]
        for path in paths:
            if not path.exists():
                raise ValueError(f"missing pack {path}")
    return {path: read_pack(path) for path in paths}


def _load_engine(packs_dir: str, langs: list[str] | None, r: float) -> Engine:
    packs = list(_load_packs(packs_dir, langs).values())
    config = EngineConfig(languages=langs or [pack.language for pack in packs], r=r)
    return Engine(packs, config)


def _format_detection(raw: str, detection) -> str:
    score = detection.scores.get(detection.language)
    score_text = f"{score:.4f}" if score is not None else ""
    return f"{raw}\t{detection.language}\t{score_text}\t{detection.path.value}"


def cmd_detect(args) -> int:
    langs = [code.strip() for code in args.langs.split(",") if code.strip()]
    if not langs:
        raise ValueError("empty --langs list")
    engine = _load_engine(args.packs, langs, args.r)
    state = engine.new_state()

    if args.interactive:
        print(f"loaded: {', '.join(engine.languages)}  (:reset clears, :quit exits)")
        while True:
            try:
                raw = input("> ")
            except EOFError:
                break
            if raw == ":quit":
                break
            if raw == ":reset":
                state = engine.new_state()
                print("session reset")
                continue
            detection = engine.detect(raw, state)
            ranked = sorted(
                detection.scores.items(), key=lambda item: -item[1]
            )
            scores_text = "  ".join(f"{lang}={score:.3f}" for lang, score in ranked)
            corrected = (
                f"  corrected={detection.corrected[0]!r}" if detection.corrected else ""
            )
            print(
                f"{detection.language}  [{detection.path.value}]{corrected}  {scores_text}"
            )
        return EXIT_OK

    stream = open(args.input, encoding="utf-8") if args.input else sys.stdin
    try:
        for raw in stream:
            raw = raw.rstrip("\n")
            detection = engine.detect(raw, state)
            print(_format_detection(raw, detection))
    finally:
        if args.input:
            stream.close()
    return EXIT_OK


def cmd_eval(args) -> int:
    engine = _load_engine(args.packs, None, DEFAULT_RECENCY)
    sentences = read_tagged_tsv(args.testset)
    if args.mode == "intra":
        report = eval_intra(sentences, engine)
    else:
        report = eval_inter(sentences, engine)
    doc = report.to_json()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, ensure_ascii=False)
    _print_json(
        {
            "mode": args.mode,
            "sentences": len(sentences),
            "total_contexts": report.total,
            "macro_f1": report.macro_f1,
            "accuracy": report.accuracy,
            "code_switch_rate": report.code_switch_rate,
            "report": args.report,
        }
    )
    if args.min_f1 is not None and report.macro_f1 < args.min_f1:
        raise GateFailure(
            f"macro-F1 {report.macro_f1:.4f} below gate {args.min_f1:.4f}"
        )
    return EXIT_OK


def cmd_bench(args) -> int:
    loaded = _load_packs(args.packs, None)
    engine = Engine(
        list(loaded.values()),
        EngineConfig(languages=[pack.language for pack in loaded.values()]),
    )
    contexts = [line for line in _read_lines(args.contexts) if line.strip()]
    if not contexts:
        raise ValueError("no benchmark contexts")

    # fresh state per call keeps every detection cold-cache
    for raw in contexts[:100]:
        engine.detect(raw, engine.new_state())

    samples_ns = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(args.iters):
            raw = contexts[i % len(contexts)]
            state = engine.new_state()
            t0 = time.perf_counter_ns()
            engine.detect(raw, state)
            samples_ns.append(time.perf_counter_ns() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()

    samples_us = sorted(ns / 1000.0 for ns in samples_ns)
    pack_sizes = {pack.language: path.stat().st_size for path, pack in loaded.items()}
    _print_json(
        {
            "iters": args.iters,
            "languages": len(engine.languages),
            "mean_us": statistics.fmean(samples_us),
            "p50_us": samples_us[len(samples_us) // 2],
            "p99_us": samples_us[min(len(samples_us) - 1, int(len(samples_us) * 0.99))],
            "pack_bytes": pack_sizes,
        }
    )
    return EXIT_OK


# --------------------------------------------------------------------- #
#  parser
# --------------------------------------------------------------------- #

def build_parser() -> _Parser:
    parser = _Parser(prog="lde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-ngram", help="train a trigram model from a corpus")
    p.add_argument("--corpus", required=True, help="UTF-8 corpus, one sentence per line")
    p.add_argument("--lang", required=True, help="language code")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="smoothing")
    p.add_argument("--alphabet-size", type=int, default=26, help="max letters kept")
    p.add_argument("--lexicon-size", type=int, default=50000, help="top-K lexicon words")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.set_defaults(func=cmd_train_ngram)

    p = sub.add_parser("train-selector", help="train selector weights and threshold")
    p.add_argument("--models", required=True, help="directory of model JSON files")
    p.add_argument("--lexicons", required=True, help="directory of <lang>.lex files")
    p.add_argument("--lang", required=True, help="target language code")
    p.add_argument("--positives", type=int, default=100000)
    p.add_argument("--negatives", type=int, default=100000)
    p.add_argument("--out", required=True, help="selector JSON output path")
    p.set_defaults(func=cmd_train_selector)

    p = sub.add_parser("pack", help="assemble one compressed language pack")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--selector", required=True, help="selector JSON")
    p.add_argument("--lexicon", required=True, help="word<TAB>count lexicon")
    p.add_argument("--pronouns", default=None, help="proper nouns, one per line")
    p.add_argument("--out", required=True, help="output .ldep path")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("detect", help="detect languages of input lines")
    p.add_argument("--packs", required=True, help="directory of .ldep packs")
    p.add_argument("--langs", required=True, help="comma-separated codes, primary first")
    p.add_argument("--interactive", action="store_true")
    p.add_argument("--input", default=None, help="input file (default stdin)")
    p.add_argument("--r", type=float, default=DEFAULT_RECENCY, help="recency factor")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="evaluate on a tagged test set")
    p.add_argument("--packs", required=True)
    p.add_argument("--testset", required=True, help="tagged TSV test set")
    p.add_argument("--mode", required=True, choices=("intra", "inter"))
    p.add_argument("--report", required=True, help="JSON report output path")
    p.add_argument("--min-f1", type=float, default=None, help="fail if macro-F1 below")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="measure per-detect latency")
    p.add_argument("--packs", required=True)
    p.add_argument("--contexts", required=True, help="one context per line")
    p.add_argument("--iters", type=int, default=10000)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GateFailure as exc:
        print(f"lde: gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (ValueError, OSError, PackError, json.JSONDecodeError) as exc:
        print(f"lde: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
