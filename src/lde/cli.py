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
    DEFAULT_ALPHABET_SIZE,
    DEFAULT_RECENCY,
    Alphabet,
    TrigramModel,
    build_alphabet,
    perplexity,
    ranked,
    train_trigram,
)
from .pack import LanguagePack, PackError, read_pack, write_pack
from .selector import (
    SelectorParams,
    build_training_set,
    reduce_parameters,
    train_selector,
)
from .trie import (
    DEFAULT_LEXICON_SIZE, lexicon_from_lines, load_lexicon, load_word_list, save_lexicon,
)

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


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON file ({exc})") from exc


def _model_from_json(doc, path) -> TrigramModel:
    try:
        return TrigramModel(
            language=doc["language"],
            alphabet=Alphabet(tuple(doc["alphabet"])),
            table=[float(x) for x in doc["table"]],
            alpha=float(doc["alpha"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    """Every model JSON in the directory, keyed by language.

    A JSON document with none of the keys a model holds besides its
    language (a selector report, say) is skipped; a file that is not
    JSON, or a model that does not load, is a data error.
    """
    models = {}
    for path in sorted(Path(models_dir).glob("*.json")):
        doc = _read_json(path)
        if isinstance(doc, dict) and doc.keys() & {"alphabet", "alpha", "table"}:
            model = _model_from_json(doc, path)
            models[model.language] = model
    if not models:
        raise ValueError(f"no model files in {models_dir}")
    return models


def cmd_train_selector(args) -> int:
    models = _discover_models(args.models)
    lexicons = {
        lang: [word for word, _ in ranked(load_lexicon(Path(args.lexicons) / f"{lang}.lex"))]
        for lang in models
    }

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
    doc = _read_json(path)
    try:
        return SelectorParams(
            language=doc["language"], weight=float(doc["w"]), bias=float(doc["b"])
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a selector file ({exc})") from exc


def cmd_pack(args) -> int:
    model = _model_from_json(_read_json(args.model), args.model)
    threshold = reduce_parameters(_load_selector_json(args.selector))
    lexicon = load_lexicon(args.lexicon)
    pronouns = load_word_list(args.pronouns) if args.pronouns else ()
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
    return {path: read_pack(path) for path in paths}


def _load_engine(args) -> tuple[Engine, dict[str, int]]:
    """The engine over `--packs`, restricted to and ordered by `--langs`
    when given, at recency `--r`; with each pack's file size by language."""
    langs = None
    if args.langs is not None:
        langs = [code.strip() for code in args.langs.split(",") if code.strip()]
    loaded = _load_packs(args.packs, langs)
    packs = list(loaded.values())
    config = EngineConfig(languages=langs or [pack.language for pack in packs], r=args.r)
    sizes = {pack.language: path.stat().st_size for path, pack in loaded.items()}
    return Engine(packs, config), sizes


def _format_detection(raw: str, detection) -> str:
    score = detection.scores.get(detection.language)
    score_text = f"{score:.4f}" if score is not None else ""
    return f"{raw}\t{detection.language}\t{score_text}\t{detection.path.value}"


def cmd_detect(args) -> int:
    engine, _ = _load_engine(args)
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
            scores_text = "  ".join(
                f"{lang}={score:.3f}" for lang, score in ranked(detection.scores)
            )
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
    engine, _ = _load_engine(args)
    sentences = read_tagged_tsv(args.testset)
    if args.mode == "intra":
        report = eval_intra(sentences, engine)
    else:
        report = eval_inter(sentences, engine)
    doc = report.to_json()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, ensure_ascii=False)
    keys = ("total_contexts", "macro_f1", "accuracy", "code_switch_rate")
    summary = {key: doc[key] for key in keys}
    _print_json({"mode": args.mode, "sentences": len(sentences), **summary, "report": args.report})
    if args.min_f1 is not None and report.macro_f1 < args.min_f1:
        raise GateFailure(
            f"macro-F1 {report.macro_f1:.4f} below gate {args.min_f1:.4f}"
        )
    return EXIT_OK


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile of an ascending, non-empty list: the
    smallest value that at least q% of the values do not exceed."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def cmd_bench(args) -> int:
    engine, pack_sizes = _load_engine(args)
    contexts = [line for line in _read_lines(args.contexts) if line.strip()]
    if not contexts:
        raise ValueError("no benchmark contexts")

    # fresh state per call keeps every detection cold-cache
    for raw in contexts[:100]:
        engine.detect(raw, engine.new_state())

    samples: list[tuple[float, str]] = []  # (us, path) per call
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(args.iters):
            raw = contexts[i % len(contexts)]
            state = engine.new_state()
            t0 = time.perf_counter_ns()
            detection = engine.detect(raw, state)
            elapsed_ns = time.perf_counter_ns() - t0
            samples.append((elapsed_ns / 1000.0, detection.path.value))
    finally:
        if gc_was_enabled:
            gc.enable()

    samples.sort()
    samples_us = [us for us, _ in samples]
    by_path: dict[str, list[float]] = {}  # each ascending, as `samples` is
    for us, path in samples:
        by_path.setdefault(path, []).append(us)
    paths = {
        path: {"count": len(times), "p50_us": percentile(times, 50), "p99_us": percentile(times, 99)}
        for path, times in sorted(by_path.items())
    }
    _print_json(
        {
            "iters": args.iters,
            "languages": len(engine.languages),
            "mean_us": statistics.fmean(samples_us),
            "p50_us": percentile(samples_us, 50),
            "p99_us": percentile(samples_us, 99),
            "paths": paths,
            "pack_bytes": pack_sizes,
        }
    )
    return EXIT_OK


# --------------------------------------------------------------------- #
#  parser
# --------------------------------------------------------------------- #

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _engine_options(p, langs_required: bool = False) -> None:
    """The `--packs`, `--langs` and `--r` that `_load_engine` reads."""
    default = "required" if langs_required else "default: every pack, by file name"
    p.add_argument("--packs", required=True, help="directory of .ldep packs")
    p.add_argument(
        "--langs", required=langs_required,
        help=f"comma-separated codes, primary first ({default})",
    )
    p.add_argument("--r", type=float, default=DEFAULT_RECENCY, help="recency factor")


def build_parser() -> _Parser:
    parser = _Parser(prog="lde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-ngram", help="train a trigram model from a corpus")
    p.add_argument("--corpus", required=True, help="UTF-8 corpus, one sentence per line")
    p.add_argument("--lang", required=True, help="language code")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="smoothing")
    p.add_argument("--alphabet-size", type=_positive_int, default=DEFAULT_ALPHABET_SIZE,
                   help="max letters kept")
    p.add_argument("--lexicon-size", type=_positive_int, default=DEFAULT_LEXICON_SIZE,
                   help="top-K lexicon words")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.set_defaults(func=cmd_train_ngram)

    p = sub.add_parser("train-selector", help="train selector weights and threshold")
    p.add_argument("--models", required=True, help="directory of model JSON files")
    p.add_argument("--lexicons", required=True, help="directory of <lang>.lex files")
    p.add_argument("--lang", required=True, help="target language code")
    p.add_argument("--positives", type=_positive_int, default=100000)
    p.add_argument("--negatives", type=_positive_int, default=100000)
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
    p.add_argument("--interactive", action="store_true")
    p.add_argument("--input", default=None, help="input file (default stdin)")
    _engine_options(p, langs_required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="evaluate on a tagged test set")
    p.add_argument("--testset", required=True, help="tagged TSV test set")
    p.add_argument("--mode", required=True, choices=("intra", "inter"))
    p.add_argument("--report", required=True, help="JSON report output path")
    p.add_argument("--min-f1", type=float, default=None, help="fail if macro-F1 below")
    _engine_options(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="measure per-detect latency")
    p.add_argument("--contexts", required=True, help="one context per line")
    p.add_argument("--iters", type=_positive_int, default=10000, help="timed detects (>= 1)")
    _engine_options(p)
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
    except (ValueError, OSError, PackError) as exc:
        print(f"lde: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
