"""Fast, compact language detection for short, code-switched text.

Per-language character-trigram emission models plus a one-number selector
threshold per language; detection of a typed context is a handful of table
lookups and one subtraction per language.
"""

from .engine import (
    Detection,
    DetectionPath,
    Engine,
    EngineConfig,
    EngineState,
    LruCache,
    context_tokens,
    strip_symbols,
)
from .evaluation import (
    EvalReport,
    TaggedSentence,
    code_switch_rate,
    eval_inter,
    eval_intra,
    read_tagged_tsv,
    write_tagged_tsv,
)
from .ngram import (
    Alphabet,
    TrigramModel,
    build_alphabet,
    normalize_text,
    perplexity,
    train_trigram,
)
from .pack import (
    LanguagePack,
    MalformedPackError,
    NotAPackError,
    PackChecksumError,
    PackError,
    PackVersionError,
    TruncatedPackError,
    make_pack,
    read_pack,
    write_pack,
)
from .selector import (
    LOG_HALF,
    SelectorParams,
    Threshold,
    adjusted_log_prob,
    build_training_set,
    reduce_parameters,
    select_language,
    train_selector,
)
from .trie import Trie, lexicon_from_lines, load_lexicon, load_word_list, word_frequencies

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Detection",
    "DetectionPath",
    "Engine",
    "EngineConfig",
    "EngineState",
    "EvalReport",
    "LOG_HALF",
    "LanguagePack",
    "LruCache",
    "MalformedPackError",
    "NotAPackError",
    "PackChecksumError",
    "PackError",
    "PackVersionError",
    "SelectorParams",
    "TaggedSentence",
    "Threshold",
    "TrigramModel",
    "Trie",
    "TruncatedPackError",
    "adjusted_log_prob",
    "build_alphabet",
    "build_training_set",
    "code_switch_rate",
    "context_tokens",
    "eval_inter",
    "eval_intra",
    "lexicon_from_lines",
    "load_lexicon",
    "load_word_list",
    "make_pack",
    "normalize_text",
    "perplexity",
    "read_pack",
    "read_tagged_tsv",
    "reduce_parameters",
    "select_language",
    "strip_symbols",
    "train_selector",
    "train_trigram",
    "word_frequencies",
    "write_pack",
    "write_tagged_tsv",
]
