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
    TaggedSentence,
    code_switch_rate,
    eval_inter,
    eval_intra,
    read_tagged_tsv,
)
from .ngram import (
    Alphabet,
    TrigramModel,
    build_alphabet,
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
    read_pack,
    write_pack,
)
from .selector import (
    LOG_HALF,
    SelectorParams,
    Threshold,
    build_training_set,
    reduce_parameters,
    select_language,
    train_selector,
)
from .trie import lexicon_from_lines, load_word_list, word_frequencies

__version__ = "0.1.0"
