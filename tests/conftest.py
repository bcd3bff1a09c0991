"""Shared fixtures: hand-built toy models and a trained bilingual setup."""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass

import pytest
from hypothesis import settings

from lde import (
    Engine,
    EngineConfig,
    LanguagePack,
    SelectorParams,
    TaggedSentence,
    Threshold,
    TrigramModel,
    build_alphabet,
    build_training_set,
    reduce_parameters,
    train_selector,
    train_trigram,
)
from lde.ngram import Alphabet, trigram_maxima
from lde.synth import (
    LATIN,
    SyntheticLanguage,
    corpus_lines,
    disjoint_pair,
    make_language,
)
from lde.trie import Trie, trie_from_pairs, word_frequencies

# CI runs every property test on a fixed sequence of examples, so a failure
# there reproduces locally with HYPOTHESIS_PROFILE=ci
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def one_edit(word: str, letters: str):
    """Every non-empty string one deletion, substitution or insertion from
    `word` over `letters`."""
    for i in range(len(word) + 1):
        for ch in letters:
            yield word[:i] + ch + word[i:]
        if i < len(word):
            if len(word) > 1:
                yield word[:i] + word[i + 1 :]
            for ch in letters:
                yield word[:i] + ch + word[i + 1 :]


def index_of(alphabet: Alphabet, ch: str) -> int:
    """The table index of `ch` in `alphabet`: its symbol's, else `oov`."""
    return alphabet.symbols.index(ch) if ch in alphabet.symbols else alphabet.oov


def model_from_probs(
    alphabet: Alphabet,
    default_p: float,
    overrides: dict[tuple[str, str, str], float] | None = None,
    language: str = "xx",
) -> TrigramModel:
    """Hand-built model: every conditional is default_p except overrides.

    Deliberately skips training so tests can pin exact table values.
    """
    v = alphabet.size
    table = [math.log(default_p)] * (v * v * v)
    for (c2, c1, c0), p in (overrides or {}).items():
        i = (index_of(alphabet, c2) * v + index_of(alphabet, c1)) * v + index_of(alphabet, c0)
        table[i] = math.log(p)
    return TrigramModel(language=language, alphabet=alphabet, table=table, alpha=0.5)


def entry(model: TrigramModel, prev2: int, prev1: int, current: int) -> float:
    """The table entry of symbol index `current` after (`prev2`, `prev1`)."""
    v = model.alphabet.size
    return model.table[(prev2 * v + prev1) * v + current]


def walk_log_prob(model: TrigramModel, words, r: float = 1.0) -> float:
    """Recency-weighted sum of `words`' log-probabilities, read entry by
    entry: word k of n weighs r^(n-1-k), and its first letter follows a
    space.  Independent of the library's scoring loop, with its float
    operations in its order, so that the scores it gives are pinned bit
    for bit."""
    n = len(words)
    total = 0.0
    for k, word in enumerate(words):
        prev2 = prev1 = 0
        word_total = 0.0
        for ch in word:
            cur = index_of(model.alphabet, ch)
            word_total += entry(model, prev2, prev1, cur)
            prev2, prev1 = prev1, cur
        total += r ** (n - 1 - k) * word_total
    return total


def make_pack(
    model: TrigramModel, tau: Threshold, lexicon: Trie | None = None, proper_nouns=()
) -> LanguagePack:
    """An in-memory pack of the float model itself, unquantized, so that a
    test can pin a walk of its table exactly; `read_pack` gives packs
    with the table quantized."""
    lexicon = Trie() if lexicon is None else lexicon
    maxima = trigram_maxima(model.table, model.alphabet.size)
    return LanguagePack(model, tau.tau, lexicon, frozenset(proper_nouns), maxima)


def full_walk_scores(engine: Engine, tokens) -> dict[str, float]:
    """What `score_context` gives `tokens` in a fresh state, which holds
    no scored context to extend: a walk of the whole context."""
    return engine.score_context(tokens, engine.new_state())


def simple_pack(model: TrigramModel, tau: float, lexicon_words=(), pronouns=()) -> LanguagePack:
    lexicon = trie_from_pairs((word, 1) for word in lexicon_words)
    return make_pack(
        model, Threshold(language=model.language, tau=tau), lexicon, pronouns
    )


# words in a test sentence (both bounds included), and the chance that a
# code-switched sentence switches language between adjacent words
SENTENCE_LEN = (4, 10)
SWITCH_PROB = 0.3


def intra_sentences(
    a: SyntheticLanguage, b: SyntheticLanguage, n_sentences: int, seed: int = 0
) -> list[TaggedSentence]:
    """Code-switched sentences with word-level gold labels.

    The language switches between adjacent words with `SWITCH_PROB`; every
    word's gold label is the language of the run it was sampled from.
    """
    rng = random.Random(seed)
    sentences = []
    for i in range(n_sentences):
        current = rng.choice((a, b))
        tokens = []
        for _ in range(rng.randint(*SENTENCE_LEN)):
            if tokens and rng.random() < SWITCH_PROB:
                current = b if current is a else a
            tokens.append((current.sample_words(rng, 1)[0], current.code))
        sentences.append(TaggedSentence(id=f"intra-{i:05d}", tokens=tokens))
    return sentences


def inter_sentences(
    a: SyntheticLanguage, b: SyntheticLanguage, n_sentences: int, seed: int = 0
) -> list[TaggedSentence]:
    """Monolingual sentences, language switching only between sentences."""
    rng = random.Random(seed)
    sentences = []
    for i in range(n_sentences):
        lang = rng.choice((a, b))
        tokens = [
            (word, lang.code)
            for word in lang.sample_words(rng, rng.randint(*SENTENCE_LEN))
        ]
        sentences.append(TaggedSentence(id=f"inter-{i:05d}", tokens=tokens))
    return sentences


def write_tagged_tsv(sentences, path) -> None:
    """Write a test set in the layout `lde.evaluation.read_tagged_tsv` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in sentences:
            for word, gold in sentence.tokens:
                fh.write(f"{sentence.id}\t{word}\t{gold}\n")
            fh.write("\n")


@pytest.fixture()
def toy_alphabet() -> Alphabet:
    return Alphabet((" ", "a", "b"))


@dataclass
class BilingualSetup:
    """Everything trained end-to-end for the two synthetic languages."""

    lang_a: SyntheticLanguage
    lang_b: SyntheticLanguage
    corpora: dict[str, list[str]]
    models: dict[str, TrigramModel]
    word_lists: dict[str, list[str]]
    lexicons: dict[str, Trie]
    params: dict[str, SelectorParams]
    thresholds: dict[str, Threshold]
    packs: list[LanguagePack]
    engine: Engine
    train_seconds: float
    r: float = 0.35

    def held_out_sentences(self, n: int = 500, seed: int = 1133):
        return intra_sentences(self.lang_a, self.lang_b, n, seed=seed)


def build_bilingual(seed: int = 11, n_lines: int = 6000, r: float = 0.35) -> BilingualSetup:
    t0 = time.perf_counter()
    lang_a, lang_b = disjoint_pair("aa", "bb", vocab_size=4000, loan_fraction=0.10, seed=seed)
    corpora = {
        lang_a.code: corpus_lines(lang_a, n_lines, seed=seed * 100 + 21),
        lang_b.code: corpus_lines(lang_b, n_lines, seed=seed * 100 + 22),
    }
    models: dict[str, TrigramModel] = {}
    word_lists: dict[str, list[str]] = {}
    lexicons: dict[str, Trie] = {}
    for code, lines in corpora.items():
        alphabet = build_alphabet(lines, max_symbols=26)
        models[code] = train_trigram(lines, alphabet, 0.5, language=code)
        frequencies = word_frequencies(lines)
        word_lists[code] = [word for word, _ in frequencies]
        lexicons[code] = trie_from_pairs(frequencies[:20000])

    params: dict[str, SelectorParams] = {}
    thresholds: dict[str, Threshold] = {}
    for code in corpora:
        rows = build_training_set(word_lists, models, code, 2500, 2500)
        params[code] = train_selector(rows, language=code)
        thresholds[code] = reduce_parameters(params[code])

    packs = [make_pack(models[c], thresholds[c], lexicons[c]) for c in corpora]
    engine = Engine(packs, EngineConfig(languages=tuple(corpora), r=r))
    return BilingualSetup(
        lang_a=lang_a,
        lang_b=lang_b,
        corpora=corpora,
        models=models,
        word_lists=word_lists,
        lexicons=lexicons,
        params=params,
        thresholds=thresholds,
        packs=packs,
        engine=engine,
        train_seconds=time.perf_counter() - t0,
        r=r,
    )


@pytest.fixture(scope="session")
def bilingual() -> BilingualSetup:
    return build_bilingual()


@pytest.fixture(scope="module")
def ten_pack_engine():
    """Ten trained 13-letter packs (tau -15) and 4000 two-word contexts."""
    rng = random.Random(808)
    packs = []
    contexts = []
    for i in range(10):
        letters = "".join(rng.sample(LATIN, 13))
        lang = make_language(f"l{i}", letters, vocab_size=1200, seed=900 + i)
        lines = corpus_lines(lang, 800, seed=950 + i)
        alphabet = Alphabet((" ", *dict.fromkeys("".join(sorted(letters)))))
        model = train_trigram(lines, alphabet, 0.5, language=lang.code)
        lexicon = trie_from_pairs(
            (word, 1200 - rank) for rank, word in enumerate(lang.vocabulary[:5000])
        )
        packs.append(make_pack(model, Threshold(lang.code, -15.0), lexicon))
        contexts.extend(
            f"{rng.choice(lang.vocabulary)} {rng.choice(lang.vocabulary)}"
            for _ in range(400)
        )
    rng.shuffle(contexts)
    engine = Engine(packs, EngineConfig(languages=tuple(p.language for p in packs)))
    return engine, contexts
