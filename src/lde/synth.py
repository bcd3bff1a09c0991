"""Seeded synthetic languages for the benchmark, tests and demos.

Real code-switched corpora with word-level gold labels are hand-written by
linguists and not shippable, so the repo carries a generator instead: each
synthetic language draws words from its own weighted character profile,
optionally sharing a slice of loan vocabulary with another language, and
emits monolingual training corpora.  The word-tagged code-switched test
sets drawn from these languages are built in `tests/conftest.py`, and the
benchmark's typing sessions in `ldebench/workloads.py`.  Everything is a
pure function of the seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LATIN = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class SyntheticLanguage:
    code: str
    letters: str
    vocabulary: list[str]  # most frequent first
    weights: list[float]

    def sample_words(self, rng: random.Random, count: int) -> list[str]:
        return rng.choices(self.vocabulary, weights=self.weights, k=count)


DEFAULT_SYLLABLE_WEIGHTS = (8, 50, 32, 10)


def _word_sampler(rng: random.Random, letters: str, syllable_weights):
    """Syllable-structured word factory over one letter set.

    Words alternate consonant-ish and vowel-ish letters (both drawn from
    the language's own zipf-weighted subsets), which gives each language
    pronounced trigram structure instead of i.i.d. character noise.
    """
    pool = list(letters)
    rng.shuffle(pool)
    split = max(2, len(pool) // 3)
    vowels = pool[:split]
    consonants = pool[split:]
    vowel_w = [1.0 / (i + 1) ** 1.4 for i in range(len(vowels))]
    cons_w = [1.0 / (i + 1) ** 1.1 for i in range(len(consonants))]

    def sample() -> str:
        syllables = rng.choices((1, 2, 3, 4), weights=syllable_weights)[0]
        parts = []
        for i in range(syllables):
            parts.append(rng.choices(consonants, weights=cons_w)[0])
            parts.append(rng.choices(vowels, weights=vowel_w)[0])
            if rng.random() < 0.25 or (syllables == 1 and i == 0):
                parts.append(rng.choices(consonants, weights=cons_w)[0])
        return "".join(parts)

    return sample


def make_language(
    code: str,
    letters: str,
    vocab_size: int = 4000,
    seed: int = 0,
    syllable_weights=DEFAULT_SYLLABLE_WEIGHTS,
) -> SyntheticLanguage:
    """A language as a zipf-weighted vocabulary over its own letters.

    Frequent words skew short (Zipf's law of abbreviation): vocabulary is
    ordered by length plus noise before the zipf weights are applied.
    """
    rng = random.Random(seed)
    sample = _word_sampler(rng, letters, syllable_weights)
    vocab: list[str] = []
    seen = set()
    while len(vocab) < vocab_size:
        word = sample()
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    vocab.sort(key=lambda w: len(w) + rng.gauss(0.0, 1.5))
    weights = _zipf_weights(vocab_size)
    return SyntheticLanguage(code=code, letters=letters, vocabulary=vocab, weights=weights)


def _zipf_weights(count: int) -> list[float]:
    return [1.0 / (i + 1) ** 1.05 for i in range(count)]


def share_loans(
    a: SyntheticLanguage,
    b: SyntheticLanguage,
    fraction: float = 0.1,
    seed: int = 0,
) -> None:
    """Copy a slice of each vocabulary into the other language, in place.

    Borrowings skew away from core vocabulary on both sides, like real
    loan words: a tenth of the types but only a sliver of the token mass
    in either language.
    """
    rng = random.Random(seed)
    for src, dst in ((a, b), (b, a)):
        k = int(len(src.vocabulary) * fraction)
        tail = src.vocabulary[len(src.vocabulary) // 3 :]
        loans = rng.sample(tail, k)
        insert_at = int(len(dst.vocabulary) * 0.9)
        known = set(dst.vocabulary)
        new = [word for word in dict.fromkeys(loans) if word not in known]
        # each new loan goes in ahead of the one drawn before it
        dst.vocabulary[insert_at:insert_at] = new[::-1]
    for lang in (a, b):
        lang.weights = _zipf_weights(len(lang.vocabulary))


# words in a corpus line (both bounds included)
WORDS_PER_LINE = (3, 9)


def corpus_lines(lang: SyntheticLanguage, n_lines: int, seed: int = 0) -> list[str]:
    """Monolingual training corpus, one sentence per line."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n_lines):
        n = rng.randint(*WORDS_PER_LINE)
        lines.append(" ".join(lang.sample_words(rng, n)))
    return lines


def disjoint_pair(
    code_a: str = "aa",
    code_b: str = "bb",
    vocab_size: int = 4000,
    loan_fraction: float = 0.1,
    seed: int = 0,
) -> tuple[SyntheticLanguage, SyntheticLanguage]:
    """Two languages over disjoint halves of the Latin alphabet, with loans."""
    half = len(LATIN) // 2
    a = make_language(code_a, LATIN[:half], vocab_size, seed=seed * 7 + 1)
    b = make_language(code_b, LATIN[half:], vocab_size, seed=seed * 7 + 2)
    if loan_fraction > 0:
        share_loans(a, b, loan_fraction, seed=seed * 7 + 3)
    return a, b
