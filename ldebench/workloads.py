"""Seeded inputs for the benchmark workloads.

Every workload is a pure function of its seed: the same seed gives
byte-identical `.ldep` packs and the same keystroke stream.  Packs go
through the real training path (`train_trigram`, thresholds, `write_pack`)
so the timed code later loads them with `read_pack` exactly as a device
would.  Generation is never timed.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from lde import (
    Alphabet,
    Threshold,
    build_alphabet,
    build_training_set,
    reduce_parameters,
    train_selector,
    train_trigram,
    write_pack,
)
from lde.synth import LATIN, corpus_lines, disjoint_pair, make_language
from lde.trie import Trie, trie_from_pairs, word_frequencies

from . import WORKLOADS

# keystroke-2: a bilingual keyboard session replay
KEYSTROKE_VOCAB = 50_000  # lexicon words per pack, the `train-ngram` default
KEYSTROKE_CORPUS_LINES = 6000
KEYSTROKE_SELECTOR_ROWS = 2500  # positives and negatives per selector
# One pack pair for every seed; the seed draws the typing sessions.  With
# the pair drawn per seed, p99 and detect_per_s differed by up to 0.25
# between two seeds, while reruns of each seed agreed within 0.02.
KEYSTROKE_PACK_SEED = 808
# p99 sits among the ~3% of keystrokes that run an edit-1 search, whose
# share moves with the drawn words.  Over five seeds of 600 sessions p99
# spread by 0.13 of its median; 3600 sessions bring that to 0.05.
KEYSTROKE_SESSIONS = 3600  # ~128k keystrokes: ~3 passes in a 20 s run
PROPER_NOUNS = 300
SENTENCE_WORDS = (4, 10)  # words per session, uniform
# No typing study is behind these rates; the project has no recorded
# keyboard traffic.  They are set so that the replay reproduces the path
# mix of an earlier prototype replay of this code over 66k keystrokes:
# 93% normal, 4.1% fallback, 2.1% cache hit, 0.6% proper noun and 0.15%
# typo rescue, with the rescue-attempting calls (fallback and typo rescue)
# 4.3% of calls and 64% of detect time.  README.md compares the mix this
# generator gives.  What each rate drives:
SWITCH_PROB = 0.3  # language switch per word boundary: how mixed each context is
TYPO_PROB = 0.04  # one-edit typo per word of 3+ letters: typo_rescue and fallback
RETYPE_PROB = 0.05  # wrong letter backspaced and retyped, per word: cache_hit
NOUN_PROB = 0.03  # capitalised proper noun before a word: proper_noun
PUNCT_PROB = 0.03  # punctuation after a word, stripped to a known context: cache_hit
EMOJI_PROB = 0.02  # emoji after a word, likewise: cache_hit
DECK = 1000  # words per shuffled deck of typing events; see _deck
PUNCTUATION = (",", ".", "!", "?")
EMOJI = ("\U0001F600", "\U0001F44D", "\U0001F389", "❤️")

# cold-10 / typo-10: the ten-pack recipe of acceptance check C8
TEN_PACKS = 10
TEN_LETTERS = 13
TEN_VOCAB = 1200
TEN_CORPUS_LINES = 800
TEN_TAU = -15.0
# One pack set for every seed, as in acceptance check C8; the seed draws the
# contexts.  Typo-rescue cost depends on the ten random languages: with packs
# drawn per seed, typo-10's p99 spread by 0.36 of its median over nine seeds,
# against 0.15 over eight runs of one seed.
TEN_PACK_SEED = 808
COLD_CONTEXTS = 5000  # ~35 us each: ~60 passes in a 20 s run
TYPO_CONTEXTS = 2000  # ~2.6 ms each: p99 has 20 calls beyond it; ~3 passes in 20 s
TYPO_MIN_LEN = 7  # shorter typos often still clear a threshold


@dataclass
class Workload:
    """Generated inputs: packs on disk plus the sessions to replay.

    A session is a list of keystrokes and gets a fresh `EngineState`.
    Each keystroke is (text before the cursor, gold language or None);
    gold is set only on keystrokes that are scored for accuracy.
    """

    name: str
    languages: tuple[str, ...]
    pack_paths: list[Path]
    sessions: list[list[tuple[str, str | None]]]


def generate(name: str, seed: int, out_dir: Path) -> Workload:
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "keystroke-2":
        return keystroke_2(seed, out_dir)
    if name in ("cold-10", "typo-10"):
        return ten_pack(name, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _corpus(lang, rng: random.Random, n_lines: int) -> list[str]:
    # one weighted draw for the whole corpus; per-line draws over a 50k
    # vocabulary would recompute the cumulative weights every line
    lengths = [rng.randint(3, 9) for _ in range(n_lines)]
    words = lang.sample_words(rng, sum(lengths))
    lines, start = [], 0
    for n in lengths:
        lines.append(" ".join(words[start : start + n]))
        start += n
    return lines


def _one_edit(rng: random.Random, word: str, letters: str, delete: bool) -> str:
    """A random Levenshtein-1 variant: substitution, insertion or deletion."""
    i = rng.randrange(len(word))
    kind = rng.randrange(3 if delete else 2)
    if kind == 0:
        ch = rng.choice([c for c in letters if c != word[i]])
        return word[:i] + ch + word[i + 1 :]
    if kind == 1:
        return word[:i] + rng.choice(letters) + word[i:]
    return word[:i] + word[i + 1 :]


def _typo(
    rng: random.Random, word: str, letters: str, known: set[str], delete: bool = True
) -> str | None:
    for _ in range(20):
        typo = _one_edit(rng, word, letters, delete)
        if typo and typo not in known:
            return typo
    return None


def keystroke_2(seed: int, out_dir: Path) -> Workload:
    """Two 50k-word packs, the same for every seed, and typing sessions
    drawn from the seed."""
    a, b = disjoint_pair("aa", "bb", vocab_size=KEYSTROKE_VOCAB, seed=KEYSTROKE_PACK_SEED)
    langs = (a, b)
    rng = random.Random(KEYSTROKE_PACK_SEED * 1009 + 1)
    corpora = {lang.code: _corpus(lang, rng, KEYSTROKE_CORPUS_LINES) for lang in langs}
    models, word_lists = {}, {}
    for code, lines in corpora.items():
        alphabet = build_alphabet(lines, max_symbols=26)
        models[code] = train_trigram(lines, alphabet, 0.5, language=code)
        word_lists[code] = [word for word, _ in word_frequencies(lines)]

    known = set(a.vocabulary) | set(b.vocabulary)
    nouns: list[str] = []
    while len(nouns) < PROPER_NOUNS:
        name = "".join(rng.choice(LATIN) for _ in range(rng.randint(5, 8)))
        if name not in known and name not in nouns:
            nouns.append(name)
    noun_trie = trie_from_pairs((name, 1) for name in nouns)

    paths = []
    for lang in langs:
        rows = build_training_set(
            word_lists, models, lang.code, KEYSTROKE_SELECTOR_ROWS, KEYSTROKE_SELECTOR_ROWS
        )
        threshold = reduce_parameters(train_selector(rows, language=lang.code))
        lexicon = trie_from_pairs(
            (word, max(1, int(100_000 / (rank + 1) ** 1.05)))
            for rank, word in enumerate(lang.vocabulary[:KEYSTROKE_VOCAB])
        )
        path = out_dir / f"{lang.code}.ldep"
        pronouns = noun_trie if lang is a else Trie()
        write_pack(models[lang.code], threshold, lexicon, path, proper_nouns=pronouns)
        paths.append(path)

    rng = random.Random(seed * 1009 + 1)
    sessions = keystroke_sessions(rng, langs, nouns, known, KEYSTROKE_SESSIONS)
    return Workload("keystroke-2", (a.code, b.code), paths, sessions)


def keystroke_sessions(rng, langs, nouns, known, count: int) -> list[list[tuple[str, str | None]]]:
    """`count` typing sessions, one code-switched sentence each."""
    a, b = langs
    pools = {lang.code: iter(lang.sample_words(rng, count * 10)) for lang in langs}
    letters = {lang.code: lang.letters for lang in langs}
    events = {
        "noun": _deck(rng, {"noun": NOUN_PROB}),
        "typo": _deck(rng, {"typo": TYPO_PROB}),
        "retype": _deck(rng, {"retype": RETYPE_PROB}),
        "after": _deck(rng, {"punct": PUNCT_PROB, "emoji": EMOJI_PROB}),
    }
    sessions = []
    for _ in range(count):
        current = rng.choice(langs)
        sentence = []
        for _ in range(rng.randint(*SENTENCE_WORDS)):
            if sentence and rng.random() < SWITCH_PROB:
                current = b if current is a else a
            sentence.append((next(pools[current.code]), current.code))
        sessions.append(_type_session(rng, events, sentence, nouns, letters, known))
    return sessions


def _deck(rng: random.Random, rates: dict[str, float]) -> Iterator[str | None]:
    """Endless per-word draws of an event name, or None for no event.

    Every DECK draws hold exactly round(rate * DECK) of each event, so a
    seed changes which words carry an event but hardly how many.  The
    share of slow typo-rescue calls, and with it `detect_per_s`, then
    varies little from seed to seed.
    """
    while True:
        cards = [name for name, rate in rates.items() for _ in range(round(rate * DECK))]
        cards += [None] * (DECK - len(cards))
        rng.shuffle(cards)
        yield from cards


def _type_session(rng, events, sentence, nouns, letters, known) -> list[tuple[str, str | None]]:
    """Every keystroke of one sentence, each sent as the whole text so far.

    Mixed in: capitalised proper nouns, one-edit typos left uncorrected,
    a wrong letter that is backspaced and retyped, and punctuation or
    emoji after a word.  Only the keystroke that completes a lexicon or
    typo word carries a gold label.
    """
    keys: list[tuple[str, str | None]] = []
    text = ""

    def type_word(word: str, gold: str | None, alphabet: str) -> None:
        nonlocal text
        base = text + " " if text else ""
        retype_at = rng.randrange(len(word)) if next(events["retype"]) else -1
        for i in range(1, len(word) + 1):
            if i - 1 == retype_at:
                wrong = rng.choice([c for c in alphabet if c != word[i - 1]])
                keys.append((base + word[: i - 1] + wrong, None))
                if base or i > 1:
                    keys.append((base + word[: i - 1], None))  # backspace
            keys.append((base + word[:i], gold if i == len(word) else None))
        text = base + word
        after = next(events["after"])
        if after == "punct":
            text += rng.choice(PUNCTUATION)
            keys.append((text, None))
        elif after == "emoji":
            text += " " + rng.choice(EMOJI)
            keys.append((text, None))

    for word, gold in sentence:
        if next(events["noun"]):
            noun = rng.choice(nouns)
            type_word(noun.capitalize(), None, LATIN)
        if next(events["typo"]) and len(word) >= 3:
            word = _typo(rng, word, letters[gold], known) or word
        type_word(word, gold, letters[gold])
    return keys


def ten_pack(name: str, seed: int, out_dir: Path) -> Workload:
    """Ten small packs over overlapping 13-letter alphabets, tau = -15.

    The packs are the same for every seed; the seed draws the contexts.
    `cold-10` contexts are two whole lexicon words of one language.
    `typo-10` contexts end in a one-edit typo, outside every lexicon, of a
    word from a non-primary pack; the inserted or substituted letter comes
    from outside that pack's alphabet, which sinks every language below
    its threshold and, on words of 7+ letters, sends most calls into
    typo rescue.
    """
    pack_rng = random.Random(TEN_PACK_SEED)
    langs, paths = [], []
    for i in range(TEN_PACKS):
        letters = "".join(pack_rng.sample(LATIN, TEN_LETTERS))
        lang = make_language(f"l{i}", letters, vocab_size=TEN_VOCAB, seed=TEN_PACK_SEED + i)
        lines = corpus_lines(lang, TEN_CORPUS_LINES, seed=TEN_PACK_SEED + 50 + i)
        alphabet = Alphabet((" ", *sorted(letters)))
        model = train_trigram(lines, alphabet, 0.5, language=lang.code)
        lexicon = trie_from_pairs(
            (word, TEN_VOCAB - rank) for rank, word in enumerate(lang.vocabulary)
        )
        path = out_dir / f"{lang.code}.ldep"
        write_pack(model, Threshold(lang.code, TEN_TAU), lexicon, path)
        langs.append(lang)
        paths.append(path)

    rng = random.Random(seed * 1009 + 2)
    known = set().union(*(lang.vocabulary for lang in langs))
    long_words = {
        lang.code: [word for word in lang.vocabulary if len(word) >= TYPO_MIN_LEN]
        for lang in langs
    }
    sessions = []
    while len(sessions) < (COLD_CONTEXTS if name == "cold-10" else TYPO_CONTEXTS):
        if name == "cold-10":
            lang = rng.choice(langs)
            text = f"{rng.choice(lang.vocabulary)} {rng.choice(lang.vocabulary)}"
        else:
            lang = rng.choice(langs[1:])
            foreign = "".join(c for c in LATIN if c not in lang.letters)
            typo = _typo(rng, rng.choice(long_words[lang.code]), foreign, known, delete=False)
            if typo is None:
                continue
            text = f"{rng.choice(lang.vocabulary)} {typo}"
        sessions.append([(text, lang.code)])
    return Workload(name, tuple(lang.code for lang in langs), paths, sessions)
