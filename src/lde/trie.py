"""Vocabulary storage with edit-distance-1 search.

Used for two things at detection time: exact membership checks (is this
token a lexicon word) and fetching auto-correction candidates one edit
away from a typo.  Words live in a dict from word to weight; candidates
are generated from the query, in the manner of Norvig's spelling
corrector, and looked up in that dict.

Most probes that cannot be words are skipped.  A lexicon is fixed once
built, and derives when built an exact letter-triple index: for each
(left, right) pair of symbols, the letters found between them in some
word.  A symbol is a letter or the lexicon's boundary, a code point no
word holds that stands before a word's first letter and after its last.
The triple at letter i of a query is bad when that letter is not in the
entry of its two neighbours.  An edit of letter i replaces triples
i - 1..i + 1 and an insertion before letter g triples g - 1..g, and every
triple of a lexicon word is in the index, so an edit that gives a word
replaces every bad triple.  One scan, `Trie.edit_span`, says where it
must fall: nowhere, anywhere, or over a span.  Typo rescue reads it to
choose how to search, and `probes` tries only the edits that cover it,
drawing a substituted or inserted letter from the entry of the two
symbols around it, so the pruning never drops a candidate.
"""

from __future__ import annotations

import sys
import unicodedata
from collections import Counter
from types import MappingProxyType
from typing import Collection, Iterable, ItemsView, Iterator, Mapping

import numpy as np

from .ngram import ranked, strip_symbols

# left symbol -> right symbol -> the letters found between them
TripleIndex = Mapping[str, Mapping[str, str]]
_NO_ROW: Mapping[str, str] = MappingProxyType({})  # a left symbol no word holds
# `Trie.edit_span` of a word with no bad triple: an empty span, which any edit covers
ANYWHERE = (sys.maxsize, -1)
MAX_WEIGHT = 0xFFFFFFFF  # the heaviest weight a word may have: a pack stores a u32
DEFAULT_LEXICON_SIZE = 50000  # words `lexicon_from_lines` keeps


class Trie:
    """Word -> weight lexicon, fixed once built.

    `Trie(weights)` adopts a dict of non-empty words as it is, and derives
    from the words in bulk the letter-triple index and, with it, `letters`,
    the distinct letters its words hold.  No word can be added, so both
    stay exact.
    """

    def __init__(self, weights: dict[str, int] | None = None):
        self._weights: dict[str, int] = {} if weights is None else weights
        # the boundary symbol, and `between[left][right]`: the letters found
        # between the symbols `left` and `right` in some word
        self._boundary, self.letters, self._between = letter_triples(self._weights)
        # lexicon letter -> None, for `str.translate`
        self._known: dict[int, None] = str.maketrans("", "", self.letters)

    def __contains__(self, word: str) -> bool:
        return word in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[str]:
        return iter(self._weights)

    def items(self) -> ItemsView[str, int]:
        """All (word, weight) pairs, in no set order."""
        return self._weights.items()

    def edit_span(self, word: str) -> tuple[int, int] | None:
        """Where one edit of `word` must fall to give a lexicon word.

        None if nowhere: `word` holds two letters no word holds (one
        `str.translate` deletes every lexicon letter), or bad triples more
        than two positions apart.  `ANYWHERE` with no bad triple.  Else the
        first and last triple the edit must replace: the first and last
        bad one, or for a letter i no word holds, without a scan,
        i - 1 and i + 1, which only its own substitution or deletion
        replaces.  The boundary stands in for a missing neighbour.
        """
        if foreign := word.translate(self._known):
            i = word.index(foreign[0])
            return None if len(foreign) > 1 else (i - 1, i + 1)
        between = self._between
        padded = self._boundary + word + self._boundary
        bad = [
            i for i in range(len(word))
            if padded[i + 1] not in between.get(padded[i], _NO_ROW).get(padded[i + 2], "")
        ]
        if not bad:
            return ANYWHERE
        return (bad[0], bad[-1]) if bad[-1] - bad[0] <= 2 else None

    def probes(self, word: str, span: tuple[int, int] | None = None) -> list[str]:
        """The strings one edit from `word` (itself included, repeats
        allowed) that the letter-triple index does not rule out.

        Substituting or deleting letter i replaces triples i - 1..i + 1;
        inserting before letter g (or at the end, g = len(word)) replaces
        triples g - 1..g.  An edit is tried only if the triples it replaces
        cover `span`, `edit_span(word)` (found here if not given).  A
        substitution or insertion puts in each letter the index holds
        between the two symbols around it, and every deletion in reach is
        tried but that of a one-letter word's only letter, so every lexicon
        word one edit from `word` is a probe.
        """
        if span is None and (span := self.edit_span(word)) is None:
            return []
        (first, last), n = span, len(word)
        probes = [word] if span is ANYWHERE else []
        add = probes.append
        between = self._between
        # letter i is padded[i + 1], between padded[i] and padded[i + 2]
        padded = self._boundary + word + self._boundary
        for i in range(max(last - 1, 0), min(first + 1, n - 1) + 1):
            head, tail = word[:i], word[i + 1 :]
            for ch in between.get(padded[i], _NO_ROW).get(padded[i + 2], ""):
                add(head + ch + tail)
            if n > 1:  # deleting the only letter leaves no word
                add(head + tail)
        for g in range(max(last, 0), min(first + 1, n) + 1):
            head, tail = word[:g], word[g:]
            for ch in between.get(padded[g], _NO_ROW).get(padded[g + 1], ""):
                add(head + ch + tail)
        return probes

    def edit1_candidates(
        self, word: str, span: tuple[int, int] | None = None
    ) -> list[tuple[str, int]]:
        """Every lexicon word within Levenshtein distance 1 of `word`, with
        its weight, heaviest first, ties by word (`ngram.ranked`).

        Distance 0 (the word itself) counts.  Only the strings `probes`
        generates from `span`, `edit_span(word)` if the caller has found
        it, are looked up.
        """
        if not word:
            raise ValueError("empty word")
        weights = self._weights
        return ranked({w: weights[w] for w in self.probes(word, span) if w in weights})


def letter_triples(words: Collection[str]) -> tuple[str, str, TripleIndex]:
    """The boundary of `words`, their letters and their exact letter-triple
    index, built in bulk.

    The boundary is U+0000, or if a word holds that, the lowest code point
    no word holds.  The words are joined with the boundary between them
    and at both ends, each code point is mapped to its dense rank, and the
    distinct (left, right, middle) rank triples are found with numpy, so
    the cost is one pass over the text and the tables grow with the number
    of distinct letters, never with their code points.  Equal letter
    strings are one object.
    """
    if not words:
        return "\0", "", {}
    boundary = "\0"
    joined = boundary + boundary.join(words) + boundary
    codes = np.frombuffer(joined.encode("utf-32-le"), "<u4")
    if np.count_nonzero(codes == 0) > len(words) + 1:  # a word holds U+0000
        held = np.unique(codes)
        missing = np.flatnonzero(held != np.arange(len(held)))
        boundary = chr(missing[0] if len(missing) else len(held))
        joined = boundary + boundary.join(words) + boundary
        codes = np.frombuffer(joined.encode("utf-32-le"), "<u4")
    # as machine ints, which `np.bincount` and indexing take without a copy
    codes = codes.astype(np.intp)
    top = int(codes.max())
    if top < 0x10000:
        symbols = np.flatnonzero(np.bincount(codes))
        rank = np.zeros(top + 1, np.intp)
        rank[symbols] = np.arange(len(symbols))
        dense = rank[codes]
    else:
        symbols, dense = np.unique(codes, return_inverse=True)
    k = len(symbols)
    # rank triple (left, right, middle) as one id, in 32 bits if it fits
    dense = dense.astype(np.int32 if k**3 < 2**31 else np.int64)
    ids = (dense[:-2] * k + dense[2:]) * k + dense[1:-1]
    if k**3 <= len(ids):
        ids = np.flatnonzero(np.bincount(ids, minlength=k**3))
    else:
        ids = np.unique(ids)
    # the triples centred on the boundary join two words and are dropped;
    # the ids are sorted, so each (left, right) pair's middles are a run
    b = int(np.searchsorted(symbols, ord(boundary)))
    ids = ids[ids % k != b]
    pairs = ids // k
    cuts = np.flatnonzero(pairs[1:] != pairs[:-1]) + 1
    heads = pairs[np.concatenate(([0], cuts))]
    letters = symbols.astype("<u4")

    def text(ranks) -> str:
        return letters[ranks].tobytes().decode("utf-32-le")

    # the runs of middles, with the boundary between each two
    runs = text(np.insert(ids % k, cuts, b)).split(boundary)
    between: dict[str, dict[str, str]] = {}
    shared: dict[str, str] = {}
    for left, right, run in zip(text(heads // k), text(heads % k), runs):
        between.setdefault(left, {})[right] = shared.setdefault(run, run)
    return boundary, text(np.flatnonzero(symbols != ord(boundary))), between


def _add(weights: dict[str, int], word: str, weight: int) -> None:
    if not word:
        raise ValueError("empty word")
    weights[word] = weights.get(word, 0) + weight


def trie_from_pairs(pairs: Iterable[tuple[str, int]]) -> Trie:
    """A lexicon of `pairs`, the weights of a repeated word summed."""
    weights: dict[str, int] = {}
    for word, weight in pairs:
        _add(weights, word, weight)
    return Trie(weights)


def word_frequencies(lines: Iterable[str]) -> list[tuple[str, int]]:
    """Corpus words, as `strip_symbols` gives them, with counts, most
    frequent first (ties by word)."""
    return ranked(Counter(word for raw in lines for word in strip_symbols(raw)))


def lexicon_from_lines(lines: Iterable[str], top_k: int = DEFAULT_LEXICON_SIZE) -> dict[str, int]:
    """Frequency-weighted lexicon: the top_k most frequent corpus words."""
    return dict(word_frequencies(lines)[:top_k])


def load_lexicon(path) -> dict[str, int]:
    """Read a word<TAB>count lexicon file; a repeated word's counts are summed.

    A word holds lowercase letters and marks only, as a word of
    `strip_symbols` does, and its summed counts are a pack's u32 weight.
    The words come back as a plain dict: a `Trie`, with its letter-triple
    index, is built only when a pack is read."""
    weights: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                word, count = line.split("\t")
                _add(weights, word, int(count))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad lexicon line {line!r}") from exc
            if word != word.lower() or any(unicodedata.category(ch)[0] not in "LM" for ch in word):
                raise ValueError(f"{path}:{line_no}: {word!r} is not lowercase letters and marks")
            if not 0 <= weights[word] <= MAX_WEIGHT:
                raise ValueError(f"{path}:{line_no}: {word!r} sums to {weights[word]}, not a u32")
    return weights


def save_lexicon(weights: Mapping[str, int] | Trie, path) -> None:
    """Write a word<TAB>count lexicon file, heaviest word first."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, weight in ranked(weights):
            fh.write(f"{word}\t{weight}\n")


def load_word_list(path) -> frozenset[str]:
    """Read a one-word-per-line list (e.g. proper nouns), each word as
    `strip_symbols` gives it, so case-insensitively.  A line with no word
    is skipped; one with two or more words is refused."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            found = strip_symbols(raw)
            if len(found) > 1:
                raise ValueError(f"{path}:{line_no}: more than one word in {raw.strip()!r}")
            words.update(found)
    return frozenset(words)
