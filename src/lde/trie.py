"""Vocabulary storage with edit-distance-1 search.

Used for two things at detection time: exact membership checks (is this
token a lexicon word) and fetching auto-correction candidates one edit
away from a typo.  Words live in a dict from word to weight; candidates
are generated from the query, in the manner of Norvig's spelling
corrector, and looked up in that dict.

Only probes that could be words are generated.  A lexicon is fixed once
built, and derives when built an exact letter-pair index: for each
letter, and for the word boundary, which letters follow it and which
precede it in some word.  A query's pairs that no word holds mark where
it must be edited: a substitution or deletion of one letter repairs the
two pairs around it, an insertion the one pair it splits, so bad pairs
more than one position apart leave no candidate; a letter no word holds
spoils the two pairs around it, so two such letters leave none.  The
letter a substitution or insertion puts between `p` and `q` comes from
`follow[p] & lead[q]`, and a deletion is tried only if `q` may follow
`p`.  Every pair of a lexicon word is in the index, so the pruning never
drops a candidate.  The two-foreign-letter rule is checked before any
probe is made, with one `str.translate` that deletes every lexicon
letter from the query.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import count
from typing import Iterable, Iterator, Mapping

import numpy as np

from .ngram import normalize_text

Letters = frozenset[str]
PairIndex = tuple[Mapping[str, Letters], Mapping[str, Letters]]  # (follow, lead)

BOUNDARY = ""  # the letter before a word's first and after its last
_NONE: Letters = frozenset()


class Trie:
    """Word -> weight lexicon, fixed once built.

    `Trie(weights)` adopts a dict of non-empty words as it is, and derives
    from the words in bulk the letter-pair index and the table that
    deletes every lexicon letter.  No word can be added, so both stay
    exact.
    """

    def __init__(self, weights: dict[str, int] | None = None):
        self._weights: dict[str, int] = {} if weights is None else weights
        # (follow, lead): for each letter, and for BOUNDARY, the letters that
        # follow it (BOUNDARY too if it ends a word) and those that precede
        # it in some word
        self._pairs: PairIndex = letter_pairs(self._weights)
        # lexicon letter -> None, for `str.translate`
        self._known: dict[int, None] = str.maketrans("", "", "".join(self._pairs[0]))

    def __contains__(self, word: str) -> bool:
        return word in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[str]:
        return iter(self._weights)

    def items(self) -> Iterator[tuple[str, int]]:
        """All (word, weight) pairs in lexicographic order."""
        return iter(sorted(self._weights.items()))

    def foreign_letters(self, word: str) -> int:
        """How many letters of `word` no lexicon word holds, each repeat
        counted: with two or more, no word is one edit away, and with one,
        an edit-1 search only edits that letter."""
        return len(word.translate(self._known))

    def edit1_candidates(self, word: str, max_results: int = 10) -> list[tuple[str, int]]:
        """Words in the lexicon within Levenshtein distance 1 of `word`.

        Distance 0 (the word itself) counts.  Results are ordered by
        descending weight, then lexicographically, and truncated to
        `max_results`.  A query holding two letters no word holds has no
        candidate and makes no probe; otherwise only the strings
        `pair_probes` generates are looked up.
        """
        if not word:
            raise ValueError("empty word")
        if self.foreign_letters(word) > 1:
            return []
        weights = self._weights
        follow, lead = self._pairs
        hits = weights.keys() & pair_probes(word, follow, lead)
        ranked = sorted((-weights[w], w) for w in hits)[:max_results]
        return [(w, -negative) for negative, w in ranked]


def pair_probes(word: str, follow: Mapping[str, Letters], lead: Mapping[str, Letters]) -> list[str]:
    """The strings one edit from `word` (itself included, repeats allowed)
    that the letter-pair index (`follow`, `lead`) does not rule out.

    Pair k of `word` is (padded[k], padded[k + 1]) over `word` padded with
    `BOUNDARY` at both ends.  Substituting or deleting letter i replaces
    pairs i and i + 1; inserting at gap g replaces pair g.  An edit is
    tried only if the pairs it replaces include every bad pair (one no
    word holds), and it only forms pairs that some word holds, so every
    lexicon word one edit from `word` is among the probes.
    """
    # a letter no word holds has no `follow` entry and spoils the pairs on
    # both sides: only an edit of it can repair them.  One edit cannot
    # repair two such letters, and `Trie.edit1_candidates` rejects those
    # queries first; here the probes of the first one still contain the
    # second, so they match no word either
    foreign = [i for i, ch in enumerate(word) if ch not in follow]
    n = len(word)
    padded = (BOUNDARY, *word, BOUNDARY)
    if foreign:
        first, last = foreign[0], foreign[0] + 1
        probes = []
    else:
        bad = [k for k in range(n + 1) if padded[k + 1] not in follow.get(padded[k], _NONE)]
        first, last = (bad[0], bad[-1]) if bad else (n, 0)
        if last - first > 1:
            return []
        probes = [] if bad else [word]
    # bad pairs first..last: letters last - 1..first and gaps last..first
    # replace them all; with none, every letter and gap may be edited
    for i in range(max(last - 1, 0), min(first, n - 1) + 1):
        head, tail = word[:i], word[i + 1 :]
        before, after = padded[i], padded[i + 2]
        allowed = follow.get(before, _NONE)
        if after in allowed:
            probes.append(head + tail)
        probes += [head + ch + tail for ch in allowed & lead.get(after, _NONE)]
    for g in range(last, min(first, n) + 1):
        head, tail = word[:g], word[g:]
        allowed = follow.get(padded[g], _NONE) & lead.get(padded[g + 1], _NONE)
        probes += [head + ch + tail for ch in allowed]
    return probes


def letter_pairs(words: Iterable[str]) -> PairIndex:
    """The exact (follow, lead) index of `words`, built in bulk.

    The words are joined with a separator no word holds, each character is
    mapped to a dense rank (the separator to 0) and the distinct adjacent
    rank pairs are found with numpy, so the cost is one pass over the text
    and the tables grow with the number of distinct letters, never with
    their code points.  Identical letter sets are shared.
    """
    words = list(words)
    if not words:
        return {}, {}
    letters = set("".join(words))
    sep = next(ch for ch in map(chr, count()) if ch not in letters)
    chars = [sep, *letters]
    ranks = {ord(ch): rank for rank, ch in enumerate(chars)}
    text = (sep + sep.join(words) + sep).translate(ranks)
    dense = np.frombuffer(text.encode("utf-32-le"), dtype="<u4").astype(np.int64)
    k = len(chars)
    ids = dense[:-1] * k + dense[1:]
    if k * k <= len(ids):
        ids = np.flatnonzero(np.bincount(ids, minlength=k * k))
    else:
        ids = np.unique(ids)
    chars[0] = BOUNDARY
    follow: dict[str, set[str]] = defaultdict(set)
    lead: dict[str, set[str]] = defaultdict(set)
    for pair in ids.tolist():
        p, q = chars[pair // k], chars[pair % k]
        follow[p].add(q)
        if p != BOUNDARY:
            lead[q].add(p)
    shared: dict[Letters, Letters] = {}

    def freeze(found: set[str]) -> Letters:
        frozen = frozenset(found)
        return shared.setdefault(frozen, frozen)

    return (
        {ch: freeze(found) for ch, found in follow.items()},
        {ch: freeze(found) for ch, found in lead.items()},
    )


def ranked(weights: Mapping[str, int] | Trie) -> list[tuple[str, int]]:
    """All (word, weight) pairs of `weights` heaviest first, ties by word:
    the order of a lexicon file."""
    return sorted(weights.items(), key=lambda item: (-item[1], item[0]))


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
    """Corpus words with counts, most frequent first (ties by word)."""
    return ranked(Counter(word for raw in lines for word in normalize_text(raw).split()))


def lexicon_from_lines(lines: Iterable[str], top_k: int = 50000) -> dict[str, int]:
    """Frequency-weighted lexicon: the top_k most frequent corpus words."""
    return dict(word_frequencies(lines)[:top_k])


def load_lexicon(path) -> dict[str, int]:
    """Read a word<TAB>count lexicon file; a repeated word's counts are summed.

    The words come back as a plain dict: a `Trie`, with its letter-pair
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
    return weights


def save_lexicon(weights: Mapping[str, int] | Trie, path) -> None:
    """Write a word<TAB>count lexicon file, heaviest word first."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, weight in ranked(weights):
            fh.write(f"{word}\t{weight}\n")


def load_word_list(path) -> frozenset[str]:
    """Read a one-word-per-line list (e.g. proper nouns), case-insensitively."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(word for raw in fh for word in normalize_text(raw).split())
