"""Vocabulary storage with edit-distance-1 search.

Used for two things at detection time: exact membership checks (is this
token a valid word / a listed proper noun) and fetching auto-correction
candidates one edit away from a typo.  Words live in a dict from word to
weight; candidates are generated from the query, in the manner of
Norvig's spelling corrector, and looked up in that dict.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .ngram import normalize_text


class Trie:
    """Word -> weight lexicon; weights accumulate on repeated insertion.

    Besides the words it keeps the set of letters they use.  No word holds
    a letter outside that set, which bounds the edit-1 search.
    """

    def __init__(self):
        self._weights: dict[str, int] = {}
        self._letters: set[str] = set()

    def insert(self, word: str, weight: int = 1) -> None:
        if not word:
            raise ValueError("empty word")
        self._weights[word] = self._weights.get(word, 0) + weight
        self._letters.update(word)

    def contains(self, word: str) -> bool:
        return word in self._weights

    __contains__ = contains

    def __len__(self) -> int:
        return len(self._weights)

    def items(self) -> Iterator[tuple[str, int]]:
        """All (word, weight) pairs in lexicographic order."""
        return iter(sorted(self._weights.items()))

    def edit1_candidates(self, word: str, max_results: int = 10) -> list[tuple[str, int]]:
        """Words in the lexicon within Levenshtein distance 1 of `word`.

        Distance 0 (the word itself) counts.  Results are ordered by
        descending weight, then lexicographically, and truncated to
        `max_results`.  Only the strings `edit1_probes` generates over the
        lexicon's own letters are looked up.
        """
        if not word:
            raise ValueError("empty word")
        weights = self._weights
        found = [(w, weights[w]) for w in weights.keys() & edit1_probes(word, self._letters)]
        found.sort(key=lambda item: (-item[1], item[0]))
        return found[:max_results]


def edit1_probes(word: str, letters: set[str]) -> list[str]:
    """Every string over `letters` within one edit of `word` (repeats allowed).

    One edit removes at most one character, so a word holding two or more
    characters outside `letters` yields nothing, and a word holding one
    yields only its deletion and its substitutions by each of `letters`.
    Otherwise every deletion, substitution and insertion is generated, the
    word itself included.
    """
    foreign = [i for i, ch in enumerate(word) if ch not in letters]
    if len(foreign) > 1:
        return []
    if foreign:
        head, tail = word[: foreign[0]], word[foreign[0] + 1 :]
        return [head + tail] + [head + ch + tail for ch in letters]
    probes = [word]
    for i in range(len(word) + 1):
        head, tail = word[:i], word[i:]
        probes += [head + ch + tail for ch in letters]
        if tail:
            rest = tail[1:]
            probes.append(head + rest)
            probes += [head + ch + rest for ch in letters]
    return probes


def trie_from_pairs(pairs: Iterable[tuple[str, int]]) -> Trie:
    trie = Trie()
    for word, weight in pairs:
        trie.insert(word, weight)
    return trie


def word_frequencies(lines: Iterable[str]) -> list[tuple[str, int]]:
    """Corpus words with counts, most frequent first (ties by word)."""
    counts: dict[str, int] = {}
    for raw in lines:
        for word in normalize_text(raw).split():
            counts[word] = counts.get(word, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def lexicon_from_lines(lines: Iterable[str], top_k: int = 50000) -> Trie:
    """Frequency-weighted lexicon: the top_k most frequent corpus words."""
    return trie_from_pairs(word_frequencies(lines)[:top_k])


def load_lexicon(path) -> Trie:
    """Read a word<TAB>count lexicon file."""
    trie = Trie()
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                word, count = line.split("\t")
                trie.insert(word, int(count))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad lexicon line {line!r}") from exc
    return trie


def save_lexicon(trie: Trie, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, weight in sorted(trie.items(), key=lambda item: (-item[1], item[0])):
            fh.write(f"{word}\t{weight}\n")


def load_word_list(path) -> Trie:
    """Read a one-word-per-line list (e.g. proper nouns), case-insensitively."""
    trie = Trie()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            for word in normalize_text(raw).split():
                trie.insert(word)
    return trie
