"""End-to-end detection pipeline.

Input text goes through one `str.translate` with a table that maps each
character straight to its stripped, lowercased and filtered form (emoji,
symbols, controls, marks, digits and punctuation out) and one `split`
into words; only a text holding `Σ`, whose lowercase depends on its
neighbours, takes the two-pass strip-then-`normalize_text` path.
Trailing proper nouns, which say nothing about the language, are popped
off that word list, and the trailing context window is sliced off what
is left (extending past short tokens).  Every loaded language scores the
context with its recency-weighted trigram model minus its threshold: one
flat loop (`ngram.sequence_log_probs`) walks every token through every
pack's table, with no call per pack or per word, using recency weights
and weight masses computed once per engine for each context length.  On
top of that sit a session LRU cache keyed by the context that is scored,
and typo rescue for out-of-lexicon tokens one edit away from a word in a
non-current language.  A rescue searches a whole lexicon only for a
language that the correction can lift to its threshold, by an exact
upper bound on what one edit can gain a word (`ngram.edit1_gain_bound`);
the languages it rules out are searched only to find a candidate that
blocks a passing rescue.  It scores the corrected context with the
rescued language's table alone, since only that score decides it; every
pack scores the context only for a rescue that passes.  `detect`
is one pass: it splits the text into words once, selects the context
once, makes one cache lookup and at most one cache write, and sets the
session language once.
"""

from __future__ import annotations

import unicodedata
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import ClassVar, Mapping, NamedTuple, Sequence

from .ngram import (
    DEFAULT_RECENCY,
    ScoringView,
    WHITESPACE,
    _NORMALIZE_TABLE,
    _CharTable,
    edit1_gain_bound,
    normalize_text,
    scoring_view,
    sequence_log_probs,
)
from .pack import LanguagePack
from .selector import LOG_HALF, select_language


def _strip_class(ch: str):
    if ch.isspace():
        return WHITESPACE
    if unicodedata.category(ch)[0] in ("S", "C", "M"):
        return None
    return ch


_STRIP_TABLE = _CharTable(_strip_class)


def _front_class(ch: str):
    kept = _strip_class(ch)
    return None if kept is None else kept.lower().translate(_NORMALIZE_TABLE)


# `_strip_class` then `normalize_text`, one character at a time
_FRONT_TABLE = _CharTable(_front_class)


def strip_symbols(raw: str) -> list[str]:
    """The words of `raw`: emoji, pictographs and control characters
    dropped, then normalized, then split on whitespace.

    One pass through `_FRONT_TABLE` gives what stripping and then
    `normalize_text` give, except for `Σ`: lowercasing a whole string
    turns a word-final `Σ` into `ς`, which no per-character table can do,
    so a text holding one takes the two passes.
    """
    if "Σ" in raw:
        return normalize_text(raw.translate(_STRIP_TABLE)).split()
    return raw.translate(_FRONT_TABLE).split()


@dataclass
class EngineConfig:
    """Tunables for one engine instance.

    `languages` is ordered; the first entry is the primary (layout)
    language and doubles as the initial session language.  The context
    is the last `context_window` words, extended past words of at most
    `short_token_len` letters up to `max_context_extension` words; these
    three are constants, not fields.
    """

    languages: Sequence[str]
    r: float = DEFAULT_RECENCY
    context_window: ClassVar[int] = 2
    short_token_len: ClassVar[int] = 2
    max_context_extension: ClassVar[int] = 4

    def __post_init__(self):
        self.languages = tuple(self.languages)
        if not self.languages:
            raise ValueError("need at least one language")
        if len(set(self.languages)) != len(self.languages):
            raise ValueError("duplicate language codes")
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"recency factor must be in (0, 1], got {self.r}")


def context_tokens(words: list[str]) -> list[str]:
    """Select the detection context from the words `strip_symbols` gives.

    Takes the last `EngineConfig.context_window` words, then keeps
    prepending earlier words while any selected word is short (at most
    `short_token_len` letters), up to `max_context_extension` words total.
    """
    start = len(words) - EngineConfig.context_window
    first = len(words) - EngineConfig.max_context_extension
    short = EngineConfig.short_token_len
    while start > 0 and start > first and min(map(len, words[start:])) <= short:
        start -= 1
    return words[max(start, 0):]


def _recency(r: float, n: int) -> tuple[list[float], float]:
    """The weight r^(n-1-k) of word k of n, and the weights' sum."""
    return [r ** (n - 1 - k) for k in range(n)], sum(r ** k for k in range(n))


# what rounding can move a score by: scores, gains and their sums are each
# a few dozen float operations on log-probabilities of at most a few
# hundred, so their errors stay near 1e-12, far inside this margin
_ROUNDING = 1e-9


class DetectionPath(Enum):
    CACHE_HIT = "cache_hit"
    PROPER_NOUN = "proper_noun"
    TYPO_RESCUE = "typo_rescue"
    NORMAL = "normal"
    FALLBACK = "fallback"


class Detection(NamedTuple):
    """Observable outcome of one detect call.

    `scores` is read-only: the same mapping is handed out again on every
    cache hit of its context.
    """

    language: str
    scores: Mapping[str, float]
    path: DetectionPath
    corrected: tuple[str, str] | None = None  # (word, language) on typo rescue


_NO_SCORES: Mapping[str, float] = MappingProxyType({})

# contexts a session's cache keeps
_CACHE_CAPACITY = 64


class LruCache:
    """Bounded map with least-recently-used eviction; get promotes."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        if len(self._items) > self.capacity:
            self._items.popitem(last=False)

    def keys(self):
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class EngineState:
    """Per-typing-session state; not safe for concurrent mutation."""

    cache: LruCache  # context -> (language it depends on or None, CACHE_HIT Detection)
    current_language: str
    # full scorings, each reading every pack's table: one per detect that
    # misses the cache, plus one per passing typo rescue (the one-table
    # check that decides a rescue does not count)
    contexts_scored: int = 0


class Engine:
    """Immutable bundle of language packs plus the detection logic.

    Packs are shared and read-only; per-session mutable state lives in an
    `EngineState` created via `new_state()`, so distinct sessions can run
    concurrently over the same engine.
    """

    def __init__(self, packs: Sequence[LanguagePack], config: EngineConfig):
        by_lang = {pack.language: pack for pack in packs}
        if len(by_lang) != len(packs):
            raise ValueError("duplicate pack languages")
        missing = [lang for lang in config.languages if lang not in by_lang]
        if missing:
            raise ValueError(f"no pack loaded for: {', '.join(missing)}")
        self.config = config
        # registration order = config order; it breaks selection ties
        self.packs: dict[str, LanguagePack] = {
            lang: by_lang[lang] for lang in config.languages
        }
        self.proper_nouns = frozenset(
            word for pack in self.packs.values() for word, _ in pack.proper_nouns.items()
        )
        # what score_context reads per pack, in registration order
        self._views = tuple(scoring_view(pack.model) for pack in self.packs.values())
        self._taus = tuple((lang, pack.tau) for lang, pack in self.packs.items())
        self._maxima = tuple(pack.maxima for pack in self.packs.values())
        self._lexicons = tuple(pack.lexicon for pack in self.packs.values())
        # recency weights and weight mass of every context length detect selects
        self._recency = {
            n: _recency(config.r, n) for n in range(1, config.max_context_extension + 1)
        }

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(self.packs)

    def new_state(self) -> EngineState:
        return EngineState(
            cache=LruCache(_CACHE_CAPACITY),
            current_language=self.config.languages[0],
        )

    def score_context(self, tokens: Sequence[str]) -> dict[str, float]:
        """Adjusted (threshold-subtracted) score per language.

        The recency-weighted sum is divided by its weight mass
        (1 + r + ... + r^(n-1)) before the threshold is subtracted.
        Thresholds are calibrated on single words; the normalization keeps
        a multi-word context on that same scale, so one-word contexts are
        scored exactly as trained and longer contexts interpolate their
        words instead of stacking them.
        """
        return self._adjusted(self._views, self._taus, tokens)

    def _adjusted(
        self, views: Sequence[ScoringView], taus: Sequence[tuple[str, float]], tokens: Sequence[str]
    ) -> dict[str, float]:
        """`score_context` over the packs of `views` and `taus` only: each
        entry is the very float the call over every pack gives it."""
        recency = self._recency.get(len(tokens))
        weights, mass = recency or _recency(self.config.r, len(tokens))
        log_probs = sequence_log_probs(views, tokens, weights)
        return {lang: lp / mass - tau for (lang, tau), lp in zip(taus, log_probs)}

    def detect(self, raw: str, state: EngineState) -> Detection:
        words = strip_symbols(raw)
        current = state.current_language
        if not words:
            return Detection(current, _NO_SCORES, DetectionPath.FALLBACK)

        noun = words[-1] in self.proper_nouns
        if noun:
            # a name says nothing about the language: drop every trailing
            # one and decide on the context the words before it give
            while words and words[-1] in self.proper_nouns:
                words.pop()
            if not words:
                return Detection(current, _NO_SCORES, DetectionPath.PROPER_NOUN)
        tokens = context_tokens(words)

        key = " ".join(tokens)
        cached = state.cache.get(key)
        if cached is not None and cached[0] in (None, current):
            hit = cached[1]
            state.current_language = hit.language
            return hit

        scores = self.score_context(tokens)
        state.contexts_scored += 1
        language, passed = select_language(scores, current)
        scores = MappingProxyType(scores)
        if passed:
            detection = Detection(language, scores, DetectionPath.NORMAL)
        else:
            detection = self._typo_rescue(tokens, scores, state) or Detection(
                language, scores, DetectionPath.FALLBACK
            )

        # a normal answer depends on the context alone, and a fallback copies
        # the current language, so it is reused only in that language; a
        # rescue is not kept, since a cache hit carries no correction
        path = detection.path
        if path is not DetectionPath.TYPO_RESCUE:
            hit = Detection(detection.language, detection.scores, DetectionPath.CACHE_HIT)
            state.cache.put(key, (None if path is DetectionPath.NORMAL else current, hit))
        state.current_language = detection.language
        if noun:
            return Detection(detection.language, detection.scores, DetectionPath.PROPER_NOUN)
        return detection

    def _typo_rescue(
        self, tokens: Sequence[str], scores: Mapping[str, float], state: EngineState
    ) -> Detection | None:
        """Try to read the trailing token as a typo of a foreign word.

        Only fires when the token is in no language's lexicon and exactly
        one non-current language offers an edit-distance-1 candidate whose
        corrected context clears that language's threshold.  A lexicon
        whose words lack two of the token's letters offers none and is not
        searched; those lacking one, whose search only edits that letter,
        are searched first.  The search stops at the second language that
        offers a candidate.

        A search that no letter limits covers the whole lexicon, so while
        no candidate is in hand it is made only for a language the
        correction can lift to the threshold.  The last word weighs 1, so
        a correction `w` of it scores `scores[lang] + (lp(w) - lp(last)) /
        mass`, and `edit1_gain_bound` bounds that gain from above.  A
        language whose bound stays below `LOG_HALF` by more than
        `_ROUNDING` cannot pass; its candidate could only block another
        language's rescue, so it is searched only once another
        language's candidate has passed.  With no such candidate the
        rescue fails unsearched.

        The rescued language's table alone scores the corrected context
        for the threshold test, giving the very float `score_context`
        gives it; every pack scores it only once the rescue passes, for the
        scores the detection carries.  The answer is the one that searching
        every language and scoring every candidate would give.
        """
        last = tokens[-1]
        lexicons = self._lexicons
        if any(last in lexicon for lexicon in lexicons):
            return None
        current = state.current_language
        limited, unlimited = [], []
        for i, (lang, _) in enumerate(self._taus):
            if lang != current:
                foreign = lexicons[i].foreign_letters(last)
                if foreign < 2:
                    (limited if foreign else unlimited).append(i)
        reach = LOG_HALF - _ROUNDING
        mass = self._recency[len(tokens)][1]
        rescue = None
        deferred = []
        for k, i in enumerate(limited + unlimited):
            if rescue is None and k >= len(limited):
                lang = self._taus[i][0]
                gain = edit1_gain_bound(self._views[i], self._maxima[i], last)
                if scores[lang] + gain / mass < reach:
                    deferred.append(i)
                    continue
            found = lexicons[i].edit1_candidates(last, max_results=1)
            if found:
                if rescue is not None:
                    return None
                rescue = (i, found[0][0])
        if rescue is None:
            return None
        i, word = rescue
        language = self._taus[i][0]
        corrected = [*tokens[:-1], word]
        if self._adjusted((self._views[i],), (self._taus[i],), corrected)[language] < LOG_HALF:
            return None
        if any(lexicons[j].edit1_candidates(last, max_results=1) for j in deferred):
            return None
        rescored = self.score_context(corrected)
        state.contexts_scored += 1
        return Detection(
            language,
            MappingProxyType(rescored),
            DetectionPath.TYPO_RESCUE,
            corrected=(word, language),
        )
