"""End-to-end detection pipeline.

Input text is stripped of ideograms and normalized, the trailing context
window is selected (extending past short tokens), and every loaded
language scores the context with its recency-weighted trigram model minus
its threshold: one flat loop (`ngram.sequence_log_probs`) walks every
token through every pack's table, with no call per pack or per word.  On
top of that sit three heuristics: proper-noun exclusion (trailing names
are dropped and the context is selected again from the words before
them), a session LRU cache keyed by the context that is scored, and typo
rescue for out-of-lexicon tokens one edit away from a word in a
non-current language.  `detect` is one pass: it strips the text once,
makes one cache lookup and at most one cache write, and sets the session
language once.
"""

from __future__ import annotations

import unicodedata
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .ngram import (
    DEFAULT_RECENCY,
    WHITESPACE,
    _CharTable,
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


def strip_symbols(raw: str) -> str:
    """Drop emoji, pictographs and control characters, then normalize."""
    return normalize_text(raw.translate(_STRIP_TABLE))


@dataclass
class EngineConfig:
    """Tunables for one engine instance.

    `languages` is ordered; the first entry is the primary (layout)
    language and doubles as the initial session language.
    """

    languages: Sequence[str]
    r: float = DEFAULT_RECENCY
    context_window: int = 2
    short_token_len: int = 2
    max_context_extension: int = 4
    cache_capacity: int = 64

    def __post_init__(self):
        self.languages = tuple(self.languages)
        if not self.languages:
            raise ValueError("need at least one language")
        if len(set(self.languages)) != len(self.languages):
            raise ValueError("duplicate language codes")
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"recency factor must be in (0, 1], got {self.r}")
        if self.context_window < 1:
            raise ValueError("context_window must be >= 1")
        if self.max_context_extension < self.context_window:
            raise ValueError("max_context_extension must be >= context_window")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")


def context_tokens(text: str, config: EngineConfig) -> list[str]:
    """Select the detection context from normalized text.

    Takes the last `context_window` tokens, then keeps prepending earlier
    tokens while any selected token is short (<= short_token_len chars),
    up to `max_context_extension` tokens total.
    """
    tokens = text.split()
    if not tokens:
        return []
    selected = tokens[-config.context_window :]
    remaining = len(tokens) - len(selected)
    short = config.short_token_len
    while (
        remaining > 0
        and len(selected) < config.max_context_extension
        and any(len(tok) <= short for tok in selected)
    ):
        remaining -= 1
        selected.insert(0, tokens[remaining])
    return selected


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

    def __contains__(self, key) -> bool:
        return key in self._items


@dataclass
class EngineState:
    """Per-typing-session state; not safe for concurrent mutation."""

    cache: LruCache  # context -> (language it depends on or None, CACHE_HIT Detection)
    current_language: str
    contexts_scored: int = 0  # score_context calls, each reading every pack's table


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
        if not packs:
            raise ValueError("no packs loaded")
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

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(self.packs)

    def new_state(self) -> EngineState:
        return EngineState(
            cache=LruCache(self.config.cache_capacity),
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
        r = self.config.r
        mass = sum(r ** k for k in range(len(tokens)))
        log_probs = sequence_log_probs(self._views, tokens, r)
        return {lang: lp / mass - tau for (lang, tau), lp in zip(self._taus, log_probs)}

    def detect(self, raw: str, state: EngineState) -> Detection:
        text = strip_symbols(raw)
        current = state.current_language
        if not text:
            return Detection(current, _NO_SCORES, DetectionPath.FALLBACK)

        tokens = context_tokens(text, self.config)
        noun = tokens[-1] in self.proper_nouns
        if noun:
            # a name says nothing about the language: drop every trailing
            # one and decide on the context the words before it give
            words = text.split()
            while words and words[-1] in self.proper_nouns:
                words.pop()
            if not words:
                return Detection(current, _NO_SCORES, DetectionPath.PROPER_NOUN)
            tokens = context_tokens(" ".join(words), self.config)

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
            detection = self._typo_rescue(tokens, state) or Detection(
                language, scores, DetectionPath.FALLBACK
            )

        # a normal answer depends on the context alone; fallback copies the
        # current language and typo rescue skips it, so every other answer
        # is reused only in the language it was computed in
        normal = detection.path is DetectionPath.NORMAL
        hit = Detection(detection.language, detection.scores, DetectionPath.CACHE_HIT)
        state.cache.put(key, (None if normal else current, hit))
        state.current_language = detection.language
        if noun:
            return Detection(detection.language, detection.scores, DetectionPath.PROPER_NOUN)
        return detection

    def _typo_rescue(self, tokens: Sequence[str], state: EngineState) -> Detection | None:
        """Try to read the trailing token as a typo of a foreign word.

        Only fires when the token is in no language's lexicon and exactly
        one non-current language offers an edit-distance-1 candidate whose
        corrected context clears that language's threshold.
        """
        last = tokens[-1]
        if any(last in pack.lexicon for pack in self.packs.values()):
            return None
        candidates: list[tuple[str, str]] = []
        for lang, pack in self.packs.items():
            if lang == state.current_language:
                continue
            found = pack.lexicon.edit1_candidates(last, max_results=1)
            if found:
                candidates.append((lang, found[0][0]))
        if len(candidates) != 1:
            return None
        language, word = candidates[0]
        corrected = list(tokens[:-1]) + [word]
        rescored = self.score_context(corrected)
        state.contexts_scored += 1
        if rescored[language] < LOG_HALF:
            return None
        return Detection(
            language,
            MappingProxyType(rescored),
            DetectionPath.TYPO_RESCUE,
            corrected=(word, language),
        )
