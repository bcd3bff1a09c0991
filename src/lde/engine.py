"""End-to-end detection pipeline.

Input text becomes words through `ngram.strip_symbols`, the front end
that also turns corpora, lexicons and noun lists into words, so a typed
word is looked up in the form its lexicon and noun list store.  Trailing
proper nouns, which say nothing about the language, are popped off that
word list, and the trailing context window is sliced off what is left
(extending past short tokens).  Every loaded language scores the
context with its recency-weighted trigram model minus its threshold: one
flat loop (`ngram.context_log_probs`) walks every token through every
pack's table, with no call per pack or per word, using recency weights
and weight masses computed once per engine for each context length, the
exact letter index per pack that the engine builds once over the union
of its packs' alphabets, and one shift list per alphabet size, which
moves a table index on by a letter in one list read
(`ngram.scoring_views`).  It gives each pack two parts, the weighted
total of every word but the last (the head) and the last word's
log-probability (the last), and a session's state keeps the parts of
the context it last scored.  While a
word is typed, each keystroke gives that context with one more letter on
its last word, so each pack keeps its head and adds one trigram term to
its last (`ngram.extended_log_probs`) instead of walking the context
again.  On top of that sit a session LRU cache keyed by the context that
is scored, and typo rescue for out-of-lexicon tokens one edit away from
a word in a non-current language.  After the token's membership test,
one pass over its letters skips every lexicon lacking two of them, where
no edit gives a word, and each other lexicon's `Trie.edit_span` says
once where an edit of the token must fall: nowhere (skipped), in a span
(searched at once) or anywhere, a whole-lexicon search made only for a
language that the correction can lift to its threshold, by an exact
upper bound on what one edit can gain a word (`ngram.edit1_gain_bound`);
the languages it rules out are searched only to find a candidate that
blocks a passing rescue.  It scores the
corrected context with the heads just kept and a walk of the corrected
word alone: first in the rescued language's table, since only that
score decides it, and in every pack's only for a rescue that passes.
Every score is the very float a walk of the whole context gives.  `detect`
is one pass: it splits the text into words once, selects the context
once, makes one cache lookup and at most one cache write, and sets the
session language once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import ClassVar, Mapping, NamedTuple, Sequence

from .ngram import (
    DEFAULT_RECENCY,
    context_log_probs,
    edit1_gain_bound,
    extended_log_probs,
    recency_weights,
    scoring_views,
    strip_symbols,
)
from .pack import LanguagePack
from .selector import LOG_HALF, select_language
from .trie import ANYWHERE


CONTEXT_WINDOW = 2
SHORT_TOKEN_LEN = 2
MAX_CONTEXT_EXTENSION = 4


@dataclass
class EngineConfig:
    """Tunables for one engine instance.

    `languages` is an ordered sequence of codes, never one `str`; the
    first entry is the primary (layout)
    language and doubles as the initial session language.  The context
    is the last `context_window` words, extended past words of at most
    `short_token_len` letters up to `max_context_extension` words; these
    three are the module's constants, not fields.
    """

    languages: Sequence[str]
    r: float = DEFAULT_RECENCY
    context_window: ClassVar[int] = CONTEXT_WINDOW
    short_token_len: ClassVar[int] = SHORT_TOKEN_LEN
    max_context_extension: ClassVar[int] = MAX_CONTEXT_EXTENSION

    def __post_init__(self):
        if isinstance(self.languages, str):  # which `tuple` would split into letters
            raise ValueError(f"languages {self.languages!r} is one string, not a sequence")
        self.languages = tuple(self.languages)
        if not self.languages:
            raise ValueError("need at least one language")
        if len(set(self.languages)) != len(self.languages):
            raise ValueError("duplicate language codes")
        recency_weights(self.r, 1)  # checks r


def context_tokens(words: list[str]) -> list[str]:
    """Select the detection context from the words `strip_symbols` gives.

    Takes the last `CONTEXT_WINDOW` words, or the last `MAX_CONTEXT_EXTENSION`
    when one of those is short (at most `SHORT_TOKEN_LEN` letters): what
    prepending earlier words while any selected word is short gives.
    """
    tail = words[-CONTEXT_WINDOW:]
    if len(words) > CONTEXT_WINDOW:
        for word in tail:
            if len(word) <= SHORT_TOKEN_LEN:
                return words[-MAX_CONTEXT_EXTENSION:]
    return tail


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
        if key in self._items:  # a new key is appended last already
            self._items.move_to_end(key)
        self._items[key] = value
        if len(self._items) > self.capacity:
            self._items.popitem(last=False)

    def keys(self):
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class EngineState:
    """Per-typing-session state; not safe for concurrent mutation.

    A state belongs to the engine whose `new_state()` made it: its cache
    holds that engine's answers.  The scoring parts it keeps are tagged
    with their engine, so another engine never reuses them.
    """

    # context -> [language it depends on or None, the normal or fallback Detection
    # computed (its first hit's CACHE_HIT copy after that), score_context's record]
    cache: LruCache
    current_language: str
    # full scorings, each reading every pack's table: one per detect that
    # misses the cache, plus one per passing typo rescue (the one-table
    # check that decides a rescue does not count)
    contexts_scored: int = 0
    # the context score_context last scored in this state, or the one a
    # cache hit last answered, and what scoring it found: (the engine's
    # views, every token but the last, the last token, every pack's head,
    # every pack's last)
    scored: tuple | None = None


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
        self.proper_nouns = frozenset().union(*(p.proper_nouns for p in self.packs.values()))
        # what score_context reads per pack, in registration order
        self._views = scoring_views([pack.model for pack in self.packs.values()])
        self._taus = tuple((lang, pack.tau) for lang, pack in self.packs.items())
        self._maxima = tuple(pack.maxima for pack in self.packs.values())
        self._lexicons = tuple(pack.lexicon for pack in self.packs.values())
        # typo rescue's screen: letter -> the bits (1 << index) of the lexicons
        # lacking it, and the table deleting the letters every lexicon holds
        held = [set(lexicon.letters) for lexicon in self._lexicons]
        every = set.intersection(*held)
        self._lacking = {ch: sum(1 << i for i, has in enumerate(held) if ch not in has)
                         for ch in set().union(*held) - every}
        self._held_by_all = str.maketrans("", "", "".join(every))
        # recency weights and weight mass of every context length detect selects
        self._weights = {
            n: recency_weights(config.r, n) for n in range(1, config.max_context_extension + 1)
        }

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(self.packs)

    def new_state(self) -> EngineState:
        return EngineState(
            cache=LruCache(_CACHE_CAPACITY),
            current_language=self.config.languages[0],
        )

    def score_context(self, tokens: Sequence[str], state: EngineState) -> dict[str, float]:
        """Adjusted (threshold-subtracted) score per language.

        The recency-weighted sum is divided by its weight mass
        (1 + r + ... + r^(n-1)) before the threshold is subtracted.
        Thresholds are calibrated on single words; the normalization keeps
        a multi-word context on that same scale, so one-word contexts are
        scored exactly as trained and longer contexts interpolate their
        words instead of stacking them.

        Each pack's sum is its head, the weighted sum over every word but
        the last, plus its last, the last word's log-probability (which
        weighs 1).  The call records the tokens with every pack's head and
        last in `state`, and when the tokens are those recorded there by
        this engine with one letter added to the last word, as while a word
        is typed, each pack keeps its head and adds one term to its last;
        otherwise, as in a fresh `new_state()`, it walks the whole context.
        The scores are the very floats a walk of the whole context gives.
        """
        if not tokens:
            raise ValueError("empty context")
        n = len(tokens)
        weights, mass = self._weights.get(n) or recency_weights(self.config.r, n)
        head, last = tokens[:-1], tokens[-1]
        views = self._views
        scored = state.scored
        if (
            scored is not None
            and scored[0] is views
            and scored[2] == last[:-1]
            and scored[1] == head
        ):
            heads = scored[3]
            lasts = extended_log_probs(views, scored[4], last)
        else:
            heads, lasts = context_log_probs(views, tokens, weights)
        state.scored = (views, head, last, heads, lasts)
        return self._scores(heads, lasts, mass)

    def _scores(self, heads: list[float], lasts: list[float], mass: float) -> dict[str, float]:
        """The adjusted scores of a context of weight mass `mass` from
        every pack's head and last."""
        return {
            lang: (head + last) / mass - tau
            for (lang, tau), head, last in zip(self._taus, heads, lasts)
        }

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
            if hit.path is not DetectionPath.CACHE_HIT:  # the entry's first hit
                hit = cached[1] = Detection(hit.language, hit.scores, DetectionPath.CACHE_HIT)
            state.current_language = hit.language
            # the next keystroke extends this context, not the one last scored
            state.scored = cached[2]
            return hit

        scores = self.score_context(tokens, state)
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
            depends = None if path is DetectionPath.NORMAL else current
            state.cache.put(key, [depends, detection, state.scored])
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
        corrected context clears that language's threshold.  The
        non-current languages are taken in registration order under one
        rule, read from each lexicon's `Trie.edit_span` of the token.  A
        lexicon where no edit can give a word is skipped: before its
        `edit_span`, if one pass over the token's letters after the
        membership test finds two that it lacks.  One where the edit must
        fall in a span is searched at once, since the search edits only
        there.  Where it may fall anywhere, the search covers
        the whole lexicon, so it is deferred for a language the correction
        cannot lift to the threshold.  The last word weighs 1, so a
        correction `w` of it scores `scores[lang] + (lp(w) - lp(last)) /
        mass`, and `edit1_gain_bound` bounds that gain from above; a
        language whose bound stays below `LOG_HALF` by more than
        `_ROUNDING` cannot pass.  Each remaining lexicon is searched, and
        the search stops at the second language that offers a candidate.  A
        deferred language's candidate could only block another language's
        rescue, so it is searched only once another language's candidate
        has passed; with no such candidate the rescue fails unsearched.

        The corrected context keeps the heads `score_context` has just
        recorded for `tokens`, so only the corrected word is walked: in the
        rescued language's table alone for the threshold test, and in every
        pack's only once the rescue passes, for the scores the detection
        carries.  Each is the very float `score_context` gives the
        corrected context.  The answer is the one that searching every
        language and scoring every candidate would give.
        """
        last = tokens[-1]
        lexicons = self._lexicons
        for lexicon in lexicons:
            if last in lexicon:
                return None
        once = twice = 0  # bits of the lexicons lacking one, two of the token's letters
        for ch in last.translate(self._held_by_all):
            bits = self._lacking.get(ch, -1)  # -1 has every bit: a letter no lexicon holds
            twice |= once & bits
            once |= bits
        current = state.current_language
        reach = LOG_HALF - _ROUNDING
        mass = self._weights[len(tokens)][1]
        rescue = None
        deferred = []
        for i, (lang, _) in enumerate(self._taus):
            if lang == current or twice >> i & 1:
                continue
            span = lexicons[i].edit_span(last)
            if span is None:
                continue
            if span is ANYWHERE:
                gain = edit1_gain_bound(self._views[i], self._maxima[i], last)
                if scores[lang] + gain / mass < reach:
                    deferred.append(i)
                    continue
            found = lexicons[i].edit1_candidates(last, span=span)
            if found:
                if rescue is not None:
                    return None
                rescue = (i, found[0][0])
        if rescue is None:
            return None
        i, word = rescue
        language, tau = self._taus[i]
        # score_context has just recorded every pack's head for `tokens`
        heads = state.scored[3]
        (lp,) = context_log_probs((self._views[i],), (word,), (1.0,))[1]
        if (heads[i] + lp) / mass - tau < LOG_HALF:
            return None
        if any(lexicons[j].edit1_candidates(last, span=ANYWHERE) for j in deferred):
            return None
        lasts = context_log_probs(self._views, (word,), (1.0,))[1]
        rescored = self._scores(heads, lasts, mass)
        state.contexts_scored += 1
        return Detection(
            language,
            MappingProxyType(rescored),
            DetectionPath.TYPO_RESCUE,
            corrected=(word, language),
        )
