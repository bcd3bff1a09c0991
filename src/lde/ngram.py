"""Character trigram emission models, and the one text front end.

Text becomes words in one way, `strip_symbols`, for training corpora,
lexicons, noun lists and typed text alike: symbols, controls and marks
are dropped, the rest lowercased, digits and punctuation dropped, and
what is left split on whitespace.  So every word detection looks up is
in the form training counted and stored.

Each supported language gets its own trigram model trained on a monolingual
corpus, completely independent of the other languages.  A model stores a
dense table of smoothed conditional log-probabilities over its alphabet
(whitespace included as a first-class symbol, plus one reserved slot for
out-of-alphabet characters).

Words are scored with a leading space: the first character is conditioned
on whitespace, every later character on the two preceding ones.  Because
a line's words never hold two adjacent spaces, the (space, space) context
row can never be produced by real trigram counts, so that row is used to
hold the space-conditioned first-character distribution.  This keeps the
whole model in a single dense cube.

Models scored together read their letters through one exact index each
(`scoring_views`), a plain dict over the union of their alphabets, so
the walk reads a letter with one dict subscript.
"""

from __future__ import annotations

import math
import unicodedata
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterable, Mapping, Sequence

import numpy as np

WHITESPACE = " "

DEFAULT_ALPHA = 0.5
DEFAULT_RECENCY = 0.7
DEFAULT_ALPHABET_SIZE = 26  # letters `build_alphabet` keeps


class _CharTable(dict):
    """Lazy str.translate table; classification is cached per codepoint."""

    def __init__(self, classify):
        super().__init__()
        self._classify = classify

    def __missing__(self, codepoint):
        result = self._classify(chr(codepoint))
        self[codepoint] = result
        return result


def _dropping(categories: str) -> _CharTable:
    """A table that maps whitespace to a space and drops each character
    whose general category starts with a letter of `categories`."""

    def classify(ch: str):
        if ch.isspace():
            return WHITESPACE
        return None if unicodedata.category(ch)[0] in categories else ch

    return _CharTable(classify)


# symbols, controls and marks out; then, once lowercased, digits and punctuation
_STRIP_TABLE = _dropping("SCM")
_LETTER_TABLE = _dropping("NP")


def _front_class(ch: str):
    kept = _STRIP_TABLE[ord(ch)]
    return (kept and kept.lower().translate(_LETTER_TABLE)) or None


# the three steps of `strip_symbols`, one character at a time; a deleted
# character maps to None, not "", which keeps `str.translate` on its fast path
_FRONT_TABLE = _CharTable(_front_class)
# the same rule over ASCII, as the bytes it deletes and a map of the rest
_ASCII_DELETE = bytes(c for c in range(128) if _front_class(chr(c)) is None)
_ASCII_MAP = bytes(ord(_front_class(chr(c)) or " ") for c in range(128)) + bytes(range(128, 256))


def strip_symbols(raw: str) -> list[str]:
    """The words of `raw`: symbols (emoji too), controls and marks
    dropped, then lowercased, then digits and punctuation dropped, then
    split on whitespace.

    One pass through `_FRONT_TABLE` gives what the three steps give,
    except for `Σ`: lowercasing a whole string turns a word-final `Σ`
    into `ς`, which no per-character table can do, so a text holding one
    takes the three passes.  ASCII text takes the byte tables made from
    the same rule, about half the time.  Not idempotent: `İ` lowercases
    to `i` and a combining dot, which a second pass drops.
    """
    if raw.isascii():
        return raw.encode().translate(_ASCII_MAP, _ASCII_DELETE).decode().split()
    if "Σ" in raw:
        return raw.translate(_STRIP_TABLE).lower().translate(_LETTER_TABLE).split()
    return raw.translate(_FRONT_TABLE).split()


class Alphabet:
    """Ordered character set with whitespace pinned at index 0.

    Characters outside the set share a single reserved index (`oov`) just
    past the last real symbol, so a model table has `size` = len(symbols)+1
    slots per axis.
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Sequence[str]):
        symbols = tuple(symbols)
        if len(symbols) < 2:
            raise ValueError("alphabet needs whitespace plus at least one letter")
        if symbols[0] != WHITESPACE:
            raise ValueError("alphabet must have whitespace at index 0")
        if WHITESPACE in symbols[1:]:
            raise ValueError("whitespace may appear only once")
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbols in alphabet")
        for sym in symbols:
            if len(sym) != 1:
                raise ValueError(f"alphabet symbols are single characters, got {sym!r}")
        self.symbols = symbols
        self._index = {ch: i for i, ch in enumerate(symbols)}

    @property
    def oov(self) -> int:
        return len(self.symbols)

    @property
    def size(self) -> int:
        """Number of table slots per axis: the symbols plus the oov slot."""
        return len(self.symbols) + 1

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols[1:])!r})"


def ranked(weights: Mapping[str, float]) -> list[tuple[str, float]]:
    """The (key, weight) pairs of `weights`' `items()`, heaviest first, ties by key."""
    return sorted(weights.items(), key=lambda item: (-item[1], item[0]))


def build_alphabet(corpus: Iterable[str], max_symbols: int = DEFAULT_ALPHABET_SIZE) -> Alphabet:
    """Pick the most frequent letters of a corpus's words.

    Keeps whitespace plus up to `max_symbols` letters of the words
    `strip_symbols` gives, most frequent first (ties broken by codepoint).
    Everything else maps to oov.
    """
    counts = Counter(ch for chunk in corpus for word in strip_symbols(chunk) for ch in word)
    if not counts:
        raise ValueError("empty corpus")
    kept = [ch for ch, _ in ranked(counts)[:max_symbols]]
    return Alphabet((WHITESPACE, *kept))


@dataclass
class TrigramModel:
    """Dense smoothed conditional log-probability cube for one language.

    `table` is flat, row-major over (c_{k-2}, c_{k-1}, c_k) with each axis
    of length `alphabet.size`.  Immutable after training.
    """

    language: str
    alphabet: Alphabet
    table: list[float]
    alpha: float

    def __post_init__(self):
        v = self.alphabet.size
        if len(self.table) != v * v * v:
            raise ValueError(
                f"table has {len(self.table)} entries, expected {v ** 3}"
            )

    @cached_property
    def _views(self) -> tuple[ScoringView]:
        """The model's own scoring view, built on first use."""
        return scoring_views((self,))

    def word_log_prob(self, word: str) -> float:
        """Log-probability of one word, first character conditioned on space."""
        if not word:
            raise ValueError("empty token")
        return context_log_probs(self._views, (word,), (1.0,))[1][0]

    def sequence_log_prob(self, words: Sequence[str], r: float = DEFAULT_RECENCY) -> float:
        """Recency-weighted sum of word log-probabilities (`recency_weights`)."""
        weights, _ = recency_weights(r, len(words))
        (head,), (last,) = context_log_probs(self._views, words, weights)
        return head + last


def recency_weights(r: float, n: int) -> tuple[list[float], float]:
    """The weight r^(n-1-k) of word k of n, and the weights' sum (the
    weight mass): the trailing word counts in full and earlier words fade
    geometrically.  `r` must be in (0, 1]."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"recency factor must be in (0, 1], got {r}")
    return [r ** (n - 1 - k) for k in range(n)], sum(r ** k for k in range(n))


# what `context_log_probs` reads of one model: (table, side, letter index,
# stand-in, shift list).  The index maps each letter of the models scored
# together, and the stand-in, a code point in no alphabet, to this model's
# symbol index or oov slot.  The shift list maps a flat index i of a side-v
# table to i % (v * v) * v: the index less its oldest symbol, shifted one
# slot.  Views walked together come from one `scoring_views` call.
ScoringView = tuple[list[float], int, dict[str, int], str, list[int]]


def scoring_views(models: Sequence[TrigramModel]) -> tuple[ScoringView, ...]:
    """One view per model, each with an exact letter index over the union
    of the models' alphabets and its side's shift list.

    The stand-in is the lowest code point in no alphabet, not a fixed
    `"\\0"`, which an alphabet may hold.  Views of one side share one
    shift list, v³ pointers to v² ints: per engine, one list per distinct
    alphabet size.  Taken once per engine.
    """
    letters = sorted({ch for model in models for ch in model.alphabet.symbols})
    stand_in = next(chr(c) for c in count() if chr(c) not in letters)
    sides = {model.alphabet.size for model in models}
    shifts = {v: [k * v for k in range(v * v)] * v for v in sides}
    views = []
    for model in models:
        alphabet = model.alphabet
        index = dict.fromkeys([*letters, stand_in], alphabet.oov)
        index.update((ch, i) for i, ch in enumerate(alphabet.symbols))
        views.append((model.table, alphabet.size, index, stand_in, shifts[alphabet.size]))
    return tuple(views)


def _known(view: ScoringView, word: str) -> str:
    """`word` with every letter the view's index lacks, which is in no
    alphabet and so read as oov by every model, replaced by its stand-in."""
    _, _, index, stand_in, _ = view
    return "".join(ch if ch in index else stand_in for ch in word)


def context_log_probs(
    views: Sequence[ScoringView], words: Sequence[str], weights: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Every model's head and last for `words`, in one flat loop.

    `weights[k]` is word k's recency weight, r^(n-1-k) for n words, which
    the caller takes from `recency_weights` once per context length.  A
    model's head is the weighted sum of the log-probabilities of every word
    but the last, and its last is the last word's log-probability, whose
    weight r^0 is 1, so `head + last` is the recency-weighted sum.  This is
    the one walk of words through a table: `TrigramModel.word_log_prob` and
    `sequence_log_prob` call it for one model, and detection for every pack
    at once, with no call per pack or per word.  The weights are not checked
    against `words` or against r's range.

    A letter's flat table index is the view's shift of the one before it
    (that index less its oldest symbol, times v) plus the letter's: two
    list reads and an add.  A letter in no alphabet raises `KeyError`, and
    the walk starts again with every such letter replaced by the stand-in,
    so the common path checks nothing.
    """
    if not words or "" in words:
        raise ValueError("empty sequence or token")
    heads = []
    lasts = []
    try:
        for table, _, index, _, shift in views:
            head = word_total = 0.0
            k = -1
            for word in words:
                if k >= 0:  # the word before this one is not the last
                    head += weights[k] * word_total
                k += 1
                word_total = 0.0
                idx = 0  # (space, space): a word's first letter follows a space
                for ch in word:
                    idx = shift[idx] + index[ch]
                    word_total += table[idx]
            heads.append(head)
            lasts.append(word_total)
    except KeyError:
        return context_log_probs(views, [_known(views[0], word) for word in words], weights)
    return heads, lasts


def extended_log_probs(
    views: Sequence[ScoringView], lasts: Sequence[float], word: str
) -> list[float]:
    """Every model's log-probability of `word`, given `lasts`, theirs of
    `word[:-1]` (which must not be empty).

    A word's log-probability is summed letter by letter from the left, so
    adding the term of its last letter to that of the word without it
    gives the very float a whole walk of `word` ends with.
    """
    # the last letter and the two before it; a word's first letter follows
    # a space, which every alphabet holds at index 0
    prev2, prev1, ch = (WHITESPACE + word)[-3:]
    try:
        return [
            lp + table[(index[prev2] * v + index[prev1]) * v + index[ch]]
            for (table, v, index, _, _), lp in zip(views, lasts)
        ]
    except KeyError:
        return extended_log_probs(views, lasts, _known(views[0], prev2 + prev1 + ch))


# per-pack v x v tables of a trigram cube's maxima over one slot:
# (over_last[a*v+b] = max_x T[a,b,x], over_middle[a*v+c] = max_x T[a,x,c],
#  over_first[b*v+c] = max_x T[x,b,c])
Maxima = tuple[array, array, array]


def trigram_maxima(table, v: int) -> Maxima:
    """The maxima of a v x v x v table (a float list or an ndarray) over
    its last, middle and first slot, each a flat `array('d')` of v * v."""
    cube = np.asarray(table, dtype=np.float64).reshape(v, v, v)
    maxima = []
    # the slot maximised over is moved to the front first: a maximum over
    # the outermost axis is an elementwise one, some 2.5x faster than one
    # over an inner axis of a small table
    for order in ((2, 0, 1), (1, 0, 2), (0, 1, 2)):
        flat = array("d")
        flat.frombytes(np.ascontiguousarray(cube.transpose(order)).max(axis=0).tobytes())
        maxima.append(flat)
    return tuple(maxima)


def edit1_gain_bound(view: ScoringView, maxima: Maxima, word: str) -> float:
    """An upper bound on `lp(s) - lp(word)` over every non-empty string `s`
    one edit from `word`, where `lp` is the view's `word_log_prob`.

    One edit changes at most three terms of `lp`: those of the letters
    whose window of three holds the edited position.  A deletion's new
    terms are read from the table, so its gain is exact.  A substituted
    or inserted letter `x` is unknown, and each new term holding it is
    bounded by the maxima over `x`'s slot: `over_last` for the term of
    `x` itself, `over_middle` for the letter after it and `over_first`
    for the one after that.  The bound is found in float arithmetic, so
    it can fall below the float gain of a best edit by rounding alone:
    each is a sum of a few terms, and for log-probabilities (of magnitude
    at most a few dozen) the two differ by about 1e-14.  Typo rescue
    rules a language out only when its score plus the bound over the
    weight mass stays below `LOG_HALF` by more than 1e-9, which covers
    that and the rounding of the context scores, about 1e-12 each.
    """
    table, v, index, _, _ = view
    over_last, over_middle, over_first = maxima
    n = len(word)
    try:
        p = [0, 0, *[index[ch] for ch in word]]  # letter k is p[k + 2]
    except KeyError:
        return edit1_gain_bound(view, maxima, _known(view, word))
    ctx = [p[k] * v + p[k + 1] for k in range(n + 1)]  # letter k's context
    term = [table[ctx[k] * v + p[k + 2]] for k in range(n)]
    # tail[k]: what letter k + 1's term can gain when the letter two before
    # it is new, as after an insertion before letter k (0 past the end)
    tail = [over_first[ctx[k + 2]] - term[k + 1] for k in range(n - 1)] + [0.0, 0.0]
    best = over_last[ctx[n]]  # an insertion after the last letter
    for k in range(n):
        head = over_last[ctx[k]]
        # an insertion before letter k
        gain = head + over_middle[ctx[k + 1]] - term[k] + tail[k]
        if gain > best:
            best = gain
        if k + 1 < n:
            skip = p[k + 1] * v + p[k + 3]  # letter k + 1's context without letter k
            gain = head - term[k] + over_middle[skip] - term[k + 1] + tail[k + 1]
            if gain > best:
                best = gain
            gain = table[ctx[k] * v + p[k + 3]] - term[k] - term[k + 1]
            if k + 2 < n:
                gain += table[skip * v + p[k + 4]] - term[k + 2]
        else:
            gain = head - term[k]
            if gain > best:
                best = gain
            if n == 1:  # deleting the only letter leaves no word
                continue
            gain = -term[k]
        if gain > best:
            best = gain
    return best


def _line_indices(words: list[str], alphabet: Alphabet) -> list[int]:
    """Index sequence for one line's words, every word space-prefixed."""
    out: list[int] = []
    get = alphabet._index.get
    oov = alphabet.oov
    for word in words:
        out.append(0)
        out.extend(get(ch, oov) for ch in word)
    return out


def train_trigram(
    corpus_lines: Iterable[str],
    alphabet: Alphabet,
    smoothing_alpha: float = DEFAULT_ALPHA,
    language: str = "",
) -> TrigramModel:
    """Count trigrams over a corpus and build the smoothed log-prob cube.

    Each line is read as the words `strip_symbols` gives, with a leading
    space per word; the spaces between words contribute their own
    trigrams.  The first-character-after-space distribution is counted
    into the (space, space) context row.  Additive smoothing with `smoothing_alpha`
    keeps every row finite and summing to one.
    """
    if not 0 < smoothing_alpha < math.inf:  # NaN and inf give NaN rows
        raise ValueError(f"smoothing_alpha must be positive and finite, got {smoothing_alpha}")

    v = alphabet.size
    counts = [0] * (v * v * v)
    v2 = v * v
    language_seen = False
    for raw_line in corpus_lines:
        words = strip_symbols(raw_line)
        if not words:
            continue
        language_seen = True
        seq = _line_indices(words, alphabet)
        for i in range(len(seq) - 2):
            counts[seq[i] * v2 + seq[i + 1] * v + seq[i + 2]] += 1
        # space-conditioned first characters, housed at context (space, space)
        for i, sym in enumerate(seq):
            if sym == 0:
                counts[seq[i + 1]] += 1
    if not language_seen:
        raise ValueError("empty corpus")

    log = math.log
    table = [0.0] * len(counts)
    for ctx in range(v2):
        base = ctx * v
        row_total = sum(counts[base : base + v])
        for z in range(v):
            table[base + z] = log(
                (counts[base + z] + smoothing_alpha) / (row_total + smoothing_alpha * v)
            )
    return TrigramModel(
        language=language, alphabet=alphabet, table=table, alpha=smoothing_alpha
    )


def perplexity(model: TrigramModel, lines: Iterable[str]) -> float:
    """Per-character perplexity of held-out text under the model."""
    total_lp = 0.0
    total_chars = 0
    for raw_line in lines:
        for word in strip_symbols(raw_line):
            total_lp += model.word_log_prob(word)
            total_chars += len(word)
    if total_chars == 0:
        raise ValueError("no scorable text")
    return math.exp(-total_lp / total_chars)
