"""Output checks that share no code with the detector under test.

The pack files are parsed here straight from the byte layout in
MODEL_FORMAT.md, context selection is re-derived from its specification,
and scores are recomputed by walking the dequantised table by hand, so a
fault in `lde.pack`, `lde.ngram`, `lde.engine` or `lde.trie` cannot hide
itself from these checks.
"""

from __future__ import annotations

import struct
import unicodedata
import zlib
from dataclasses import dataclass

from lde import Detection, DetectionPath

SCORE_TOLERANCE = 1e-9
SCORE_EVERY = 8  # freshly scored calls per score recomputation
MAGIC = b"LDEPACK1"


@dataclass
class PackFacts:
    """What one pack file says, read without `lde.pack`."""

    language: str
    index: dict[str, int]  # symbol -> table axis index
    size: int  # table slots per axis, the oov slot included
    table: list[float]  # dequantised log-probabilities
    tau: float
    lexicon: frozenset[str]


def parse_pack(data: bytes) -> PackFacts:
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("bad magic")
    payload = zlib.decompress(data[len(MAGIC) : -4])
    pos = 0

    def take(count: int) -> bytes:
        nonlocal pos
        pos += count
        return payload[pos - count : pos]

    def string() -> str:
        return take(struct.unpack("<H", take(2))[0]).decode("utf-8")

    (version,) = struct.unpack("<H", take(2))
    if version != 1:
        raise ValueError(f"unexpected pack version {version}")
    language = string()
    symbols = string()
    _alpha, lo, scale = struct.unpack("<ddd", take(24))
    size = len(symbols) + 1
    quantised = struct.unpack(f"<{size ** 3}H", take(2 * size ** 3))
    (tau,) = struct.unpack("<d", take(8))
    words = []
    for _ in range(struct.unpack("<I", take(4))[0]):
        words.append(string())
        take(4)
    return PackFacts(
        language=language,
        index={ch: i for i, ch in enumerate(symbols)},
        size=size,
        table=[lo + q * scale for q in quantised],
        tau=tau,
        lexicon=frozenset(words),
    )


def normalise(raw: str) -> str:
    """Symbols, controls and marks out; then lowercase, digits and
    punctuation out, whitespace collapsed (the engine's documented order)."""
    kept = "".join(
        " " if ch.isspace() else ch
        for ch in raw
        if ch.isspace() or unicodedata.category(ch)[0] not in "SCM"
    )
    lowered = "".join(
        " " if ch.isspace() else ch
        for ch in kept.lower()
        if ch.isspace() or unicodedata.category(ch)[0] not in "NP"
    )
    return " ".join(lowered.split())


def context(text: str, window: int, short_len: int, max_tokens: int) -> list[str]:
    """The last `window` tokens, extended backwards past short tokens."""
    tokens = text.split()
    start = max(0, len(tokens) - window)
    while start > 0 and len(tokens) - start < max_tokens and any(
        len(tok) <= short_len for tok in tokens[start:]
    ):
        start -= 1
    return tokens[start:]


def word_log_prob(pack: PackFacts, word: str) -> float:
    v, oov = pack.size, pack.size - 1
    prev2 = prev1 = 0
    total = 0.0
    for ch in word:
        cur = pack.index.get(ch, oov)
        total += pack.table[(prev2 * v + prev1) * v + cur]
        prev2, prev1 = prev1, cur
    return total


def scores(packs: dict[str, PackFacts], tokens: list[str], r: float) -> dict[str, float]:
    n = len(tokens)
    mass = sum(r ** k for k in range(n))
    return {
        lang: sum(r ** (n - 1 - k) * word_log_prob(pack, w) for k, w in enumerate(tokens))
        / mass
        - pack.tau
        for lang, pack in packs.items()
    }


def levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class Checker:
    """Checks one detection against the packs it was made from.

    `check` returns None when the detection is right, else a message.
    Scores are recomputed for every SCORE_EVERY-th freshly scored call.
    """

    def __init__(self, packs: dict[str, PackFacts], config):
        self.packs = packs
        self.config = config
        self._eligible = 0
        self.scores_checked = 0

    def tokens(self, raw: str) -> list[str]:
        cfg = self.config
        return context(
            normalise(raw), cfg.context_window, cfg.short_token_len, cfg.max_context_extension
        )

    def check(self, raw: str, detection) -> str | None:
        if isinstance(detection, BaseException):
            return f"raised {detection!r}"
        if not isinstance(detection, Detection) or not isinstance(
            detection.path, DetectionPath
        ):
            return f"not a Detection: {detection!r}"
        if detection.language not in self.packs:
            return f"unknown language {detection.language!r}"
        rescued = detection.path is DetectionPath.TYPO_RESCUE
        if (detection.corrected is not None) != rescued:
            return f"corrected={detection.corrected!r} on path {detection.path.value}"
        tokens = None
        if rescued:
            word, language = detection.corrected
            tokens = self.tokens(raw)
            if language != detection.language or word not in self.packs[language].lexicon:
                return f"correction {detection.corrected!r} is not a {detection.language} word"
            if not tokens or levenshtein(word, tokens[-1]) > 1:
                return f"correction {word!r} is not one edit from {tokens[-1:]!r}"
            tokens[-1] = word
        fresh = detection.path in (
            DetectionPath.NORMAL, DetectionPath.FALLBACK, DetectionPath.TYPO_RESCUE
        )
        if fresh and detection.scores:
            self._eligible += 1
            if self._eligible % SCORE_EVERY == 0:
                self.scores_checked += 1
                return self.check_scores(tokens or self.tokens(raw), detection.scores)
        return None

    def check_scores(self, tokens: list[str], got: dict[str, float]) -> str | None:
        want = scores(self.packs, tokens, self.config.r)
        if set(got) != set(want):
            return f"scored languages {sorted(got)} != {sorted(want)}"
        for lang, value in want.items():
            if abs(got[lang] - value) > SCORE_TOLERANCE:
                return f"{lang} score {got[lang]!r} != table walk {value!r} for {tokens}"
        return None
