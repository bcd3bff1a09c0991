"""One self-contained binary file per language.

A pack bundles everything the engine needs for one language: the quantized
trigram table, the alphabet, the reduced selector threshold, the
frequency-weighted lexicon used for typo rescue, and an optional
proper-noun list.  Packs are independent of each other, so adding or
removing a language never touches the other files.

See MODEL_FORMAT.md for the byte-level layout.  In short: an 8-byte magic,
a zlib (RFC 1950) stream holding the little-endian payload, and a CRC-32
of the uncompressed payload as a 4-byte trailer.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ngram import Alphabet, TrigramModel
from .selector import Threshold
from .trie import Trie, trie_from_pairs

MAGIC = b"LDEPACK1"
FORMAT_VERSION = 1
ZLIB_LEVEL = 9


class PackError(Exception):
    """Base class for pack read/write failures."""


class NotAPackError(PackError):
    pass


class PackVersionError(PackError):
    pass


class PackChecksumError(PackError):
    pass


class TruncatedPackError(PackError):
    pass


class MalformedPackError(PackError):
    """The payload's checksum holds but a field's value is invalid."""


class PackSizes(NamedTuple):
    raw: int
    compressed: int
    table_raw: int
    table_compressed: int


@dataclass
class LanguagePack:
    """In-memory view of one unpacked language file."""

    language: str
    model: TrigramModel
    tau: float
    lexicon: Trie
    proper_nouns: Trie


def quantize_table(table: list[float]) -> tuple[float, float, np.ndarray]:
    """16-bit fixed-point encoding: value = min + q * scale."""
    arr = np.asarray(table, dtype=np.float64)
    lo = float(arr.min())
    hi = float(arr.max())
    scale = (hi - lo) / 65535.0
    if scale == 0.0:
        q = np.zeros(arr.shape, dtype="<u2")
    else:
        q = np.round((arr - lo) / scale).astype("<u2")
    return lo, scale, q


def dequantize_table(lo: float, scale: float, q: np.ndarray) -> list[float]:
    return (lo + q.astype(np.float64) * scale).tolist()


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise PackError(f"string too long to pack ({len(data)} bytes)")
    return struct.pack("<H", len(data)) + data


class _Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise TruncatedPackError(
                f"payload ends at {len(self._data)}, needed {end}"
            )
        chunk = self._data[self._pos : end]
        self._pos = end
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def string(self) -> str:
        try:
            return self.take(self.u16()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPackError(f"string is not UTF-8: {exc}") from exc

    def at_end(self) -> bool:
        return self._pos == len(self._data)


def write_pack(
    model: TrigramModel,
    tau: Threshold,
    lexicon: Trie,
    path,
    proper_nouns: Trie | None = None,
) -> PackSizes:
    """Serialize one language to `path`; returns the measured sizes.

    Reproducible bit-for-bit from identical inputs: the lexicon and
    proper-noun sections are written in sorted order and zlib settings
    are fixed.
    """
    if not model.language:
        raise PackError("model has no language code")
    if model.language != tau.language:
        raise PackError(
            f"language mismatch: model {model.language!r} vs threshold {tau.language!r}"
        )

    lo, scale, q = quantize_table(model.table)
    table_bytes = q.tobytes()

    parts = [struct.pack("<H", FORMAT_VERSION)]
    parts.append(_pack_str(model.language))
    parts.append(_pack_str("".join(model.alphabet.symbols)))
    parts.append(struct.pack("<ddd", model.alpha, lo, scale))
    parts.append(table_bytes)
    parts.append(struct.pack("<d", tau.tau))

    lex_records = sorted(lexicon.items())
    parts.append(struct.pack("<I", len(lex_records)))
    for word, weight in lex_records:
        if not 0 <= weight <= 0xFFFFFFFF:
            raise PackError(f"lexicon weight {weight} of {word!r} is not a u32")
        parts.append(_pack_str(word) + struct.pack("<I", weight))

    noun_records = sorted(word for word, _ in proper_nouns.items()) if proper_nouns else []
    parts.append(struct.pack("<I", len(noun_records)))
    for word in noun_records:
        parts.append(_pack_str(word))

    payload = b"".join(parts)
    compressed = zlib.compress(payload, ZLIB_LEVEL)
    crc = zlib.crc32(payload)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(compressed)
        fh.write(struct.pack("<I", crc))

    return PackSizes(
        raw=len(payload),
        compressed=len(MAGIC) + len(compressed) + 4,
        table_raw=len(table_bytes),
        table_compressed=len(zlib.compress(table_bytes, ZLIB_LEVEL)),
    )


def read_pack(path) -> LanguagePack:
    """Load and validate one language pack.

    Failure modes are distinct: wrong magic, unsupported version, checksum
    mismatch (or a corrupt compressed stream), truncation, and an invalid
    field value each raise their own `PackError` subclass.  Loading never
    needs any other pack.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC):
        raise TruncatedPackError(f"file is only {len(data)} bytes")
    if data[: len(MAGIC)] != MAGIC:
        raise NotAPackError(f"{path}: not a pack")

    decomp = zlib.decompressobj()
    try:
        payload = decomp.decompress(data[len(MAGIC) :])
    except zlib.error as exc:
        raise PackChecksumError(f"corrupt compressed stream: {exc}") from exc
    if not decomp.eof:
        raise TruncatedPackError("compressed stream is incomplete")
    trailer = decomp.unused_data
    if len(trailer) < 4:
        raise TruncatedPackError("missing checksum trailer")
    if len(trailer) > 4:
        raise PackError(f"{len(trailer) - 4} bytes of trailing garbage")
    stored_crc = struct.unpack("<I", trailer)[0]
    actual_crc = zlib.crc32(payload)
    if actual_crc != stored_crc:
        raise PackChecksumError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )

    reader = _Reader(payload)
    version = reader.u16()
    if version != FORMAT_VERSION:
        raise PackVersionError(f"unsupported pack version {version}")
    language = reader.string()
    symbols = reader.string()
    try:
        alphabet = Alphabet(tuple(symbols))
    except ValueError as exc:
        raise MalformedPackError(f"bad alphabet {symbols!r}: {exc}") from exc
    alpha, lo, scale = struct.unpack("<ddd", reader.take(24))
    v = alphabet.size
    q = np.frombuffer(reader.take(v * v * v * 2), dtype="<u2")
    tau = reader.f64()
    # the table's values run from lo to lo + 65535 * scale
    if not all(map(math.isfinite, (alpha, lo, scale, tau, lo + 65535 * scale))):
        raise MalformedPackError(
            f"non-finite value: alpha={alpha} lo={lo} scale={scale} tau={tau}"
        )
    table = dequantize_table(lo, scale, q)

    try:
        lexicon = trie_from_pairs(
            (reader.string(), reader.u32()) for _ in range(reader.u32())
        )
        proper_nouns = trie_from_pairs((reader.string(), 1) for _ in range(reader.u32()))
    except ValueError as exc:  # an empty word
        raise MalformedPackError(f"bad lexicon or proper-noun record: {exc}") from exc
    if not reader.at_end():
        raise MalformedPackError("unparsed bytes at end of payload")

    model = TrigramModel(language=language, alphabet=alphabet, table=table, alpha=alpha)
    return LanguagePack(
        language=language,
        model=model,
        tau=tau,
        lexicon=lexicon,
        proper_nouns=proper_nouns,
    )


def make_pack(
    model: TrigramModel,
    tau: Threshold,
    lexicon: Trie | None = None,
    proper_nouns: Trie | None = None,
) -> LanguagePack:
    """Assemble an in-memory pack without touching disk (no quantization)."""
    if model.language != tau.language:
        raise PackError(
            f"language mismatch: model {model.language!r} vs threshold {tau.language!r}"
        )
    return LanguagePack(
        language=model.language,
        model=model,
        tau=tau.tau,
        lexicon=lexicon if lexicon is not None else Trie(),
        proper_nouns=proper_nouns if proper_nouns is not None else Trie(),
    )


__all__ = [
    "LanguagePack",
    "PackSizes",
    "PackError",
    "NotAPackError",
    "PackVersionError",
    "PackChecksumError",
    "TruncatedPackError",
    "MalformedPackError",
    "write_pack",
    "read_pack",
    "make_pack",
    "quantize_table",
    "dequantize_table",
]
