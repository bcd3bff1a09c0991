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
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .ngram import Alphabet, Maxima, TrigramModel, trigram_maxima
from .selector import Threshold
from .trie import MAX_WEIGHT, Trie

MAGIC = b"LDEPACK1"
FORMAT_VERSION = 1
ZLIB_LEVEL = 9
# the most bytes a payload may inflate to, about 48 times the 691,633 of a
# 50k-word pack: a small file holding a zlib bomb is refused, not inflated
MAX_PAYLOAD = 32 * 1024 * 1024


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
    """In-memory view of one unpacked language file.

    Its `language` is its model's, read through, never stored apart.
    `maxima` bounds what one edit can gain a word (`ngram.edit1_gain_bound`);
    it is derived from the table when the pack is made, not stored.
    """

    model: TrigramModel
    tau: float
    lexicon: Trie
    proper_nouns: frozenset[str]
    maxima: Maxima

    @property
    def language(self) -> str:
        return self.model.language


def quantize_table(table: list[float]) -> tuple[float, float, np.ndarray]:
    """16-bit fixed-point encoding: value = min + q * scale.

    The codes are all zero when the scale is 0 or not finite, so a table
    holding an inf or a NaN is never cast to an integer; `write_pack`
    refuses it from the `lo` and `scale` returned.
    """
    arr = np.asarray(table, dtype=np.float64)
    lo = float(arr.min())
    scale = (float(arr.max()) - lo) / 65535.0
    if scale == 0.0 or not math.isfinite(scale):
        q = np.zeros(arr.shape, dtype="<u2")
    else:
        q = np.round((arr - lo) / scale).astype("<u2")
    return lo, scale, q


def _pack_str(text: str) -> bytes:
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise PackError(f"string {text!r} has no UTF-8 encoding: {exc}") from exc
    if len(data) > 0xFFFF:
        raise PackError(f"string too long to pack ({len(data)} bytes)")
    return struct.pack("<H", len(data)) + data


def _check_language(error: type[PackError], language: str) -> None:
    if not language:  # the one language-code rule, which writer and reader apply
        raise error("pack has no language code")


def _check_finite(
    error: type[PackError], alpha: float, lo: float, scale: float, tau: float
) -> None:
    """The one finite-value rule of a pack, which the writer and the reader
    both apply: `alpha`, `tau` and the table's values, which run from `lo`
    to `lo + 65535 * scale`."""
    if not all(map(math.isfinite, (alpha, lo, scale, tau, lo + 65535 * scale))):
        raise error(f"non-finite value: alpha={alpha} lo={lo} scale={scale} tau={tau}")


def write_pack(
    model: TrigramModel,
    tau: Threshold,
    lexicon: Mapping[str, int] | Trie,
    path,
    proper_nouns: Iterable[str] = (),
) -> PackSizes:
    """Serialize one language to `path`; returns the measured sizes.

    `lexicon` is any word -> weight mapping, read through `.items()`;
    `proper_nouns` is any iterable of words but one `str`, a repeat written
    once.  What `read_pack` would refuse is refused here with `PackError`,
    before `path` is opened.  Reproducible bit-for-bit from identical
    inputs: the lexicon and proper-noun sections are written in sorted
    order and zlib settings are fixed.
    """
    _check_language(PackError, model.language)
    if model.language != tau.language:
        raise PackError(
            f"language mismatch: model {model.language!r} vs threshold {tau.language!r}"
        )
    lo, scale, q = quantize_table(model.table)
    _check_finite(PackError, model.alpha, lo, scale, tau.tau)
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
        if not word:
            raise PackError("empty lexicon word")
        if not 0 <= weight <= MAX_WEIGHT:
            raise PackError(f"lexicon weight {weight} of {word!r} is not a u32")
        parts.append(_pack_str(word) + struct.pack("<I", weight))

    if isinstance(proper_nouns, str):  # which `set` would split into letters
        raise PackError(f"proper nouns {proper_nouns!r} is one string, not an iterable")
    noun_records = sorted(set(proper_nouns))
    if "" in noun_records:
        raise PackError("empty proper noun")
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


# the fixed-size fields of a word section, as precompiled readers
_U16 = struct.Struct("<H").unpack_from
_U32 = struct.Struct("<I").unpack_from
_U32_U16 = struct.Struct("<IH").unpack_from


def _string(data: bytes, pos: int) -> tuple[str, int]:
    """The string record at `pos`, a u16 byte length then that many UTF-8
    bytes, and the offset past it; one cut short is refused before it is decoded."""
    (size,) = _U16(data, pos)
    end = pos + 2 + size
    if end > len(data):
        raise TruncatedPackError(f"payload ends at {len(data)}, needed {end}")
    return data[pos + 2 : end].decode(), end


def _words(data: bytes, pos: int, weighted: bool) -> tuple[dict[str, int], int]:
    """The word section at `pos` and the offset past it: a u32 count, then
    that many records, a string followed by its u32 weight when `weighted`
    (every word weighs 1 otherwise).

    The weighted records, most of a pack's load time, are read in one flat
    loop with no call per record and one precompiled `unpack_from` each: a
    weight is read together with the size that starts the next record.
    After the last weight those two bytes are the first half of the noun
    section's u32 count, which always follows, so a valid pack holds them.
    Each record is read whole before its word is decoded, so one cut short
    is truncated, not malformed; `read_pack` turns the `struct.error` and
    `UnicodeDecodeError` raised here into `PackError`s.
    """
    words: dict[str, int] = {}
    (count,) = _U32(data, pos)
    pos += 4
    if weighted and count:
        (size,) = _U16(data, pos)
        for _ in range(count):
            start = pos + 2
            pos = start + size
            weight, size = _U32_U16(data, pos)
            words[data[start:pos].decode()] = weight
            pos += 4
    else:  # the nouns, or an empty lexicon
        for _ in range(count):
            word, pos = _string(data, pos)
            words[word] = 1
    if "" in words:
        raise MalformedPackError("empty word")
    if len(words) != count:
        raise MalformedPackError(f"{count - len(words)} repeated words")
    return words, pos


def _dequantize(q: np.ndarray, lo: float, scale: float) -> tuple[list[float], np.ndarray]:
    """The table of the codes `q`, as a float list and as an ndarray.

    Each entry is `lo + q * scale`, the same float as a dequantization
    entry by entry, but the list holds one float object per distinct code
    (a few hundred to a few thousand, against v**3 entries), shared by
    every entry of that code.  The codes are grouped by a stable argsort,
    a radix sort for u16 that costs less than `np.unique` on a small table.
    """
    order = q.argsort(kind="stable")
    codes = q[order]
    first = np.empty(len(codes), dtype=bool)
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    inverse = np.empty(len(codes), dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    values = lo + codes[first].astype(np.float64) * scale
    return values.astype(object)[inverse].tolist(), values[inverse]


def read_pack(path) -> LanguagePack:
    """Load and validate one language pack.

    Failure modes are distinct: wrong magic, unsupported version, checksum
    mismatch (or a corrupt compressed stream), truncation, and an invalid
    field value (or a payload past `MAX_PAYLOAD` bytes) each raise their
    own `PackError` subclass.  Loading never needs any other pack.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC):
        raise TruncatedPackError(f"file is only {len(data)} bytes")
    if data[: len(MAGIC)] != MAGIC:
        raise NotAPackError(f"{path}: not a pack")

    decomp = zlib.decompressobj()
    try:
        payload = decomp.decompress(data[len(MAGIC) :], MAX_PAYLOAD + 1)
    except zlib.error as exc:
        raise PackChecksumError(f"corrupt compressed stream: {exc}") from exc
    if len(payload) > MAX_PAYLOAD:
        raise MalformedPackError(f"payload inflates past {MAX_PAYLOAD} bytes")
    if not decomp.eof:
        raise TruncatedPackError("compressed stream is incomplete")
    trailer = decomp.unused_data
    if len(trailer) < 4:
        raise TruncatedPackError("missing checksum trailer")
    if len(trailer) > 4:
        raise MalformedPackError(f"{len(trailer) - 4} bytes after the checksum trailer")
    stored_crc = struct.unpack("<I", trailer)[0]
    actual_crc = zlib.crc32(payload)
    if actual_crc != stored_crc:
        raise PackChecksumError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )

    # each field is read at a running offset `pos`, in MODEL_FORMAT.md's order
    unpack_from = struct.unpack_from
    try:
        (version,) = unpack_from("<H", payload)
        if version != FORMAT_VERSION:
            raise PackVersionError(f"unsupported pack version {version}")
        language, pos = _string(payload, 2)
        _check_language(MalformedPackError, language)
        symbols, pos = _string(payload, pos)
        try:
            alphabet = Alphabet(tuple(symbols))
        except ValueError as exc:
            raise MalformedPackError(f"bad alphabet {symbols!r}: {exc}") from exc
        alpha, lo, scale = unpack_from("<ddd", payload, pos)
        pos += 24
        v = alphabet.size
        end = pos + 2 * v**3
        if end > len(payload):  # where `np.frombuffer` raises ValueError
            raise TruncatedPackError(f"payload ends at {len(payload)}, needed {end}")
        q = np.frombuffer(payload, "<u2", count=v**3, offset=pos)
        (tau,) = unpack_from("<d", payload, end)
        _check_finite(MalformedPackError, alpha, lo, scale, tau)
        weights, pos = _words(payload, end + 8, weighted=True)
        nouns, pos = _words(payload, pos, weighted=False)
    except struct.error as exc:
        raise TruncatedPackError(f"payload ends at {len(payload)}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedPackError(f"string is not UTF-8: {exc}") from exc
    if pos != len(payload):
        raise MalformedPackError("unparsed bytes at end of payload")

    table, cube = _dequantize(q, lo, scale)
    model = TrigramModel(language=language, alphabet=alphabet, table=table, alpha=alpha)
    return LanguagePack(model, tau, Trie(weights), frozenset(nouns), trigram_maxima(cube, v))
