import math
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lde import (
    Engine,
    EngineConfig,
    MalformedPackError,
    NotAPackError,
    PackChecksumError,
    PackError,
    PackVersionError,
    Threshold,
    TruncatedPackError,
    make_pack,
    read_pack,
    train_trigram,
    write_pack,
)
from lde.ngram import Alphabet
from lde.pack import MAGIC, dequantize_table, quantize_table
from lde.trie import Trie, trie_from_pairs

from conftest import model_from_probs


@pytest.fixture()
def sample_inputs():
    alphabet = Alphabet(tuple(" abcdefgh"))
    model = train_trigram(
        ["abc def gah", "fed cab hag", "bad cafe", "dec декаб"],  # oov chars included
        alphabet,
        0.5,
        language="xx",
    )
    lexicon = trie_from_pairs([("abc", 12), ("def", 5), ("cafe", 2)])
    nouns = Trie()
    nouns.insert("hagrid")
    tau = Threshold(language="xx", tau=-7.25)
    return model, tau, lexicon, nouns


class TestQuantization:
    def test_round_trip_bound(self):
        rng = random.Random(5)
        table = [rng.uniform(-14.0, -0.01) for _ in range(3 * 3 * 3)]
        lo, scale, q = quantize_table(table)
        restored = dequantize_table(lo, scale, q)
        for original, back in zip(table, restored):
            assert abs(original - back) <= scale / 2 + 1e-15

    def test_constant_table(self):
        lo, scale, q = quantize_table([-3.0] * 8)
        assert scale == 0.0
        assert dequantize_table(lo, scale, q) == [-3.0] * 8


class TestRoundTrip:
    def test_field_equality(self, sample_inputs, tmp_path):
        model, tau, lexicon, nouns = sample_inputs
        path = tmp_path / "xx.ldep"
        sizes = write_pack(model, tau, lexicon, path, proper_nouns=nouns)
        pack = read_pack(path)

        assert pack.language == "xx"
        assert pack.model.alphabet == model.alphabet
        assert pack.tau == tau.tau
        assert pack.model.alpha == model.alpha
        assert dict(pack.lexicon.items()) == dict(lexicon.items())
        assert [w for w, _ in pack.proper_nouns.items()] == ["hagrid"]

        lo, scale, _ = quantize_table(model.table)
        for original, back in zip(model.table, pack.model.table):
            assert abs(original - back) <= scale / 2 + 1e-15
        assert sizes.compressed == path.stat().st_size
        assert sizes.compressed < sizes.raw

    def test_byte_determinism(self, sample_inputs, tmp_path):
        model, tau, lexicon, nouns = sample_inputs
        p1, p2 = tmp_path / "a.ldep", tmp_path / "b.ldep"
        write_pack(model, tau, lexicon, p1, proper_nouns=nouns)
        write_pack(model, tau, lexicon, p2, proper_nouns=nouns)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_pronouns_section_is_empty(self, sample_inputs, tmp_path):
        model, tau, lexicon, _ = sample_inputs
        path = tmp_path / "xx.ldep"
        write_pack(model, tau, lexicon, path)
        assert len(read_pack(path).proper_nouns) == 0

    def test_language_mismatch_rejected(self, sample_inputs, tmp_path):
        model, _, lexicon, _ = sample_inputs
        with pytest.raises(PackError, match="mismatch"):
            write_pack(model, Threshold("yy", -1.0), lexicon, tmp_path / "x.ldep")

    def test_make_pack_language_mismatch(self, sample_inputs):
        model, _, lexicon, _ = sample_inputs
        with pytest.raises(PackError, match="mismatch"):
            make_pack(model, Threshold("yy", -1.0), lexicon)

    @pytest.mark.parametrize("weight", [-1, 2**32])
    def test_out_of_range_weight_rejected(self, sample_inputs, tmp_path, weight):
        model, tau, lexicon, _ = sample_inputs
        lexicon.insert("dab", weight)
        with pytest.raises(PackError, match="'dab'"):
            write_pack(model, tau, lexicon, tmp_path / "x.ldep")


class TestErrorPaths:
    def write_sample(self, sample_inputs, tmp_path):
        model, tau, lexicon, nouns = sample_inputs
        path = tmp_path / "xx.ldep"
        write_pack(model, tau, lexicon, path, proper_nouns=nouns)
        return path

    def test_wrong_magic(self, sample_inputs, tmp_path):
        path = self.write_sample(sample_inputs, tmp_path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTAPACK"
        path.write_bytes(bytes(data))
        with pytest.raises(NotAPackError, match="not a pack"):
            read_pack(path)

    def test_corrupt_payload_byte(self, sample_inputs, tmp_path):
        path = self.write_sample(sample_inputs, tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises((PackChecksumError, TruncatedPackError)):
            read_pack(path)

    def test_corrupt_crc_trailer(self, sample_inputs, tmp_path):
        path = self.write_sample(sample_inputs, tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(PackChecksumError, match="checksum"):
            read_pack(path)

    def test_truncated_stream(self, sample_inputs, tmp_path):
        path = self.write_sample(sample_inputs, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedPackError):
            read_pack(path)

    def rewrite_payload(self, path, old: bytes, new: bytes):
        """Replace the last `old` in the payload and keep the checksum valid."""
        payload = zlib.decompressobj().decompress(path.read_bytes()[8:])
        at = payload.rindex(old)
        payload = payload[:at] + new + payload[at + len(old) :]
        path.write_bytes(
            MAGIC + zlib.compress(payload, 9) + struct.pack("<I", zlib.crc32(payload))
        )

    def test_version_mismatch(self, sample_inputs, tmp_path):
        path = self.write_sample(sample_inputs, tmp_path)
        data = path.read_bytes()
        decomp = zlib.decompressobj()
        payload = bytearray(decomp.decompress(data[8:]))
        struct.pack_into("<H", payload, 0, 99)
        rebuilt = MAGIC + zlib.compress(bytes(payload), 9) + struct.pack(
            "<I", zlib.crc32(bytes(payload))
        )
        path.write_bytes(rebuilt)
        with pytest.raises(PackVersionError, match="99"):
            read_pack(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b"\x03\x00abc", b"\x03\x00a\xffc", "not UTF-8"),  # lexicon word
            (b"\x09\x00 abcdefgh", b"\x09\x00 a cdefgh", "whitespace"),  # alphabet
            (b"\x03\x00abc", b"\x00\x00", "empty word"),  # lexicon word
        ],
        ids=["bad-utf8", "repeated-space", "empty-word"],
    )
    def test_invalid_field_value(self, sample_inputs, tmp_path, old, new, message):
        path = self.write_sample(sample_inputs, tmp_path)
        self.rewrite_payload(path, old, new)
        with pytest.raises(MalformedPackError, match=message):
            read_pack(path)

    @pytest.mark.parametrize(
        "field, value",
        [("tau", math.nan), ("scale", 1e308), ("lo", -math.inf), ("alpha", math.inf)],
    )
    def test_non_finite_field(self, sample_inputs, tmp_path, field, value):
        model, tau, _, _ = sample_inputs
        path = self.write_sample(sample_inputs, tmp_path)
        lo, scale, _ = quantize_table(model.table)
        before = {"alpha": model.alpha, "lo": lo, "scale": scale, "tau": tau.tau}
        after = dict(before, **{field: value})
        # alpha, lo and scale sit right before the table, tau right after it
        for layout, names in (("<ddd", ("alpha", "lo", "scale")), ("<d", ("tau",))):
            self.rewrite_payload(
                path,
                struct.pack(layout, *(before[name] for name in names)),
                struct.pack(layout, *(after[name] for name in names)),
            )
        with pytest.raises(MalformedPackError, match="non-finite"):
            read_pack(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_pack(tmp_path / "absent.ldep")


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("replace", "insert", "delete")),
        st.integers(min_value=0),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=8,
)


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, at, byte in edits:
        at %= len(out) + 1
        if kind == "insert":
            out.insert(at, byte)
        elif at < len(out):
            if kind == "replace":
                out[at] = byte
            else:
                del out[at]
    return bytes(out)


@pytest.fixture(scope="module")
def sample_pack_path(tmp_path_factory):
    alphabet = Alphabet(tuple(" abcdefgh"))
    model = train_trigram(["abc def gah", "fed cab hag"], alphabet, 0.5, language="xx")
    lexicon = trie_from_pairs([("abc", 12), ("def", 5), ("cafe", 2)])
    path = tmp_path_factory.mktemp("fuzz") / "xx.ldep"
    write_pack(model, Threshold("xx", -7.25), lexicon, path, proper_nouns=lexicon)
    return path


@settings(deadline=None, max_examples=300)
@given(edits=_EDITS, in_payload=st.booleans())
def test_reader_is_total(sample_pack_path, edits, in_payload):
    """Any edit of a valid pack either loads, with finite scores, or raises a
    PackError.  Payload edits are recompressed under a valid checksum so
    that they reach the field parser."""
    data = sample_pack_path.read_bytes()
    if in_payload:
        payload = _mutate(zlib.decompress(data[len(MAGIC) : -4]), edits)
        data = MAGIC + zlib.compress(payload, 9) + struct.pack("<I", zlib.crc32(payload))
    else:
        data = _mutate(data, edits)
    path = sample_pack_path.with_name("mutant.ldep")
    path.write_bytes(data)
    try:
        pack = read_pack(path)
    except PackError:
        return
    assert all(map(math.isfinite, pack.model.table))
    assert math.isfinite(pack.tau)


class TestDecisionEquivalence:
    def test_round_trip_preserves_decisions(self, bilingual, tmp_path):
        paths = []
        for pack, threshold in zip(bilingual.packs, bilingual.thresholds.values()):
            path = tmp_path / f"{pack.language}.ldep"
            write_pack(
                bilingual.models[pack.language], threshold, pack.lexicon, path
            )
            paths.append(path)
        reloaded = [read_pack(p) for p in paths]
        engine_disk = Engine(
            reloaded, EngineConfig(languages=tuple(bilingual.models), r=bilingual.r)
        )

        rng = random.Random(77)
        vocab_a = bilingual.lang_a.vocabulary
        vocab_b = bilingual.lang_b.vocabulary
        flips = 0
        probes = 800
        for _ in range(probes):
            words = [rng.choice(rng.choice((vocab_a, vocab_b))) for _ in range(2)]
            raw = " ".join(words)
            d_mem = bilingual.engine.detect(raw, bilingual.engine.new_state())
            d_disk = engine_disk.detect(raw, engine_disk.new_state())
            if d_mem.language != d_disk.language:
                flips += 1
        assert flips / probes < 0.001


class TestModularity:
    def test_adding_a_pack_only_changes_where_it_wins(self):
        alphabet = Alphabet(tuple(" abmnxy"))
        model_a = model_from_probs(
            alphabet, 0.02, {(" ", " ", "a"): 0.5, (" ", "a", "b"): 0.5}, language="A"
        )
        model_b = model_from_probs(
            alphabet, 0.02, {(" ", " ", "m"): 0.5, (" ", "m", "n"): 0.5}, language="B"
        )
        model_c = model_from_probs(
            alphabet, 0.02, {(" ", " ", "x"): 0.5, (" ", "x", "y"): 0.5}, language="C"
        )
        packs = {
            code: make_pack(model, Threshold(code, -6.0), Trie())
            for code, model in (("A", model_a), ("B", model_b), ("C", model_c))
        }
        engine_ab = Engine(
            [packs["A"], packs["B"]], EngineConfig(languages=("A", "B"))
        )
        engine_abc = Engine(
            [packs["A"], packs["B"], packs["C"]], EngineConfig(languages=("A", "B", "C"))
        )
        rng = random.Random(3)
        words = ["ab", "abab", "mn", "mnmn", "am", "ba", "nm", "xy"]
        for _ in range(200):
            raw = " ".join(rng.choices(words, k=rng.randint(1, 3)))
            d2 = engine_ab.detect(raw, engine_ab.new_state())
            d3 = engine_abc.detect(raw, engine_abc.new_state())
            if d3.language in ("A", "B"):
                assert d3.language == d2.language
            # scores for A and B are identical whether or not C is loaded
            for lang in ("A", "B"):
                if lang in d2.scores:
                    assert d2.scores[lang] == pytest.approx(d3.scores[lang], abs=1e-12)


def test_table_bytes_row_major(sample_inputs, tmp_path):
    """The quantized cube is stored row-major over (c2, c1, c0)."""
    model, tau, lexicon, nouns = sample_inputs
    path = tmp_path / "xx.ldep"
    write_pack(model, tau, lexicon, path, proper_nouns=nouns)
    data = path.read_bytes()
    payload = zlib.decompressobj().decompress(data[8:])
    v = model.alphabet.size
    # header: u16 version, str lang, str alphabet, 3 doubles
    offset = 2
    for _ in range(2):
        (n,) = struct.unpack_from("<H", payload, offset)
        offset += 2 + n
    offset += 24
    q = np.frombuffer(payload, dtype="<u2", count=v * v * v, offset=offset)
    lo, scale, expected = quantize_table(model.table)
    assert np.array_equal(q, expected)
