import math
import random
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lde.engine
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
    build_alphabet,
    lexicon_from_lines,
    load_word_list,
    read_pack,
    train_trigram,
    write_pack,
)
from lde.ngram import Alphabet, trigram_maxima
from lde.pack import MAGIC, MAX_PAYLOAD, quantize_table
from lde.trie import Trie, trie_from_pairs

from conftest import make_pack, model_from_probs


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
    nouns = frozenset({"hagrid"})
    tau = Threshold(language="xx", tau=-7.25)
    return model, tau, lexicon, nouns


class TestQuantization:
    def test_round_trip_bound(self):
        rng = random.Random(5)
        table = [rng.uniform(-14.0, -0.01) for _ in range(3 * 3 * 3)]
        lo, scale, q = quantize_table(table)
        restored = lo + q.astype(np.float64) * scale  # MODEL_FORMAT.md's dequantization
        for original, back in zip(table, restored):
            assert abs(original - back) <= scale / 2 + 1e-15

    def test_constant_table(self):
        lo, scale, q = quantize_table([-3.0] * 8)
        assert scale == 0.0
        assert (lo + q.astype(np.float64) * scale).tolist() == [-3.0] * 8


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
        assert pack.proper_nouns == {"hagrid"}

        lo, scale, _ = quantize_table(model.table)
        for original, back in zip(model.table, pack.model.table):
            assert abs(original - back) <= scale / 2 + 1e-15
        assert sizes.compressed == path.stat().st_size
        assert sizes.compressed < sizes.raw

    def test_language_is_the_models(self, sample_inputs, tmp_path):
        model, tau, lexicon, nouns = sample_inputs
        path = tmp_path / "xx.ldep"
        write_pack(model, tau, lexicon, path, proper_nouns=nouns)
        pack = read_pack(path)
        assert pack.language == pack.model.language == "xx"
        # the model is the one source of the language: a pack cannot name another
        with pytest.raises(AttributeError):
            pack.language = "yy"
        pack.model = replace(pack.model, language="yy")
        assert pack.language == "yy"

    def test_table_is_the_dequantized_codes(self, sample_inputs, tmp_path):
        """Every entry is the float `lo + q * scale` gives, and the table
        holds one float object per distinct code."""
        model, tau, lexicon, nouns = sample_inputs
        path = tmp_path / "xx.ldep"
        write_pack(model, tau, lexicon, path, proper_nouns=nouns)
        pack = read_pack(path)
        lo, scale, q = quantize_table(model.table)
        dequantized = (lo + q.astype(np.float64) * scale).tolist()
        assert type(pack.model.table) is list
        assert [x.hex() for x in pack.model.table] == [x.hex() for x in dequantized]
        distinct = len(np.unique(q))
        assert distinct < len(q)
        assert len({id(x) for x in pack.model.table}) == distinct
        assert pack.maxima == trigram_maxima(dequantized, model.alphabet.size)

    def test_empty_lexicon_with_a_noun(self, sample_inputs, tmp_path):
        model, tau, _, _ = sample_inputs
        path = tmp_path / "xx.ldep"
        write_pack(model, tau, {}, path, proper_nouns=["hagrid"])
        pack = read_pack(path)
        assert dict(pack.lexicon.items()) == {}
        assert pack.proper_nouns == {"hagrid"}

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

    def test_noun_input_kinds_give_identical_packs(self, sample_inputs, tmp_path):
        model, tau, lexicon, _ = sample_inputs
        nouns = frozenset({"hagrid", "dumbledore", "\u00e9mile"})
        inputs = {
            "list": ["\u00e9mile", "hagrid", "dumbledore", "hagrid"],
            "frozenset": nouns,
            "trie": trie_from_pairs((noun, 1) for noun in nouns),
        }
        written = {}
        for kind, given_nouns in inputs.items():
            path = tmp_path / f"{kind}.ldep"
            write_pack(model, tau, lexicon, path, proper_nouns=given_nouns)
            written[kind] = path.read_bytes()
            assert read_pack(path).proper_nouns == nouns
        assert written["list"] == written["frozenset"] == written["trie"]
        assert make_pack(model, tau, lexicon, inputs["list"]).proper_nouns == nouns

    def test_empty_noun_rejected(self, sample_inputs, tmp_path):
        model, tau, lexicon, _ = sample_inputs
        with pytest.raises(PackError, match="empty proper noun"):
            write_pack(model, tau, lexicon, tmp_path / "x.ldep", proper_nouns=["hagrid", ""])

    def test_one_string_of_nouns_rejected(self, sample_inputs, tmp_path):
        # a bare str is an iterable of its letters, so it would write the
        # nouns "p", "a", "r", "i" and "s"
        model, tau, lexicon, _ = sample_inputs
        path = tmp_path / "x.ldep"
        with pytest.raises(PackError, match="one string"):
            write_pack(model, tau, lexicon, path, proper_nouns="paris")
        assert not path.exists()

    def test_empty_lexicon_word_rejected(self, sample_inputs, tmp_path):
        model, tau, lexicon, _ = sample_inputs
        path = tmp_path / "x.ldep"
        with pytest.raises(PackError, match="empty lexicon word"):
            write_pack(model, tau, {**dict(lexicon.items()), "": 1}, path)
        assert not path.exists()

    def test_language_mismatch_rejected(self, sample_inputs, tmp_path):
        model, _, lexicon, _ = sample_inputs
        with pytest.raises(PackError, match="mismatch"):
            write_pack(model, Threshold("yy", -1.0), lexicon, tmp_path / "x.ldep")

    @pytest.mark.parametrize("weight", [-1, 2**32])
    def test_out_of_range_weight_rejected(self, sample_inputs, tmp_path, weight):
        model, tau, lexicon, _ = sample_inputs
        lexicon = trie_from_pairs([*lexicon.items(), ("dab", weight)])
        with pytest.raises(PackError, match="'dab'"):
            write_pack(model, tau, lexicon, tmp_path / "x.ldep")

    def test_plain_dict_lexicon_gives_identical_pack(self, sample_inputs, tmp_path):
        model, tau, lexicon, nouns = sample_inputs
        from_trie, from_dict = tmp_path / "trie.ldep", tmp_path / "dict.ldep"
        write_pack(model, tau, lexicon, from_trie, proper_nouns=nouns)
        write_pack(model, tau, dict(lexicon.items()), from_dict, proper_nouns=nouns)
        assert from_trie.read_bytes() == from_dict.read_bytes()

    def test_missing_language_rejected(self, sample_inputs, tmp_path):
        model, _, lexicon, _ = sample_inputs
        path = tmp_path / "x.ldep"
        with pytest.raises(PackError, match="no language code"):
            write_pack(replace(model, language=""), Threshold("", -1.0), lexicon, path)
        assert not path.exists()

    def test_string_too_long_rejected(self, sample_inputs, tmp_path):
        model, tau, lexicon, _ = sample_inputs
        path = tmp_path / "x.ldep"
        lexicon = trie_from_pairs([*lexicon.items(), ("a" * 0x10000, 1)])
        with pytest.raises(PackError, match="string too long to pack \\(65536 bytes\\)"):
            write_pack(model, tau, lexicon, path)
        assert not path.exists()

    @pytest.mark.parametrize("where", ["word", "noun", "language"])
    def test_lone_surrogate_rejected(self, sample_inputs, tmp_path, where):
        """A string with no UTF-8 encoding is refused like the writer's
        other refusals, before the file is opened."""
        model, tau, lexicon, nouns = sample_inputs
        lexicon = dict(lexicon.items())
        if where == "word":
            lexicon["a\ud800"] = 1
        elif where == "noun":
            nouns = ["n\udc00"]
        else:
            model, tau = replace(model, language="x\ud800"), Threshold("x\ud800", tau.tau)
        path = tmp_path / "x.ldep"
        with pytest.raises(PackError, match="no UTF-8 encoding"):
            write_pack(model, tau, lexicon, path, proper_nouns=nouns)
        assert not path.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("tau", math.nan), ("alpha", math.inf), ("table", -math.inf), ("table", math.inf),
         ("table", math.nan)],
        ids=["tau-nan", "alpha-inf", "table-minus-inf", "table-inf", "table-nan"],
    )
    def test_non_finite_field_rejected(self, sample_inputs, tmp_path, field, value):
        """The writer refuses what `read_pack` would refuse, with no numpy
        warning (no inf or NaN is cast to an integer) and before it opens
        the file."""
        model, tau, lexicon, _ = sample_inputs
        if field == "tau":
            tau = Threshold(tau.language, value)
        elif field == "alpha":
            model = replace(model, alpha=value)
        else:
            model = replace(model, table=[value, *model.table[1:]])
        path = tmp_path / "x.ldep"
        with pytest.raises(PackError, match="non-finite"):
            write_pack(model, tau, lexicon, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "lines, noun",
        [
            (["हिन्दी में लिखो", "मैं घर जा रहा हूँ।", "क्या हाल है? 😀"], "दिल्ली"),
            (["தமிழ் ஒரு மொழி", "நான் வீட்டுக்கு போகிறேன்.", "இன்று 👍🏽 நன்றாக"], "சென்னை"),
        ],
        ids=["devanagari", "tamil"],
    )
    def test_native_script_pack_holds_the_words_detection_reads(self, tmp_path, lines, noun):
        """Training, the lexicon, the noun list and detection read text
        through one front end, so a native-script pack's lexicon and nouns
        hold every word detection looks up, marks and all stripped alike."""
        nouns = tmp_path / "nouns.txt"
        nouns.write_text(noun + "\n", encoding="utf-8")
        model = train_trigram(lines, build_alphabet(lines, max_symbols=60), 0.5, language="xx")
        path = tmp_path / "xx.ldep"
        write_pack(
            model, Threshold("xx", -9.0), lexicon_from_lines(lines), path,
            proper_nouns=load_word_list(nouns),
        )
        pack = read_pack(path)
        for line in lines:
            for word in lde.engine.strip_symbols(line):
                assert word in pack.lexicon
        assert set(lde.engine.strip_symbols(noun)) <= pack.proper_nouns


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

    def test_bytes_after_trailer(self, sample_inputs, tmp_path):
        path = self.write_sample(sample_inputs, tmp_path)
        path.write_bytes(path.read_bytes() + b"xyz")
        with pytest.raises(MalformedPackError, match="3 bytes after the checksum trailer"):
            read_pack(path)

    def test_shorter_than_magic(self, tmp_path):
        path = tmp_path / "short.ldep"
        path.write_bytes(MAGIC[:5])
        with pytest.raises(TruncatedPackError, match="file is only 5 bytes"):
            read_pack(path)

    def test_missing_checksum_trailer(self, sample_inputs, tmp_path):
        path = self.write_sample(sample_inputs, tmp_path)
        path.write_bytes(path.read_bytes()[:-2])  # the stream ends, half a trailer follows
        with pytest.raises(TruncatedPackError, match="missing checksum trailer"):
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
            # the language code, after the u16 version and its u16 length
            (b"\x01\x00\x02\x00xx", b"\x01\x00\x02\x00x\xff", "not UTF-8"),
            # the same code cut to length 0, which the writer refuses too
            (b"\x01\x00\x02\x00xx", b"\x01\x00\x00\x00", "no language code"),
            (b"\x06\x00hagrid", b"\x06\x00hagrid\x00", "unparsed bytes at end of payload"),
        ],
        ids=["bad-utf8", "repeated-space", "empty-word", "bad-utf8-header", "empty-language",
             "unparsed-bytes"],
    )
    def test_invalid_field_value(self, sample_inputs, tmp_path, old, new, message):
        path = self.write_sample(sample_inputs, tmp_path)
        self.rewrite_payload(path, old, new)
        with pytest.raises(MalformedPackError, match=message):
            read_pack(path)

    def test_repeated_word(self, sample_inputs, tmp_path):
        path = self.write_sample(sample_inputs, tmp_path)
        self.rewrite_payload(path, b"\x04\x00cafe", b"\x03\x00abc")
        with pytest.raises(MalformedPackError, match="1 repeated words"):
            read_pack(path)

    @pytest.mark.parametrize(
        "record, cut",
        [
            (b"\x03\x00abc", 1),  # inside a lexicon word's length
            (b"\x03\x00abc", 4),  # inside the word
            (b"\x03\x00abc", 7),  # inside its weight
            (b"\x06\x00hagrid", 1),  # inside a proper noun's length
            (b"\x06\x00hagrid", 5),  # inside the noun, the payload's last record
            # after the u16 version: inside the language code "xx"
            (b"\x01\x00\x02\x00xx", 5),
            (b"\x09\x00 abcdefgh", 6),  # inside the alphabet
            # between the two bytes of the noun's u umlaut, which alone are not UTF-8
            ("\x06\x00d\u00fcrer".encode(), 4),
        ],
        ids=["length", "word", "weight", "noun-length", "noun", "language", "alphabet",
             "non-ascii-noun"],
    )
    def test_record_cut_short(self, sample_inputs, tmp_path, record, cut):
        model, tau, lexicon, nouns = sample_inputs
        path = tmp_path / "xx.ldep"
        # "dürer" sorts before "hagrid", so the last record stays the same
        write_pack(model, tau, lexicon, path, proper_nouns=nouns | {"d\u00fcrer"})
        payload = zlib.decompressobj().decompress(path.read_bytes()[8:])
        payload = payload[: payload.rindex(record) + cut]
        path.write_bytes(
            MAGIC + zlib.compress(payload, 9) + struct.pack("<I", zlib.crc32(payload))
        )
        with pytest.raises(TruncatedPackError):
            read_pack(path)

    def test_bad_last_word_in_a_payload_cut_after_its_weight(self, sample_inputs, tmp_path):
        """Two faults at once: the last lexicon word is not UTF-8, and the
        payload ends one byte after its weight.  A lexicon record is read
        together with the two bytes after it before its word is decoded,
        so the cut is what is reported."""
        path = self.write_sample(sample_inputs, tmp_path)
        payload = zlib.decompressobj().decompress(path.read_bytes()[8:])
        record = b"\x03\x00def" + struct.pack("<I", 5)  # the last of abc, cafe, def
        at = payload.rindex(record)
        payload = payload[:at] + b"\x03\x00d\xfff" + struct.pack("<I", 5) + b"\x01"
        path.write_bytes(
            MAGIC + zlib.compress(payload, 9) + struct.pack("<I", zlib.crc32(payload))
        )
        with pytest.raises(TruncatedPackError):
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

    @pytest.mark.parametrize(
        "size, error",
        [(MAX_PAYLOAD + 1, MalformedPackError), (MAX_PAYLOAD, PackVersionError)],
        ids=["past-the-cap", "at-the-cap"],
    )
    def test_inflate_cap(self, tmp_path, size, error):
        # a zlib bomb: some 33 KB of file that inflate to `size` zero bytes,
        # under a valid checksum; at the cap it inflates and is parsed (and
        # its zero version refused), one byte more and it is not
        payload = bytes(size)
        path = tmp_path / "bomb.ldep"
        path.write_bytes(
            MAGIC + zlib.compress(payload, 9) + struct.pack("<I", zlib.crc32(payload))
        )
        assert path.stat().st_size < 64 * 1024
        with pytest.raises(error):
            read_pack(path)


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
