import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lde.ngram import strip_symbols
from lde.trie import (
    ANYWHERE,
    Trie,
    letter_triples,
    lexicon_from_lines,
    load_lexicon,
    load_word_list,
    save_lexicon,
    trie_from_pairs,
    word_frequencies,
)
from ldebench.oracle import levenshtein


class TestInsertContains:
    def test_insert_then_contains(self):
        trie = trie_from_pairs([("kal", 1)])
        assert "kal" in trie

    def test_prefix_is_not_terminal(self):
        trie = Trie({"kal": 1})
        assert "ka" not in trie

    def test_weight_accumulates(self):
        trie = trie_from_pairs([("kal", 1), ("kal", 1)])
        assert dict(trie.items())["kal"] == 2
        assert len(trie) == 1

    def test_empty_trie(self):
        assert "anything" not in Trie()
        assert list(Trie()) == []

    def test_exact_membership(self):
        trie = Trie({"paris": 1})
        assert "paris" in trie
        assert "pari" not in trie
        assert "parisx" not in trie

    def test_insert_empty_word(self):
        with pytest.raises(ValueError, match="empty word"):
            trie_from_pairs([("kal", 1), ("", 1)])

    def test_dunder_contains(self):
        trie = Trie({"kya": 1})
        assert "kya" in trie
        assert "kal" not in trie

    def test_unicode_round_trip(self):
        rng = random.Random(9)
        pool = "añüжç日ab"
        words = {"".join(rng.choices(pool, k=rng.randint(1, 8))) for _ in range(300)}
        trie = trie_from_pairs((word, 1) for word in words)
        assert all(w in trie for w in words)
        assert len(trie) == len(words)
        assert set(trie) == words
        assert [w for w, _ in sorted(trie.items())] == sorted(words)


class TestEdit1Candidates:
    def test_paper_scenario(self):
        trie = trie_from_pairs([("kal", 1), ("kya", 1)])
        assert [w for w, _ in trie.edit1_candidates("ksl")] == ["kal"]

    def test_distance_zero_included(self):
        trie = trie_from_pairs([("kal", 1)])
        assert [w for w, _ in trie.edit1_candidates("kal")] == ["kal"]

    def test_ordering_weight_then_lex(self):
        trie = trie_from_pairs([("cat", 5), ("cab", 9), ("car", 5), ("dog", 50)])
        got = trie.edit1_candidates("cat")
        assert got == [("cab", 9), ("car", 5), ("cat", 5)]

    def test_insertion_and_deletion_found(self):
        trie = trie_from_pairs([("kaal", 1), ("ka", 1), ("kal", 1)])
        words = {w for w, _ in trie.edit1_candidates("kal")}
        assert words == {"kaal", "ka", "kal"}

    def test_empty_query(self):
        with pytest.raises(ValueError):
            trie_from_pairs([("a", 1)]).edit1_candidates("")

    def test_brute_force_equivalence(self):
        rng = random.Random(31)
        letters = "abcdefg"
        foreign_letters = "xy\0"  # never in the lexicon; U+0000 is its boundary
        seen = set()
        for trial in range(30):
            words = {
                "".join(rng.choices(letters, k=rng.randint(1, 8)))
                for _ in range(rng.randint(20, 200))
            }
            trie = trie_from_pairs((word, rng.randint(1, 50)) for word in words)
            weights = dict(trie.items())
            for foreign in (0, 0, 1, 1, 2, 3):
                # a lexicon word or a random string, with `foreign` letters
                # from outside the lexicon substituted or inserted
                if rng.random() < 0.5:
                    query = list(rng.choice(sorted(words)))
                else:
                    query = rng.choices(letters, k=rng.randint(1, 9))
                for _ in range(foreign):
                    native = [i for i, ch in enumerate(query) if ch in letters]
                    if native and rng.random() < 0.5:
                        query[rng.choice(native)] = rng.choice(foreign_letters)
                    else:
                        query.insert(rng.randint(0, len(query)), rng.choice(foreign_letters))
                query = "".join(query)
                assert sum(ch in foreign_letters for ch in query) == foreign
                ranked = trie.edit1_candidates(query)
                expected = {w for w in words if levenshtein(query, w) <= 1}
                assert {w for w, _ in ranked} == expected
                seen.add((min(foreign, 2), bool(expected)))
                assert ranked == sorted(ranked, key=lambda it: (-it[1], it[0]))
                assert all(weights[w] == wt for w, wt in ranked)
        # hits and misses at 0 and 1 foreign letters, misses at 2+
        assert seen == {(0, True), (0, False), (1, True), (1, False), (2, False)}

    def test_probes_are_exactly_the_edit1_neighborhood(self):
        """Exact up to the triple prune: every probe is one edit from the
        query, and every lexicon word one edit away is probed."""
        letters = "abc"
        neighborhoods = {}
        for query in ("b", "ab", "cab", "x", "xa", "axb", "cabx", "xx", "axbx", "abcab",
                      "\0", "a\0b"):
            alphabet = sorted(set(letters) | set(query))
            neighborhoods[query] = {
                "".join(chars)
                for n in range(max(0, len(query) - 1), len(query) + 2)
                for chars in itertools.product(alphabet, repeat=n)
                if levenshtein(query, "".join(chars)) <= 1
            }
        rng = random.Random(12)
        for _ in range(20):
            words = {
                "".join(rng.choices(letters, k=rng.randint(1, 4)))
                for _ in range(rng.randint(1, 12))
            }
            trie = Trie(dict.fromkeys(words, 1))
            for query, neighborhood in neighborhoods.items():
                probes = set(trie.probes(query))
                assert probes <= neighborhood, query
                assert words & neighborhood <= probes, query

    def test_search_is_pruned(self, monkeypatch):
        # triples, with ^ for the boundary U+0000: ^ab ab^ ^bc bc^ ^ca ca^
        trie = trie_from_pairs([("ab", 1), ("bc", 1), ("ca", 1)])
        assert trie._boundary == "\0"
        assert trie._between == {
            "\0": {"b": "a", "c": "b", "a": "c"}, "a": {"\0": "b"}, "b": {"\0": "c"},
            "c": {"\0": "a"},
        }
        generated = []
        probes = Trie.probes

        def spy(trie, word, span=None):
            found = probes(trie, word, span)
            generated.append(sorted(found))
            return found

        monkeypatch.setattr(Trie, "probes", spy)
        assert trie.edit1_candidates("ab") == [("ab", 1)]
        assert trie.edit1_candidates("ba") == [("bc", 1), ("ca", 1)]
        assert trie.edit1_candidates("cab") == [("ab", 1), ("ca", 1)]
        assert trie.edit1_candidates("aab") == [("ab", 1)]
        assert trie.edit1_candidates("axb") == [("ab", 1)]
        # two foreign letters: no edit gives a word, and no probe is made
        assert trie.edit_span("xax") is trie.edit_span("axxb") is None
        assert trie.edit1_candidates("xax") == []
        assert trie.edit1_candidates("axxb") == []
        assert generated == [
            # no bad triple: the word, a for the a and b for the b (each the
            # word itself), both deletions, c+ab and ab+c; the full
            # neighbourhood over a, b, c has 18 strings
            ["a", "ab", "ab", "ab", "abc", "b", "cab"],
            # bad triples ^ba and ba^: c for b, c for a, both deletions,
            # nothing between b and a
            ["a", "b", "bc", "ca"],
            # bad triple cab: edits of c, a and b, and insertions around a
            ["ab", "ca", "cab", "cab", "cb"],
            # bad triples ^aa and aab: both deletions and c for the first a
            ["ab", "ab", "cab"],
            # a foreign letter spoils the three triples around it: its
            # deletion, and no letter lies between a and b
            ["ab"],
            [],
            [],
        ]

    def test_bad_triples_are_out_of_reach(self):
        # bad triples 0 and 3 are three apart: no edit replaces both
        trie = Trie({"abcd": 1, "bcda": 1})
        assert trie.edit_span("dbca") is None
        assert trie.probes("dbca") == []
        # bad triples one apart, at either end: deleting the x repairs both
        assert trie.edit_span("abcdb") == (3, 4)
        assert trie.edit1_candidates("abcdb") == [("abcd", 1)]
        assert trie.edit_span("bbcda") == (0, 1)
        assert trie.edit1_candidates("bbcda") == [("bcda", 1)]
        # a letter no word holds: the three triples around it
        assert trie.edit_span("abcdx") == (3, 5)
        assert trie.edit1_candidates("abcdx") == [("abcd", 1)]
        assert trie.edit_span("xbcda") == (-1, 1)
        assert trie.edit1_candidates("xbcda") == [("bcda", 1)]
        assert trie.edit_span("abcd") is ANYWHERE

    def test_a_one_letter_query_never_probes_the_empty_string(self):
        # deleting the only letter leaves no word, so it is never tried
        trie = Trie({"ab": 1, "b": 2})
        assert trie.probes("a") == ["b", "ab"]
        assert "" not in trie.probes("b")
        assert trie.edit1_candidates("a") == [("b", 2), ("ab", 1)]

    def test_letter_check_matches_brute_force(self, monkeypatch):
        """Queries holding 0, 1 or 2 foreign letters, a repeated one and
        non-ASCII ones, in a lexicon and in one built with a word that
        adds a letter."""
        lexicon = {"ab": 3, "béa": 2, "éé": 5, "aab": 1}
        probed = []
        probes = Trie.probes

        def spy(trie, word, span=None):
            found = probes(trie, word, span)
            probed.extend(found)
            return found

        monkeypatch.setattr(Trie, "probes", spy)

        def check(trie: Trie, query: str, foreign: str):
            before = len(probed)
            expected = sorted(
                ((w, wt) for w, wt in lexicon.items() if levenshtein(query, w) <= 1),
                key=lambda item: (-item[1], item[0]),
            )
            assert trie.edit1_candidates(query) == expected, query
            held = sum(ch in foreign for ch in query)
            assert (trie.edit_span(query) is None) == (held > 1), query
            if held > 1:
                assert len(probed) == before, query
            return expected

        queries = (
            "ab", "éé", "ba",  # no foreign letter
            "axb", "xé", "ßab", "bé\U0001d51e",  # one, some non-ASCII
            "xax", "aß\U0001d51e", "xß",  # two distinct
            "xx", "axxb", "ßß",  # one letter twice
        )
        trie = Trie(dict(lexicon))
        hits = [q for q in queries if check(trie, q, "xß\U0001d51e")]
        assert hits == list(queries[:7])
        # the letter table is derived from the triple index, so a lexicon
        # built with a word holding x knows that letter
        lexicon["axb"] = 4
        trie = Trie(dict(lexicon))
        assert check(trie, "axxb", "ß\U0001d51e") == [("axb", 4)]
        assert check(trie, "ßxb", "ß\U0001d51e") == [("axb", 4)]
        for query in queries:
            check(trie, query, "ß\U0001d51e")

    def test_triple_table_does_not_scale_with_code_points(self):
        words = ["\U0001d51e" * 3 + "b", "b\U0001d51e"]  # U+1D51E, past 1.1M
        tracemalloc.start()
        try:
            index = letter_triples(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index == reference_triples(words)
        assert peak < 100_000


class TestTripleIndex:
    def test_matches_the_loop_reference(self):
        rng = random.Random(5)
        for letters in ("ab", "abcdefg", "aéß\U0001d51e"):
            for _ in range(20):
                words = {
                    "".join(rng.choices(letters, k=rng.randint(1, 7)))
                    for _ in range(rng.randint(1, 60))
                }
                assert letter_triples(words) == reference_triples(words)
                boundary, letters, between = reference_triples(words)
                trie = Trie(dict.fromkeys(words, 1))
                assert (trie._boundary, trie._between) == (boundary, between)
                assert trie.edit_span(letters + "\0x") is None
                assert trie.edit_span(letters + "x") == (len(letters) - 1, len(letters) + 1)

    def test_a_lexicon_holding_the_boundary_moves_it(self):
        # U+0000 and U+0002 are letters here, so the boundary is U+0001
        words = ["a\0b", "\0", "\2a"]
        index = letter_triples(words)
        assert index[:2] == ("\1", "\0\2ab")
        assert index == reference_triples(words)
        trie = Trie(dict.fromkeys(words, 1))
        assert trie.edit_span("\0\2a\1") == (2, 4)
        for query, expected in (("ab", ["a\0b"]), ("\0\0", ["\0"]), ("a", ["\0", "\2a"]),
                                ("\1", ["\0"]), ("a\1b", ["a\0b"]), ("\2\1", ["\2a"])):
            assert [w for w, _ in trie.edit1_candidates(query)] == expected, query
            assert sorted(w for w in words if levenshtein(query, w) <= 1) == expected

    def test_many_letters_take_the_wide_branch(self):
        # 1,400 letters: 1,401 symbols cubed pass 2**31, so the triple ids
        # are 64-bit and found with np.unique instead of np.bincount
        letters = [chr(0x4E00 + i) for i in range(1400)]
        words = ["".join(letters[i : i + 3]) for i in range(0, 1400, 2)] + letters[-2:]
        assert letter_triples(words) == reference_triples(words)
        trie = Trie(dict.fromkeys(words, 1))
        query = letters[0] + letters[5] + letters[2]
        assert [w for w, _ in trie.edit1_candidates(query)] == [words[0]]


def reference_triples(words):
    """Loop reference for `letter_triples`."""
    letters = set("".join(words))
    boundary = next(ch for ch in map(chr, itertools.count()) if ch not in letters)
    between = {}
    for word in words:
        padded = boundary + word + boundary
        for i in range(1, len(padded) - 1):
            row = between.setdefault(padded[i - 1], {})
            row.setdefault(padded[i + 1], set()).add(padded[i])
    return boundary, "".join(sorted(letters)), {
        left: {right: "".join(sorted(found)) for right, found in row.items()}
        for left, row in between.items()
    }


_LETTERS = "abéß\U0001d51e"  # a, b, e-acute, sharp s, and a non-BMP letter
_WORDS = st.text(st.sampled_from(_LETTERS), min_size=1, max_size=6)


@settings(deadline=None, max_examples=300)
@given(
    lexicon=st.dictionaries(_WORDS, st.integers(1, 9), min_size=1, max_size=40),
    base=_WORDS,
    letter=st.sampled_from(_LETTERS + "x\0"),
    where=st.sampled_from(("start", "middle", "end")),
    substitute=st.booleans(),
    inserted=st.booleans(),
)
def test_search_matches_brute_force(lexicon, base, letter, where, substitute, inserted):
    """Queries edited at the start, middle or end, so their bad triples sit
    there, against every lexicon word within distance 1.  The edit may put
    in U+0000, the lexicon's boundary."""
    at = {"start": 0, "middle": len(base) // 2, "end": len(base)}[where]
    if substitute and at < len(base):
        query = base[:at] + letter + base[at + 1 :]
    else:
        query = base[:at] + letter + base[at:]
    if inserted:
        trie = trie_from_pairs(lexicon.items())
    else:
        trie = Trie(dict(lexicon))
    assert (trie._boundary, trie._between) == reference_triples(lexicon)[::2]
    expected = sorted(
        ((w, wt) for w, wt in lexicon.items() if levenshtein(query, w) <= 1),
        key=lambda item: (-item[1], item[0]),
    )
    assert trie.edit1_candidates(query) == expected
    if trie.edit_span(query) is None:
        assert expected == []


class TestLexiconFiles:
    def test_save_load_round_trip(self, tmp_path):
        trie = trie_from_pairs([("kal", 7), ("kya", 3), ("aaj", 3)])
        path = tmp_path / "hi.lex"
        save_lexicon(trie, path)
        loaded = load_lexicon(path)
        assert dict(loaded.items()) == dict(trie.items())

    def test_lexicon_file_order_is_frequency(self, tmp_path):
        path = tmp_path / "x.lex"
        save_lexicon(trie_from_pairs([("b", 1), ("a", 9)]), path)
        assert path.read_text().splitlines() == ["a\t9", "b\t1"]

    def test_bad_lexicon_line(self, tmp_path):
        path = tmp_path / "bad.lex"
        path.write_text("word-without-count\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.lex:1"):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "line", ["New York\t5", "hello!\t3", "route66\t2", "hi😀\t1", "Hello\t3"]
    )
    def test_lexicon_refuses_what_is_not_a_typed_word(self, tmp_path, line):
        # `strip_symbols` never gives such a word (it lowercases), so detection
        # could never look it up
        path = tmp_path / "x.lex"
        path.write_text(f"kal\t2\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="x.lex:2"):
            load_lexicon(path)

    def test_lexicon_keeps_marks(self, tmp_path):
        # lowercasing İ gives i and a combining dot, a word `strip_symbols` gives
        path = tmp_path / "x.lex"
        hindi = "\u0939\u093f\u0928\u094d\u0926\u0940"
        path.write_text(f"i\u0307zmir\t4\n{hindi}\t2\n", encoding="utf-8")
        assert load_lexicon(path) == {"i\u0307zmir": 4, hindi: 2}

    def test_lexicon_keeps_what_the_front_end_lowercases(self, tmp_path):
        # a final sigma, an eszett and a dotted i each stay as lowercasing left them
        typed = ("\u0130zmir", "\u03a3\u039f\u03a6\u039f\u03a3", "Stra\u00dfe")
        words = [strip_symbols(raw)[0] for raw in typed]
        assert words == ["i\u0307zmir", "\u03c3\u03bf\u03c6\u03bf\u03c2", "stra\u00dfe"]
        path = tmp_path / "x.lex"
        path.write_text("".join(f"{word}\t1\n" for word in words), encoding="utf-8")
        assert load_lexicon(path) == dict.fromkeys(words, 1)

    def test_word_list_case_insensitive(self, tmp_path):
        path = tmp_path / "nouns.txt"
        path.write_text("Paris\nDELHI\n", encoding="utf-8")
        assert load_word_list(path) == frozenset({"paris", "delhi"})

    def test_word_list_refuses_a_line_of_two_words(self, tmp_path):
        # read as two nouns, "New York" would make every trailing "new" a name
        path = tmp_path / "nouns.txt"
        path.write_text("Paris\nNew York\n", encoding="utf-8")
        with pytest.raises(ValueError, match="nouns.txt:2"):
            load_word_list(path)

    def test_word_list_skips_lines_with_no_word(self, tmp_path):
        path = tmp_path / "nouns.txt"
        path.write_text("Paris\n\n  \n2024 !!\n🎉 Delhi\n", encoding="utf-8")
        assert load_word_list(path) == frozenset({"paris", "delhi"})

    def test_load_lexicon_sums_repeats_and_refuses_empty_word(self, tmp_path):
        path = tmp_path / "x.lex"
        path.write_text("kal\t2\nkya\t1\nkal\t3\n", encoding="utf-8")
        assert dict(load_lexicon(path).items()) == {"kal": 5, "kya": 1}
        path.write_text("kal\t2\n\t3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="x.lex:2"):
            load_lexicon(path)

    @pytest.mark.parametrize("text, line", [
        ("kal\t2\nabc\t-3\n", 2),
        ("abc\t4294967295\nkal\t1\nabc\t1\n", 3),
    ], ids=["negative", "past-u32"])
    def test_lexicon_refuses_a_count_no_pack_holds(self, tmp_path, text, line):
        # a pack stores a u32 weight, and load_lexicon sums a word's counts
        path = tmp_path / "x.lex"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"x.lex:{line}: 'abc'"):
            load_lexicon(path)
        path.write_text("abc\t4294967294\nabc\t1\nkal\t0\n", encoding="utf-8")
        assert load_lexicon(path) == {"abc": 4294967295, "kal": 0}

    def test_word_frequencies_order(self):
        freqs = word_frequencies(["b a", "a c a"])
        assert freqs == [("a", 3), ("b", 1), ("c", 1)]

    def test_lexicon_from_lines_top_k(self):
        trie = lexicon_from_lines(["a a a b b c"], top_k=2)
        assert dict(trie.items()) == {"a": 3, "b": 2}
