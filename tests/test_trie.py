import itertools
import random

import pytest

import lde.trie
from lde.trie import (
    Trie,
    edit1_probes,
    lexicon_from_lines,
    load_lexicon,
    load_word_list,
    save_lexicon,
    trie_from_pairs,
    word_frequencies,
)


def levenshtein(a: str, b: str) -> int:
    """Independent DP oracle: substitution, insertion, deletion, cost 1."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class TestInsertContains:
    def test_insert_then_contains(self):
        trie = Trie()
        trie.insert("kal")
        assert "kal" in trie

    def test_prefix_is_not_terminal(self):
        trie = Trie()
        trie.insert("kal")
        assert "ka" not in trie

    def test_weight_accumulates(self):
        trie = Trie()
        trie.insert("kal", 1)
        trie.insert("kal", 1)
        assert dict(trie.items())["kal"] == 2
        assert len(trie) == 1

    def test_empty_trie(self):
        assert "anything" not in Trie()

    def test_exact_membership(self):
        trie = Trie()
        trie.insert("paris")
        assert "paris" in trie
        assert "pari" not in trie
        assert "parisx" not in trie

    def test_insert_empty_word(self):
        with pytest.raises(ValueError, match="empty word"):
            Trie().insert("")

    def test_dunder_contains(self):
        trie = Trie()
        trie.insert("kya")
        assert "kya" in trie
        assert "kal" not in trie

    def test_unicode_round_trip(self):
        rng = random.Random(9)
        pool = "añüжç日ab"
        words = {"".join(rng.choices(pool, k=rng.randint(1, 8))) for _ in range(300)}
        trie = Trie()
        for word in words:
            trie.insert(word)
        assert all(w in trie for w in words)
        assert len(trie) == len(words)
        assert [w for w, _ in trie.items()] == sorted(words)


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

    def test_max_results_truncates(self):
        trie = trie_from_pairs([("aa", 1), ("ab", 2), ("ac", 3), ("ad", 4)])
        got = trie.edit1_candidates("ax", max_results=2)
        assert got == [("ad", 4), ("ac", 3)]

    def test_insertion_and_deletion_found(self):
        trie = trie_from_pairs([("kaal", 1), ("ka", 1), ("kal", 1)])
        words = {w for w, _ in trie.edit1_candidates("kal", max_results=10)}
        assert words == {"kaal", "ka", "kal"}

    def test_empty_query(self):
        with pytest.raises(ValueError):
            trie_from_pairs([("a", 1)]).edit1_candidates("")

    def test_brute_force_equivalence(self):
        rng = random.Random(31)
        letters = "abcdefg"
        foreign_letters = "xyz"  # never in the lexicon
        seen = set()
        for trial in range(30):
            words = {
                "".join(rng.choices(letters, k=rng.randint(1, 8)))
                for _ in range(rng.randint(20, 200))
            }
            trie = Trie()
            for word in words:
                trie.insert(word, rng.randint(1, 50))
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
                got = {w for w, _ in trie.edit1_candidates(query, max_results=10_000)}
                expected = {w for w in words if levenshtein(query, w) <= 1}
                assert got == expected
                seen.add((min(foreign, 2), bool(expected)))
                ranked = trie.edit1_candidates(query, max_results=10_000)
                assert ranked == sorted(ranked, key=lambda it: (-it[1], it[0]))
                assert all(weights[w] == wt for w, wt in ranked)
        # hits and misses at 0 and 1 foreign letters, misses at 2+
        assert seen == {(0, True), (0, False), (1, True), (1, False), (2, False)}

    def test_probes_are_exactly_the_edit1_neighborhood(self):
        letters = {"a", "b", "c"}
        for query in ("b", "ab", "cab", "x", "xa", "axb", "cabx", "xx", "axbx"):
            probes = edit1_probes(query, letters)
            expected = {
                "".join(chars)
                for n in range(max(0, len(query) - 1), len(query) + 2)
                for chars in itertools.product(sorted(letters), repeat=n)
                if levenshtein(query, "".join(chars)) <= 1
            }
            assert set(probes) == expected, query

    def test_search_is_pruned(self, monkeypatch):
        rng = random.Random(8)
        trie = Trie()
        for _ in range(5000):
            trie.insert("".join(rng.choices("abcdefghij", k=rng.randint(3, 9))))
        lookups = []

        def probes(word, letters):
            generated = edit1_probes(word, letters)
            lookups.append(len(generated))
            return generated

        monkeypatch.setattr(lde.trie, "edit1_probes", probes)
        # two or more letters the lexicon never uses: no lookup at all
        assert trie.edit1_candidates("zzzzzzzzzzzzzzzzzzzz") == []
        assert trie.edit1_candidates("abzcdz") == []
        assert lookups == [0, 0]
        for _ in range(100):
            word = "".join(rng.choices("abcdefghij", k=rng.randint(1, 12)))
            n = len(word)
            pos = rng.randint(0, n)
            trie.edit1_candidates(word)
            trie.edit1_candidates(word[:pos] + "z" + word[pos:])
            # the word, its deletions, substitutions and insertions; with one
            # foreign letter, only its deletion and substitutions
            assert lookups[-2:] == [1 + n + n * 10 + (n + 1) * 10, 1 + 10]


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

    def test_word_list_case_insensitive(self, tmp_path):
        path = tmp_path / "nouns.txt"
        path.write_text("Paris\nDELHI\n", encoding="utf-8")
        trie = load_word_list(path)
        assert "paris" in trie
        assert "delhi" in trie

    def test_word_frequencies_order(self):
        freqs = word_frequencies(["b a", "a c a"])
        assert freqs == [("a", 3), ("b", 1), ("c", 1)]

    def test_lexicon_from_lines_top_k(self):
        trie = lexicon_from_lines(["a a a b b c"], top_k=2)
        assert dict(trie.items()) == {"a": 3, "b": 2}
