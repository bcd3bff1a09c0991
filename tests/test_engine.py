import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lde.engine
import lde.ngram
from ldebench import oracle
from lde import (
    Engine,
    EngineConfig,
    DetectionPath,
    EngineState,
    LruCache,
    Threshold,
    TrigramModel,
    context_tokens,
    strip_symbols,
)
from lde.ngram import Alphabet
from lde.selector import LOG_HALF, select_language
from lde.synth import LATIN
from lde.trie import Trie

from conftest import (
    full_walk_scores,
    intra_sentences,
    make_pack,
    model_from_probs,
    one_edit,
    simple_pack,
    walk_log_prob,
)


# what a keyboard sends: U+0020-U+2FFF, emoji with skin tones and joiners,
# odd spaces, and the letters whose lowercase is not one character mapped
# on its own
_RAW = st.text(
    st.one_of(
        st.characters(min_codepoint=0x20, max_codepoint=0x2FFF),
        st.sampled_from(
            ["😂", "👍", "\U0001F3FD", "\U0001F468", "\u200d", "\u00a0", "\t", "Σ", "ς", "İ"]
        ),
    ),
    max_size=24,
)


class TestStripSymbols:
    def test_emoji_stripped(self):
        assert strip_symbols("see you 😂😂") == ["see", "you"]

    def test_all_symbol_input(self):
        assert strip_symbols("🎉") == []

    def test_punctuation(self):
        assert strip_symbols("hola!!!") == ["hola"]

    def test_mixed_pictographs_and_text(self):
        assert strip_symbols("ok 👍🏽 Done ✅") == ["ok", "done"]

    def test_control_characters(self):
        assert strip_symbols("a\u200db\x07c") == ["abc"]

    def test_word_final_sigma(self):
        # lowercasing the whole text makes a word-final capital sigma final
        assert strip_symbols("ΟΔΟΣ") == ["οδος"]
        assert strip_symbols("aΣ1b") == ["aςb"]

    @settings(deadline=None)
    @given(raw=_RAW)
    @example("ΟΔΟΣ")
    @example("aΣ1b")
    @example("İstanbul 👍🏽")
    def test_matches_the_two_pass_reference(self, raw):
        assert strip_symbols(raw) == oracle.normalise(raw).split()

    def test_deleted_characters_map_to_none(self):
        # `str.translate` leaves its fast path for a mapping to ""
        strip_symbols("it's 5 o'clock!")
        assert lde.ngram._FRONT_TABLE[ord("!")] is None
        assert lde.ngram._FRONT_TABLE[ord("5")] is None

    def test_ascii_path_matches_the_table(self):
        # ASCII text takes byte tables; they must keep `_FRONT_TABLE`'s rule
        for code in range(128):
            for raw in (chr(code), f"a{chr(code)}b", f"Ab{chr(code)}Cd"):
                expected = raw.translate(lde.ngram._FRONT_TABLE).split()
                assert strip_symbols(raw) == expected, hex(code)

    @given(raw=st.text(st.characters(max_codepoint=127), max_size=24))
    @example("a\x1cb\x1dc\x1ed\x1fe")  # `str.split` whitespace that `bytes.split` is not
    @example("It's 5 O'Clock!\t\x0bok\r\n")
    def test_ascii_text_matches_the_table(self, raw):
        assert raw.isascii()
        assert strip_symbols(raw) == raw.translate(lde.ngram._FRONT_TABLE).split()

    @pytest.mark.parametrize(
        "raw, words",
        [
            ("see you 😂😂", ["see", "you"]),
            ("İzmir", ["i\u0307zmir"]),
            ("ΟΔΟΣ ok", ["οδος", "ok"]),
            ("Naïve CAFÉ!", ["naïve", "café"]),
        ],
    )
    def test_non_ascii_text_keeps_its_words(self, raw, words):
        assert strip_symbols(raw) == words


class TestContextTokens:
    def test_last_two(self):
        assert context_tokens("can we meet tomorrow".split()) == ["meet", "tomorrow"]

    def test_short_tokens_extend_to_cap(self):
        # both trailing tokens are short, so the window grows to the cap
        assert context_tokens("kya aap to me".split()) == ["kya", "aap", "to", "me"]

    def test_extension_stops_at_cap(self):
        # extension keeps prepending while short tokens remain, but never
        # selects more than max_context_extension tokens
        assert context_tokens("one more kya aap to me".split()) == [
            "kya",
            "aap",
            "to",
            "me",
        ]

    def test_fewer_tokens_than_window(self):
        assert context_tokens(["hi"]) == ["hi"]

    def test_empty_text(self):
        assert context_tokens([]) == []

    def test_no_extension_for_long_tokens(self):
        assert context_tokens("alpha beta gamma".split()) == ["beta", "gamma"]

    @given(words=st.lists(st.text(alphabet="ab", min_size=1, max_size=5), max_size=8))
    def test_matches_the_reference(self, words):
        # the benchmark's checker reads the three sizes from an engine's config
        cfg = EngineConfig(languages=("aa",))
        assert context_tokens(words) == oracle.context(
            " ".join(words), cfg.context_window, cfg.short_token_len, cfg.max_context_extension
        )


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig(languages=("aa", "bb"))
        assert config.r == 0.7
        assert config.context_window == 2
        assert config.short_token_len == 2
        assert config.max_context_extension == 4
        assert two_language_engine().new_state().cache.capacity == 64

    def test_sizes_are_constants_not_fields(self):
        for name in ("context_window", "short_token_len", "max_context_extension",
                     "cache_capacity"):
            with pytest.raises(TypeError):
                EngineConfig(languages=("aa",), **{name: 8})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"languages": ()},
            {"languages": ("aa", "aa")},
            {"languages": "ab"},
            {"languages": ("aa",), "r": 0.0},
            {"languages": ("aa",), "r": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)


class TestLruCache:
    def test_put_get(self):
        cache = LruCache(2)
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.get("missing") is None

    def test_eviction_order(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert len(cache) == 2

    def test_get_promotes(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_overwrite_keeps_size(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2

    def test_overwrite_promotes(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)  # "a" is now the most recent, so "b" goes first
        cache.put("c", 4)
        assert cache.get("b") is None
        assert cache.get("a") == 3
        assert cache.keys() == ["c", "a"]


ALPHABET = Alphabet(tuple(" abcdeklmnorsz"))


def two_language_engine(**config_kwargs):
    """Engine where language X likes a/b words and Y likes m/n words."""
    model_x = model_from_probs(
        ALPHABET,
        0.01,
        {
            (" ", " ", "a"): 0.4, (" ", "a", "b"): 0.5, ("a", "b", "a"): 0.5,
            ("b", "a", "b"): 0.5, (" ", " ", "b"): 0.3, (" ", "b", "a"): 0.5,
        },
        language="xx",
    )
    model_y = model_from_probs(
        ALPHABET,
        0.01,
        {
            (" ", " ", "m"): 0.4, (" ", "m", "n"): 0.5, ("m", "n", "m"): 0.5,
            ("n", "m", "n"): 0.5, (" ", " ", "n"): 0.3, (" ", "n", "m"): 0.5,
        },
        language="yy",
    )
    pack_x = simple_pack(model_x, tau=-6.0, lexicon_words=("ab", "aba", "abab"))
    pack_y = simple_pack(model_y, tau=-6.0, lexicon_words=("mn", "mnm", "mnmn"))
    config = EngineConfig(languages=("xx", "yy"), **config_kwargs)
    return Engine([pack_x, pack_y], config)


class TestDetect:
    def test_empty_input_falls_back_to_current(self):
        engine = two_language_engine()
        state = engine.new_state()
        detection = engine.detect("", state)
        assert detection.language == "xx"
        assert detection.path is DetectionPath.FALLBACK
        assert detection.scores == {}
        assert state.current_language == "xx"

    def test_language_detected_by_content(self):
        engine = two_language_engine()
        state = engine.new_state()
        assert engine.detect("abab aba", state).language == "xx"
        assert engine.detect("mnmn mnm", state).language == "yy"

    def test_detection_updates_current_language(self):
        engine = two_language_engine()
        state = engine.new_state()
        engine.detect("mnmn mnm", state)
        assert state.current_language == "yy"
        assert engine.detect("", state).language == "yy"

    def test_cache_hit_on_repeat(self):
        engine = two_language_engine()
        state = engine.new_state()
        first = engine.detect("abab aba", state)
        second = engine.detect("abab aba", state)
        assert first.path is DetectionPath.NORMAL
        assert second.path is DetectionPath.CACHE_HIT
        assert second.language == first.language
        assert second.scores == first.scores

    def test_cache_hit_matches_a_fresh_state(self, bilingual):
        engine = bilingual.engine
        state = engine.new_state()
        first = engine.detect("gifhlzq", state)
        assert (first.language, first.path) == ("aa", DetectionPath.FALLBACK)
        fresh = engine.new_state()
        fresh.current_language = "bb"
        expected = engine.detect("gifhlzq", fresh)
        assert (expected.language, expected.path) == ("bb", DetectionPath.FALLBACK)
        # a fallback answer follows the current language, so it is not reused
        state.current_language = "bb"
        assert engine.detect("gifhlzq", state) == expected
        # a normal answer depends on the context alone and is reused
        normal = " ".join(bilingual.lang_a.vocabulary[:2])
        assert engine.detect(normal, state).path is DetectionPath.NORMAL
        state.current_language = "bb"
        assert engine.detect(normal, state).path is DetectionPath.CACHE_HIT

    def test_cache_keeps_the_computed_answer(self):
        engine = two_language_engine()
        state = engine.new_state()
        miss = engine.detect("abab aba", state)
        (entry,) = (state.cache.get(key) for key in state.cache.keys())
        assert entry[1] is miss
        hit = engine.detect("abab aba", state)
        assert (hit.language, hit.path, hit.corrected) == (
            miss.language, DetectionPath.CACHE_HIT, None
        )
        # a hit is a new detection around the very mapping the miss returned,
        # which the entry keeps for its later hits
        assert hit is not miss
        assert hit.scores is miss.scores
        assert engine.detect("abab aba", state) is hit

    def test_a_stored_fallback_is_refused_in_another_language(self):
        engine = two_language_engine()
        state = engine.new_state()
        first = engine.detect("zzzz zzzz", state)
        assert (first.language, first.path) == ("xx", DetectionPath.FALLBACK)
        state.current_language = "yy"
        again = engine.detect("zzzz zzzz", state)
        assert (again.language, again.path) == ("yy", DetectionPath.FALLBACK)
        assert again.scores is not first.scores
        # the entry now holds the answer computed in yy, reused in yy only
        hit = engine.detect("zzzz zzzz", state)
        assert (hit.language, hit.path) == ("yy", DetectionPath.CACHE_HIT)
        assert hit.scores is again.scores
        state.current_language = "xx"
        assert engine.detect("zzzz zzzz", state).path is DetectionPath.FALLBACK

    def test_second_call_reads_no_tables(self):
        # every score_context call reads every pack's table; a hit makes none
        engine = two_language_engine()
        state = engine.new_state()
        assert state.contexts_scored == 0
        engine.detect("abab aba", state)
        assert state.contexts_scored == 1
        engine.detect("abab aba", state)
        assert state.contexts_scored == 1

    def test_detection_scores_are_read_only(self):
        engine = two_language_engine()
        state = engine.new_state()
        first = engine.detect("abab aba", state)
        with pytest.raises(TypeError):
            first.scores["xx"] = 123.0
        hit = engine.detect("abab aba", state)
        assert hit.path is DetectionPath.CACHE_HIT
        with pytest.raises(TypeError):
            hit.scores["xx"] = 123.0
        assert hit.scores == engine.detect("abab aba", engine.new_state()).scores

    def test_lru_eviction_honors_capacity(self):
        engine = two_language_engine()
        state = EngineState(cache=LruCache(3), current_language="xx")
        contexts = ["abab", "aba ab", "abab ab", "ab aba", "abab aba"]
        for raw in contexts:
            engine.detect(raw, state)
        assert len(state.cache) == 3
        # oldest two evicted, so re-detecting them is not a cache hit
        assert engine.detect("abab", state).path is not DetectionPath.CACHE_HIT

    def test_fallback_when_nothing_passes(self):
        engine = two_language_engine()
        state = engine.new_state()
        detection = engine.detect("zzzz zzzz", state)
        assert detection.path is DetectionPath.FALLBACK
        assert detection.language == "xx"
        assert "xx" in detection.scores and "yy" in detection.scores

    def test_determinism_on_fresh_states(self):
        engine = two_language_engine()
        d1 = engine.detect("abab mnm", engine.new_state())
        d2 = engine.detect("abab mnm", engine.new_state())
        assert d1 == d2

    def test_no_packs_rejected(self):
        with pytest.raises(ValueError):
            Engine([], EngineConfig(languages=("xx",)))

    def test_missing_pack_for_language(self):
        engine = two_language_engine()
        with pytest.raises(ValueError, match="zz"):
            Engine(list(engine.packs.values()), EngineConfig(languages=("xx", "zz")))


class TestProperNounExclusion:
    def engine_with_nouns(self):
        model_x = model_from_probs(
            ALPHABET, 0.01,
            {(" ", " ", "a"): 0.4, (" ", "a", "b"): 0.5, ("a", "b", "a"): 0.5},
            language="xx",
        )
        model_y = model_from_probs(
            ALPHABET, 0.01,
            {(" ", " ", "m"): 0.4, (" ", "m", "n"): 0.5, ("m", "n", "m"): 0.5},
            language="yy",
        )
        pack_x = simple_pack(model_x, tau=-6.0, pronouns=("delma",))
        pack_y = simple_pack(model_y, tau=-6.0)
        return Engine([pack_x, pack_y], EngineConfig(languages=("xx", "yy")))

    def test_noun_inherits_context_language(self):
        engine = self.engine_with_nouns()
        for raw in ("mnm Delma", "mnm Delma delma"):
            detection = engine.detect(raw, engine.new_state())
            assert detection.path is DetectionPath.PROPER_NOUN
            assert detection.language == "yy"

    def test_noun_only_context_keeps_current(self):
        engine = self.engine_with_nouns()
        for raw in ("Delma", "Delma delma"):
            state = engine.new_state()
            detection = engine.detect(raw, state)
            assert detection.path is DetectionPath.PROPER_NOUN
            assert detection.language == "xx"
            assert len(state.cache) == 0

    def test_neutrality(self):
        engine = self.engine_with_nouns()
        # in the last three, short words before the name extend the context
        # past the window, in the last one up to its cap of four words
        for context in ("aba ab", "mnm mn", "abab", "a mnmn", "abab ab mn", "mnmn a ab",
                        "abab mn ab mn ab"):
            base = engine.detect(context, engine.new_state())
            with_noun = engine.detect(context + " delma", engine.new_state())
            assert with_noun.language == base.language

    def test_noun_shares_the_cache_entry_of_its_context(self):
        engine = self.engine_with_nouns()
        state = engine.new_state()
        engine.detect("mnm Delma", state)
        assert state.cache.keys() == ["mnm"]
        assert state.contexts_scored == 1

        state = engine.new_state()
        engine.detect("mnm", state)
        detection = engine.detect("mnm Delma", state)
        assert detection.path is DetectionPath.CACHE_HIT
        assert detection.language == "yy"

    def test_corrected_absent_outside_typo_rescue(self):
        engine = self.engine_with_nouns()
        state = engine.new_state()
        for raw in ("aba ab", "mnm Delma", ""):
            detection = engine.detect(raw, state)
            assert detection.corrected is None


class TestTypoRescue:
    def rescue_engine(self, with_third=False, yy_tau=-2.0, yy_words=("kal",)):
        """Current language xx; yy holds 'kal'; optional zz holds 'ksi'."""
        model_x = model_from_probs(
            ALPHABET, 0.05, {(" ", " ", "a"): 0.5, (" ", "a", "b"): 0.5}, language="xx"
        )
        model_y = model_from_probs(
            ALPHABET, 0.05,
            {(" ", " ", "k"): 0.5, (" ", "k", "a"): 0.5, ("k", "a", "l"): 0.5},
            language="yy",
        )
        packs = [
            simple_pack(model_x, tau=-2.0, lexicon_words=("ab",)),
            simple_pack(model_y, tau=yy_tau, lexicon_words=yy_words),
        ]
        languages = ["xx", "yy"]
        if with_third:
            model_z = model_from_probs(
                ALPHABET, 0.05,
                {(" ", " ", "k"): 0.5, (" ", "k", "s"): 0.5, ("k", "s", "i"): 0.5},
                language="zz",
            )
            packs.append(simple_pack(model_z, tau=-2.0, lexicon_words=("ksi",)))
            languages.append("zz")
        return Engine(packs, EngineConfig(languages=tuple(languages)))

    def test_unique_candidate_rescued(self):
        engine = self.rescue_engine()
        state = engine.new_state()
        detection = engine.detect("ksl", state)
        assert detection.path is DetectionPath.TYPO_RESCUE
        assert detection.language == "yy"
        assert detection.corrected == ("kal", "yy")
        assert state.current_language == "yy"

    def test_only_a_passing_rescue_scores_every_pack(self):
        # the rescued language's own check reads one table and is not a
        # full scoring; the scores a passing rescue carries are
        for yy_tau, path, scored in (
            (-2.0, DetectionPath.TYPO_RESCUE, 2),
            (50.0, DetectionPath.FALLBACK, 1),
        ):
            engine = self.rescue_engine(yy_tau=yy_tau)
            state = engine.new_state()
            assert engine.detect("ksl", state).path is path
            assert state.contexts_scored == scored

    def test_repeat_in_the_same_language_keeps_the_correction(self):
        # a cache hit carries no correction, so a rescue is not cached
        engine = self.rescue_engine()
        state = engine.new_state()
        rescued = engine.detect("ksl", state)
        assert engine.detect("ab", state).language == "xx"
        assert engine.detect("ksl", state) == rescued
        assert rescued.corrected == ("kal", "yy")

    def test_ambiguous_candidates_no_rescue(self):
        engine = self.rescue_engine(with_third=True)
        state = engine.new_state()
        detection = engine.detect("ksl", state)
        assert detection.path is DetectionPath.FALLBACK
        assert detection.corrected is None

    def test_search_stops_at_the_second_candidate_language(self, monkeypatch):
        model_x = model_from_probs(ALPHABET, 0.05, language="xx")
        packs = [simple_pack(model_x, tau=-2.0, lexicon_words=("ab",))]
        for lang, word in (("yy", "kal"), ("zz", "ksi"), ("ww", "ksa")):
            model = model_from_probs(ALPHABET, 0.05, language=lang)
            packs.append(simple_pack(model, tau=-2.0, lexicon_words=(word,)))
        engine = Engine(packs, EngineConfig(languages=("xx", "yy", "zz", "ww")))
        searched = []
        search = Trie.edit1_candidates

        def spy(trie, word, *args, **kwargs):
            searched.append(word)
            return search(trie, word, *args, **kwargs)

        monkeypatch.setattr(Trie, "edit1_candidates", spy)
        # yy and zz both offer a candidate, so ww is never searched
        detection = engine.detect("ksl", engine.new_state())
        assert detection.path is DetectionPath.FALLBACK
        assert searched == ["ksl", "ksl"]

    @pytest.mark.parametrize("yy_tau, path, searched", [
        (50.0, DetectionPath.FALLBACK, []),
        (-2.0, DetectionPath.TYPO_RESCUE, ["kall"]),
    ])
    def test_a_whole_lexicon_is_searched_only_if_its_threshold_is_reachable(
        self, monkeypatch, yy_tau, path, searched
    ):
        # yy's "kal" and "alll" hold every letter triple of "kall", so no
        # triple limits its search; with tau 50 no edit lifts yy to its
        # threshold
        engine = self.rescue_engine(yy_tau=yy_tau, yy_words=("kal", "alll"))
        calls = []
        search = Trie.edit1_candidates

        def spy(trie, word, *args, **kwargs):
            calls.append(word)
            return search(trie, word, *args, **kwargs)

        monkeypatch.setattr(Trie, "edit1_candidates", spy)
        detection = engine.detect("kall", engine.new_state())
        assert detection.path is path
        assert calls == searched

    def test_a_language_that_cannot_pass_still_blocks(self, monkeypatch):
        # zz's "kaa" and "aal" hold every letter triple of "kaal"; zz,
        # first, cannot pass and is passed over until yy's "kal" clears its
        # threshold, then searched: its candidates block the rescue
        engine = self.rescue_engine()
        model_z = model_from_probs(ALPHABET, 0.05, language="zz")
        xx, yy = engine.packs.values()
        zz = simple_pack(model_z, tau=50.0, lexicon_words=("kaa", "aal"))
        engine = Engine([xx, zz, yy], EngineConfig(languages=("xx", "zz", "yy")))
        searched = []
        search = Trie.edit1_candidates

        def spy(trie, word, *args, **kwargs):
            searched.append((trie, word))
            return search(trie, word, *args, **kwargs)

        monkeypatch.setattr(Trie, "edit1_candidates", spy)
        detection = engine.detect("kaal", engine.new_state())
        assert detection.path is DetectionPath.FALLBACK
        assert searched == [(yy.lexicon, "kaal"), (zz.lexicon, "kaal")]

    def test_a_ruled_out_language_waits_behind_a_candidate(self, monkeypatch):
        # yy's "kal" lacks the s of "ksl", so its search is limited and made
        # at once; zz holds every letter triple of "ksl" and cannot pass,
        # so its whole lexicon is searched only after yy's candidate
        # passes, which it does not
        model_x = model_from_probs(ALPHABET, 0.05, language="xx")
        packs = [simple_pack(model_x, tau=-2.0, lexicon_words=("ab",))]
        for lang, words in (("yy", ("kal",)), ("zz", ("ks", "aksl"))):
            model = model_from_probs(ALPHABET, 0.05, language=lang)
            packs.append(simple_pack(model, tau=50.0, lexicon_words=words))
        engine = Engine(packs, EngineConfig(languages=("xx", "yy", "zz")))
        yy_lexicon = engine.packs["yy"].lexicon
        searched = []
        search = Trie.edit1_candidates

        def spy(trie, word, *args, **kwargs):
            searched.append((trie, word))
            return search(trie, word, *args, **kwargs)

        monkeypatch.setattr(Trie, "edit1_candidates", spy)
        detection = engine.detect("ksl", engine.new_state())
        assert detection.path is DetectionPath.FALLBACK
        assert searched == [(yy_lexicon, "ksl")]

    @pytest.mark.parametrize("token, expected", [
        # yy's "kal" and "ll" hold every letter pair of "kall" but not its
        # triple (a, l, l): the search edits only there, so it is made at
        # once, even though yy cannot pass, and no bound is evaluated
        ("kall", ["kall"]),
        # "akall" also has bad triples at its first two letters, three
        # letters from (a, l, l): no one edit gives a word, so yy is skipped
        ("akall", []),
    ], ids=["near", "apart"])
    def test_a_bad_triple_is_searched_without_a_bound(self, monkeypatch, token, expected):
        engine = self.rescue_engine(yy_tau=50.0, yy_words=("kal", "ll"))
        bounded, searched = [], []
        bound, search = lde.engine.edit1_gain_bound, Trie.edit1_candidates

        def bound_spy(view, maxima, word):
            bounded.append(word)
            return bound(view, maxima, word)

        def search_spy(trie, word, *args, **kwargs):
            searched.append(word)
            return search(trie, word, *args, **kwargs)

        monkeypatch.setattr(lde.engine, "edit1_gain_bound", bound_spy)
        monkeypatch.setattr(Trie, "edit1_candidates", search_spy)
        detection = engine.detect(token, engine.new_state())
        assert detection.path is DetectionPath.FALLBACK
        assert (bounded, searched) == ([], expected)

    def screen_engine(self, extra=()):
        """Current language xx; yy holds "kal", zz "ksl" and ww "kql", each
        with the words of `extra` as well."""
        packs = []
        for lang, word in (("xx", "ab"), ("yy", "kal"), ("zz", "ksl"), ("ww", "kql")):
            model = model_from_probs(ALPHABET, 0.05, language=lang)
            packs.append(simple_pack(model, tau=-2.0, lexicon_words=(word, *extra)))
        return Engine(packs, EngineConfig(languages=("xx", "yy", "zz", "ww")))

    @pytest.mark.parametrize("extra, token, scanned", [
        # yy lacks the s and the q, zz the q alone, ww the s alone
        ((), "ksql", ["zz", "ww"]),
        # yy and ww lack the s twice, zz lacks no letter
        ((), "kssl", ["zz"]),
        # no lexicon holds the x: yy and ww lack it and the s, zz only it
        ((), "kslx", ["zz"]),
        # no lexicon holds the x, which is there twice
        ((), "kxxl", []),
        # every lexicon holds every letter of the token, so the screen
        # deletes the whole token and skips no lexicon
        *((("abklqsx",), token, ["yy", "zz", "ww"]) for token in ("ksql", "kssl", "kslx", "kxxl")),
    ])
    def test_a_lexicon_lacking_two_letters_is_never_scanned(
        self, monkeypatch, extra, token, scanned
    ):
        engine = self.screen_engine(extra)
        lang_of = {pack.lexicon: lang for lang, pack in engine.packs.items()}
        calls = []
        scan = Trie.edit_span

        def spy(trie, word):
            calls.append(lang_of[trie])
            return scan(trie, word)

        monkeypatch.setattr(Trie, "edit_span", spy)
        detection = engine.detect(token, engine.new_state())
        assert calls == scanned
        assert detection[:4] == tuple(reference_detect(engine, token)[1:5])

    def test_in_lexicon_token_not_rescued(self):
        engine = self.rescue_engine()
        state = engine.new_state()
        # "kal" is a valid yy word: the rescue must not fire even though
        # the context fails every threshold only when out-of-lexicon
        detection = engine.detect("zz kal", state)
        assert detection.path is not DetectionPath.TYPO_RESCUE

    def test_rescue_with_leading_context_words(self):
        # typo arrives after current-language words; the corrected context
        # must clear the candidate language's threshold including those words
        model_x = model_from_probs(
            ALPHABET, 0.05, {(" ", " ", "a"): 0.5, (" ", "a", "b"): 0.5}, language="xx"
        )
        model_y = model_from_probs(
            ALPHABET, 0.05,
            {(" ", " ", "k"): 0.5, (" ", "k", "a"): 0.5, ("k", "a", "l"): 0.5},
            language="yy",
        )
        engine = Engine(
            [
                simple_pack(model_x, tau=-2.0, lexicon_words=("ab",)),
                simple_pack(model_y, tau=-4.0, lexicon_words=("kal",)),
            ],
            EngineConfig(languages=("xx", "yy")),
        )
        state = engine.new_state()
        assert engine.detect("ab", state).language == "xx"
        detection = engine.detect("ab ksl", state)
        assert detection.path is DetectionPath.TYPO_RESCUE
        assert detection.corrected == ("kal", "yy")
        assert state.current_language == "yy"

    def test_rescue_requires_threshold_pass(self):
        # same shape, but yy's threshold is unreachable after correction
        model_x = model_from_probs(ALPHABET, 0.05, language="xx")
        model_y = model_from_probs(
            ALPHABET, 0.05,
            {(" ", " ", "k"): 0.5, (" ", "k", "a"): 0.5, ("k", "a", "l"): 0.5},
            language="yy",
        )
        engine = Engine(
            [
                simple_pack(model_x, tau=-2.0, lexicon_words=("ab",)),
                simple_pack(model_y, tau=50.0, lexicon_words=("kal",)),
            ],
            EngineConfig(languages=("xx", "yy")),
        )
        detection = engine.detect("ksl", engine.new_state())
        assert detection.path is DetectionPath.FALLBACK


def reference_detect(engine: Engine, text: str) -> tuple:
    """What `detect` answers on a fresh state, by the rule of re-scoring
    every pack for any unique candidate and then comparing: (outcome,
    language, scores, path, corrected, full scorings)."""
    current = engine.config.languages[0]
    tokens = context_tokens(text.split())
    scores = full_walk_scores(engine, tokens)
    language, passed = select_language(scores, current)
    if passed:
        return "normal", language, scores, DetectionPath.NORMAL, None, 1
    fallback = (language, scores, DetectionPath.FALLBACK, None, 1)
    last = tokens[-1]
    if any(last in pack.lexicon for pack in engine.packs.values()):
        return ("in lexicon", *fallback)
    offers = []
    for lang, pack in engine.packs.items():
        near = [(-wt, w) for w, wt in pack.lexicon.items() if oracle.levenshtein(last, w) <= 1]
        if near and lang != current:
            offers.append((lang, min(near)[1]))

    def rescored(word):
        return full_walk_scores(engine, [*tokens[:-1], word])

    def can_pass(lang):
        # some string one edit from the token, over the alphabet and a
        # letter outside it, lifts the language to its threshold
        letters = "".join(engine.packs[lang].model.alphabet.symbols) + "z"
        return any(rescored(s)[lang] >= LOG_HALF for s in one_edit(last, letters))

    if offers and not any(can_pass(lang) for lang in engine.languages if lang != current):
        return ("ruled out", *fallback)
    if len(offers) != 1:
        if any(rescored(word)[lang] >= LOG_HALF for lang, word in offers) and not all(
            can_pass(lang) for lang, _ in offers
        ):
            return ("blocked", *fallback)
        return ("two or more" if offers else "no candidate", *fallback)
    lang, word = offers[0]
    if rescored(word)[lang] < LOG_HALF:
        return ("failing rescue", *fallback)
    return "passing rescue", lang, rescored(word), DetectionPath.TYPO_RESCUE, (word, lang), 2


@st.composite
def rescue_cases(draw):
    """3-5 packs over random alphabets, lexicons and taus, and a context
    whose last token is one edit from words of 0, 1 or 2 non-current
    languages (more if their lexicons happen to hold such words).  Some
    tokens hold only letters that the lexicons they are near hold, so
    those searches are ones no letter limits; of two such lexicons, the
    first may belong to a language that never reaches its threshold.
    Others hold one or two of z and y, which no alphabet holds: a z twice,
    or a z and a y, so that every lexicon but one the typo is near lacks
    two letters of it.  In some cases every lexicon also holds a word of
    every letter, which no typo is near."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 5))
    letters = [rng.sample("abcdefgh", rng.randint(3, 6)) for _ in range(n)]
    lexicons = [
        {"".join(rng.choices(alpha, k=rng.randint(1, 5))): rng.randint(1, 5)
         for _ in range(rng.randint(2, 8))}
        for alpha in letters
    ]
    # language 0 is the current one; the typo mostly holds a z or a y,
    # which no alphabet holds, among letters of near[0], and is mostly
    # edited at one of them
    near = rng.sample(range(1, n), draw(st.integers(0, 2)))
    # no edit reaches a threshold of 30: of two languages a typo of their
    # letters is near, the first can then only block a rescue into the other
    blocker = min(near) if len(near) == 2 and rng.random() < 0.5 else None
    if blocker is not None or rng.random() < 0.3:
        # letters that every lexicon the typo is near holds, if any do
        holders = [set("".join(lexicons[i])) for i in near or [rng.randrange(1, n)]]
        held = set.intersection(*holders) or holders[-1]
        typo = rng.choices(sorted(held), k=rng.randint(1, 4))
    else:
        typo = rng.choices(letters[near[0]] if near else "abcdefgh", k=rng.randint(1, 4))
        for ch in rng.choices("zzy", k=rng.choice((0, 1, 1, 1, 2, 2))):
            typo.insert(rng.randint(0, len(typo)), ch)
    typo = "".join(typo)
    for i in near:
        foreign = [k for k, ch in enumerate(typo) if ch in "zy"]
        fix = foreign and rng.random() < 0.7
        at = rng.choice(foreign) if fix else rng.randrange(len(typo) + 1)
        edit = rng.choice(("sub", "ins", "del")) if at < len(typo) else "ins"
        ch = rng.choice(letters[i])
        word = {
            "sub": typo[:at] + ch + typo[at + 1 :],
            "ins": typo[:at] + ch + typo[at:],
            "del": typo[:at] + typo[at + 1 :],
        }[edit]
        if word:
            lexicons[i][word] = rng.randint(1, 5)
    if rng.random() < 0.15:  # the screen deletes every letter a typo holds
        for lexicon in lexicons:
            lexicon["abcdefghyz"] = 1
    packs = []
    for i, (alpha, lexicon) in enumerate(zip(letters, lexicons)):
        alphabet = Alphabet((" ", *alpha))
        # a letter outside the alphabet is rare, so a typo holding one
        # scores well below the word it is one edit from
        v = alphabet.size
        table = [rng.uniform(-9.0, -6.0) if k % v == v - 1 else rng.uniform(-3.0, -0.1)
                 for k in range(v**3)]
        model = TrigramModel(language=f"l{i}", alphabet=alphabet, table=table, alpha=0.5)
        tau = Threshold(model.language, 30.0 if i == blocker else draw(st.floats(-12.0, 0.0)))
        packs.append(make_pack(model, tau, Trie(lexicon)))
    lead = [rng.choice(list(rng.choice(lexicons))) for _ in range(draw(st.integers(0, 2)))]
    return packs, " ".join([*lead, typo])


def test_rescue_matches_the_rescore_everything_reference():
    outcomes = set()

    @settings(deadline=None, max_examples=500)
    @given(case=rescue_cases())
    def check(case):
        packs, text = case
        engine = Engine(packs, EngineConfig(languages=[p.language for p in packs]))
        state = engine.new_state()
        detection = engine.detect(text, state)
        outcome, *expected = reference_detect(engine, text)
        outcomes.add(outcome)
        language, scores, path, corrected, scored = expected
        assert (detection.language, detection.path, detection.corrected) == (
            language, path, corrected
        )
        assert dict(detection.scores) == scores
        assert state.contexts_scored == scored

    check()
    assert {"passing rescue", "failing rescue", "two or more", "ruled out", "blocked"} <= outcomes


class TestMonolingualSanity:
    def test_held_out_monolingual_contexts(self, bilingual):
        from lde.synth import corpus_lines

        engine = bilingual.engine
        correct = 0
        total = 0
        for lang in (bilingual.lang_a, bilingual.lang_b):
            for line in corpus_lines(lang, 200, seed=4242):
                detection = engine.detect(line, engine.new_state())
                correct += detection.language == lang.code
                total += 1
        assert correct / total >= 0.95


class TestNormalizedScoring:
    def test_single_word_score_matches_word_log_prob(self):
        engine = two_language_engine()
        pack = engine.packs["xx"]
        scores = full_walk_scores(engine, ["abab"])
        expected = pack.model.word_log_prob("abab") - pack.tau
        assert scores["xx"] == pytest.approx(expected, abs=1e-12)

    def test_two_word_score_is_mass_normalized(self):
        engine = two_language_engine(r=0.5)
        pack = engine.packs["xx"]
        tokens = ["abab", "aba"]
        raw = walk_log_prob(pack.model, tokens, 0.5)
        scores = full_walk_scores(engine, tokens)
        assert scores["xx"] == raw / 1.5 - pack.tau

    def test_repeated_word_context_scores_like_single(self):
        engine = two_language_engine()
        one = full_walk_scores(engine, ["abab"])
        two = full_walk_scores(engine, ["abab", "abab"])
        assert one["xx"] == pytest.approx(two["xx"], abs=1e-12)


# every letter any test pack knows, plus three no pack knows; contexts run
# past max_context_extension (4), which detect never selects
_WORD = st.text(alphabet=LATIN + "éßж", min_size=1, max_size=10)
_TOKENS = st.lists(_WORD, min_size=1, max_size=6)
_RECENCY = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


def assert_scores_exact(engine, tokens, r):
    engine = Engine(list(engine.packs.values()), EngineConfig(languages=engine.languages, r=r))
    scores = full_walk_scores(engine, tokens)
    mass = sum(r ** k for k in range(len(tokens)))
    for lang, pack in engine.packs.items():
        assert scores[lang] == walk_log_prob(pack.model, tokens, r) / mass - pack.tau


class TestExactScores:
    """The flat scoring loop gives a test-local table walk's scores bit-for-bit."""

    @settings(deadline=None)
    @given(tokens=_TOKENS, r=_RECENCY)
    def test_bilingual(self, bilingual, tokens, r):
        assert_scores_exact(bilingual.engine, tokens, r)

    @settings(deadline=None)
    @given(tokens=_TOKENS, r=_RECENCY)
    def test_ten_packs(self, ten_pack_engine, tokens, r):
        assert_scores_exact(ten_pack_engine[0], tokens, r)

    def test_empty_context_rejected(self, bilingual):
        with pytest.raises(ValueError):
            full_walk_scores(bilingual.engine, [])


class TestCacheContract:
    """A detect answers as a fresh state in the same language would."""

    def test_replayed_sessions_match_fresh_states(self, bilingual):
        nouns = ("quixario",)
        engine = Engine(
            [
                make_pack(bilingual.models[code], bilingual.thresholds[code],
                          bilingual.lexicons[code], nouns)
                for code in ("aa", "bb")
            ],
            EngineConfig(languages=("aa", "bb"), r=bilingual.r),
        )

        def new_state(language="aa"):
            return EngineState(cache=LruCache(8), current_language=language)

        paths = set()
        for sentence in intra_sentences(bilingual.lang_a, bilingual.lang_b, 300, seed=77):
            rng = random.Random(sentence.id)
            words = []
            for word, _ in sentence.tokens:
                if rng.random() < 0.15:  # one-letter substitution typo
                    at = rng.randrange(len(word))
                    word = word[:at] + rng.choice(LATIN) + word[at + 1 :]
                words.append(word)
                if rng.random() < 0.08:
                    words.append("Quixario")
            # every keystroke prefix, with backspaced stretches typed again
            full = " ".join(words)
            ends = []
            for end in range(1, len(full) + 1):
                ends.append(end)
                if rng.random() < 0.1:
                    ends.extend(range(end - 1, max(0, end - 8), -1))
                    ends.extend(range(max(1, end - 6), end + 1))
            state = new_state()
            for end in ends:
                fresh = new_state(state.current_language)
                expected = engine.detect(full[:end], fresh)
                got = engine.detect(full[:end], state)
                paths.add(got.path)
                assert (got.language, got.scores, got.corrected) == (
                    expected.language,
                    expected.scores,
                    expected.corrected,
                ), full[:end]
        assert paths == set(DetectionPath)


class _CountingTable(list):
    """A trigram table that counts its reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)


def fresh_state_scores(engine, text, detection, language):
    """What `score_context` in a fresh state gives the context `detect`
    scored for `text` in session language `language`: the corrected
    context after a rescue, and none when no word is left once trailing
    proper nouns are dropped."""
    words = strip_symbols(text)
    while words and words[-1] in engine.proper_nouns:
        words.pop()
    if not words:
        return {}
    tokens = context_tokens(words)
    corrected = detection.corrected
    if detection.path is DetectionPath.PROPER_NOUN:
        # a name's answer is that of the words before it, less any
        # correction, which a fresh state in the same language shows
        fresh = EngineState(cache=LruCache(1), current_language=language)
        corrected = engine.detect(" ".join(words), fresh).corrected
    if corrected:
        tokens[-1] = corrected[0]
    return full_walk_scores(engine, tokens)


class TestKeystrokeReuse:
    """A state keeps every pack's head and last of the context it scored
    last; a keystroke that adds a letter to that context's last word adds
    one term per pack, with the very floats a whole walk gives."""

    def test_sessions_score_as_stateless_calls(self, bilingual, monkeypatch):
        nouns = ("quixario",)
        packs = [
            make_pack(bilingual.models[code], bilingual.thresholds[code],
                      bilingual.lexicons[code], nouns)
            for code in ("aa", "bb")
        ]
        letters = sorted({ch for p in packs for ch in p.model.alphabet.symbols[1:]})
        short = sorted(
            w for lang in (bilingual.lang_a, bilingual.lang_b) for w in lang.vocabulary
            if len(w) <= 5
        )
        # known short words, some with one letter replaced (a typo that a
        # rescue may correct), words of 1-5 letters with one no alphabet
        # holds, and a proper noun
        typo = st.tuples(st.sampled_from(short), st.integers(0, 4), st.sampled_from(letters))
        word = st.one_of(
            st.sampled_from(short),
            typo.map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + 1 :]),
            st.text(alphabet=[*letters, "ж"], min_size=1, max_size=5),
            st.just("Quixario"),
        )
        extended = []
        real_extend = lde.engine.extended_log_probs
        monkeypatch.setattr(
            lde.engine, "extended_log_probs",
            lambda views, lasts, w: extended.append(w) or real_extend(views, lasts, w),
        )
        paths = set()

        @settings(deadline=None, max_examples=150)
        @given(words=st.lists(word, min_size=1, max_size=6), r=_RECENCY, data=st.data())
        def check(words, r, data):
            engine = Engine(packs, EngineConfig(languages=("aa", "bb"), r=r))
            full = " ".join(words)
            # after each keystroke, backspace 0-3 letters and type them again
            backs = data.draw(st.lists(st.sampled_from((0, 0, 0, 1, 3)),
                                       min_size=len(full), max_size=len(full)))
            texts = []
            for end, back in enumerate(backs, start=1):
                texts.append(full[:end])
                texts.extend(full[:k] for k in range(end - 1, max(end - back, 0) - 1, -1))
                texts.extend(full[:k] for k in range(max(end - back, 0) + 1, end + 1))
            state = engine.new_state()
            for text in texts:
                language = state.current_language
                detection = engine.detect(text, state)
                paths.add(detection.path)
                expected = fresh_state_scores(engine, text, detection, language)
                assert dict(detection.scores) == expected, text

        check()
        assert extended
        assert DetectionPath.TYPO_RESCUE in paths

    def test_a_state_moved_to_another_engine_gets_its_scores(self, bilingual):
        first = bilingual.engine
        second = Engine(bilingual.packs, EngineConfig(languages=first.languages, r=0.9))
        w1, w2 = [w for w in bilingual.lang_a.vocabulary if len(w) > 3][:2]
        state = first.new_state()
        first.detect(f"{w1} {w2[:-1]}", state)
        moved = second.detect(f"{w1} {w2}", state)
        assert moved.path is not DetectionPath.CACHE_HIT
        assert dict(moved.scores) == full_walk_scores(second, [w1, w2])
        # the engines' scores differ, so reusing the first's parts would show
        assert full_walk_scores(second, [w1, w2]) != full_walk_scores(first, [w1, w2])

    def test_full_walk_only_when_the_context_changes_shape(self, monkeypatch):
        base = two_language_engine()
        tables = []
        packs = []
        for pack in base.packs.values():
            model = pack.model
            tables.append(_CountingTable(model.table))
            counted = TrigramModel(model.language, model.alphabet, tables[-1], model.alpha)
            packs.append(make_pack(counted, Threshold(pack.language, pack.tau), pack.lexicon))
        engine = Engine(packs, base.config)

        def reads():
            return sum(table.reads for table in tables)

        walked, extended = [], []
        real_walk, real_extend = lde.engine.context_log_probs, lde.engine.extended_log_probs

        def walk(views, words, weights):
            walked.append(list(words))
            return real_walk(views, words, weights)

        def extend(views, lasts, word):
            before = reads()
            result = real_extend(views, lasts, word)
            extended.append((word, reads() - before))
            return result

        monkeypatch.setattr(lde.engine, "context_log_probs", walk)
        monkeypatch.setattr(lde.engine, "extended_log_probs", extend)
        state = engine.new_state()
        text = "abab mnmn abab"
        for end in range(1, len(text) + 1):
            engine.detect(text[:end], state)
        # a new word changes the context's shape, and so does "aba", which
        # is no longer short, so the context drops back to two words
        assert walked == [["a"], ["abab", "m"], ["abab", "mnmn", "a"], ["mnmn", "aba"]]
        # every other scored keystroke reads one table entry per pack
        assert extended == [
            (word, len(packs)) for word in ("ab", "aba", "abab", "mn", "mnm", "mnmn", "ab", "abab")
        ]
        assert state.contexts_scored == len(walked) + len(extended)

    def test_a_cache_hit_restores_the_parts_of_its_context(self, monkeypatch):
        engine = two_language_engine()
        calls = []
        real_walk, real_extend = lde.engine.context_log_probs, lde.engine.extended_log_probs
        monkeypatch.setattr(
            lde.engine, "context_log_probs",
            lambda views, words, weights: calls.append("walk") or real_walk(views, words, weights),
        )
        monkeypatch.setattr(
            lde.engine, "extended_log_probs",
            lambda views, lasts, word: calls.append("extend") or real_extend(views, lasts, word),
        )
        state = engine.new_state()
        for text in ("a", "ab", "abx"):
            engine.detect(text, state)
        # a backspace back to "ab" answers from the cache
        assert engine.detect("ab", state).path is DetectionPath.CACHE_HIT
        calls.clear()
        detection = engine.detect("abc", state)
        # "abc" extends "ab", the context just answered, not "abx"
        assert calls == ["extend"]
        assert dict(detection.scores) == full_walk_scores(engine, ["abc"])
