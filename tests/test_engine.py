import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lde import Engine, EngineConfig, DetectionPath, LruCache, context_tokens, strip_symbols
from lde.ngram import Alphabet
from lde.synth import LATIN

from conftest import model_from_probs, simple_pack


class TestStripSymbols:
    def test_emoji_stripped(self):
        assert strip_symbols("see you 😂😂") == "see you"

    def test_all_symbol_input(self):
        assert strip_symbols("🎉") == ""

    def test_punctuation(self):
        assert strip_symbols("hola!!!") == "hola"

    def test_mixed_pictographs_and_text(self):
        assert strip_symbols("ok 👍🏽 Done ✅") == "ok done"

    def test_control_characters(self):
        assert strip_symbols("a\u200db\x07c") == "abc"


class TestContextTokens:
    @pytest.fixture()
    def config(self):
        return EngineConfig(languages=("aa",))

    def test_last_two(self, config):
        assert context_tokens("can we meet tomorrow", config) == ["meet", "tomorrow"]

    def test_short_tokens_extend_to_cap(self, config):
        # both trailing tokens are short, so the window grows to the cap
        assert context_tokens("kya aap to me", config) == ["kya", "aap", "to", "me"]

    def test_extension_stops_at_cap(self, config):
        # extension keeps prepending while short tokens remain, but never
        # selects more than max_context_extension tokens
        assert context_tokens("one more kya aap to me", config) == [
            "kya",
            "aap",
            "to",
            "me",
        ]

    def test_fewer_tokens_than_window(self, config):
        assert context_tokens("hi", config) == ["hi"]

    def test_empty_text(self, config):
        assert context_tokens("", config) == []

    def test_no_extension_for_long_tokens(self, config):
        assert context_tokens("alpha beta gamma", config) == ["beta", "gamma"]

    def test_custom_window(self):
        config = EngineConfig(languages=("aa",), context_window=3, max_context_extension=3)
        assert context_tokens("a1 b2 c3 d4", config) == ["b2", "c3", "d4"]


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig(languages=("aa", "bb"))
        assert config.r == 0.7
        assert config.context_window == 2
        assert config.short_token_len == 2
        assert config.max_context_extension == 4
        assert config.cache_capacity == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"languages": ()},
            {"languages": ("aa", "aa")},
            {"languages": ("aa",), "r": 0.0},
            {"languages": ("aa",), "r": 1.5},
            {"languages": ("aa",), "context_window": 0},
            {"languages": ("aa",), "max_context_extension": 1},
            {"languages": ("aa",), "cache_capacity": 0},
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
        engine = two_language_engine(cache_capacity=3)
        state = engine.new_state()
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
        for context in ("aba ab", "mnm mn", "abab", "a mnmn"):
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
    def rescue_engine(self, with_third=False):
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
            simple_pack(model_y, tau=-2.0, lexicon_words=("kal",)),
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

    def test_ambiguous_candidates_no_rescue(self):
        engine = self.rescue_engine(with_third=True)
        state = engine.new_state()
        detection = engine.detect("ksl", state)
        assert detection.path is DetectionPath.FALLBACK
        assert detection.corrected is None

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
        scores = engine.score_context(["abab"])
        expected = pack.model.word_log_prob("abab") - pack.tau
        assert scores["xx"] == pytest.approx(expected, abs=1e-12)

    def test_two_word_score_is_mass_normalized(self):
        engine = two_language_engine(r=0.5)
        pack = engine.packs["xx"]
        tokens = ["abab", "aba"]
        raw = pack.model.sequence_log_prob(tokens, 0.5)
        scores = engine.score_context(tokens)
        assert scores["xx"] == pytest.approx(raw / 1.5 - pack.tau, abs=1e-12)

    def test_repeated_word_context_scores_like_single(self):
        engine = two_language_engine()
        one = engine.score_context(["abab"])
        two = engine.score_context(["abab", "abab"])
        assert one["xx"] == pytest.approx(two["xx"], abs=1e-12)


# every letter any test pack knows, plus three no pack knows
_WORD = st.text(alphabet=LATIN + "éßж", min_size=1, max_size=10)
_TOKENS = st.lists(_WORD, min_size=1, max_size=4)
_RECENCY = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


def assert_scores_exact(engine, tokens, r):
    engine = Engine(list(engine.packs.values()), EngineConfig(languages=engine.languages, r=r))
    scores = engine.score_context(tokens)
    mass = sum(r ** k for k in range(len(tokens)))
    for lang, pack in engine.packs.items():
        assert scores[lang] == pack.model.sequence_log_prob(tokens, r) / mass - pack.tau


class TestExactScores:
    """The flat scoring loop gives the model methods' scores bit-for-bit."""

    @settings(deadline=None)
    @given(tokens=_TOKENS, r=_RECENCY)
    def test_bilingual(self, bilingual, tokens, r):
        assert_scores_exact(bilingual.engine, tokens, r)

    @settings(deadline=None)
    @given(tokens=_TOKENS, r=_RECENCY)
    def test_ten_packs(self, ten_pack_engine, tokens, r):
        assert_scores_exact(ten_pack_engine[0], tokens, r)
