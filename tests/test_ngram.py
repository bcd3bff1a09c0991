import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lde import (
    Threshold,
    build_alphabet,
    perplexity,
    read_pack,
    strip_symbols,
    train_trigram,
    word_frequencies,
)
from lde.ngram import (
    Alphabet,
    TrigramModel,
    context_log_probs,
    edit1_gain_bound,
    extended_log_probs,
    scoring_views,
    trigram_maxima,
)
from lde.pack import write_pack
from lde.trie import Trie

from conftest import entry, index_of, model_from_probs, one_edit, walk_log_prob


# letters (Latin, Greek, Devanagari, Tamil), marks, emoji with a skin tone
# and ZWJ, controls, digits, punctuation, spaces, and the letters whose
# lowercase is not one character mapped on its own
_LINES = st.text(
    st.sampled_from(
        [*"aZñÜяΣςİहिन्दीதமிழ்", "\u0301", "\ufe0f", "😀", "👍", "\U0001F3FD", "\u200d",
         "\x07", "\x00", *"17٣!?.'-", " ", "\t", "\u00a0", "€", "©"]
    ),
    max_size=30,
)


class TestStripSymbols:
    """The front end, `strip_symbols`, as training reads text."""

    def test_case_and_collapse(self):
        assert strip_symbols("Hello  WORLD") == ["hello", "world"]

    def test_digits_and_punctuation_removed(self):
        assert strip_symbols("a1b2!") == ["ab"]

    def test_unicode_lowercase(self):
        assert strip_symbols("Üben") == ["üben"]

    def test_accented_letters_survive(self):
        assert strip_symbols("ñandú") == ["ñandú"]

    def test_trim_and_inner_collapse(self):
        assert strip_symbols("  a\t\tb\nc  ") == ["a", "b", "c"]

    def test_foreign_script_left_intact(self):
        assert strip_symbols("abcде") == ["abcде"]

    def test_empty_output_allowed(self):
        assert strip_symbols("123 !!! 🎉") == []

    def test_idempotent(self):
        # on text without `İ`, whose lowercase holds a mark the next pass drops
        rng = random.Random(4)
        pool = "aAbB çÑ12!? \t.émoji:яЖ😀\u0301"
        for _ in range(200):
            raw = "".join(rng.choices(pool, k=rng.randint(0, 30)))
            once = strip_symbols(raw)
            assert strip_symbols(" ".join(once)) == once

    @settings(deadline=None)
    @given(line=_LINES)
    @example("हिन्दी में தமிழ்")
    @example("hola😀amigo İzmir ΟΔΟΣ")
    def test_training_reads_the_words_detection_reads(self, line):
        words = strip_symbols(line)
        assert dict(word_frequencies([line])) == Counter(words)
        letters = {ch for word in words for ch in word}
        if letters:
            assert set(build_alphabet([line], max_symbols=100).symbols[1:]) == letters
        else:
            with pytest.raises(ValueError, match="empty corpus"):
                build_alphabet([line])


class TestAlphabet:
    def test_whitespace_pinned_first(self):
        with pytest.raises(ValueError):
            Alphabet(("a", " ", "b"))

    def test_whitespace_only_once(self):
        with pytest.raises(ValueError):
            Alphabet((" ", "a", " "))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet((" ", "a", "a"))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Alphabet((" ",))

    def test_oov_index_past_symbols(self):
        alphabet = Alphabet((" ", "a", "b"))
        assert alphabet.oov == 3
        assert alphabet.size == 4


class TestBuildAlphabet:
    def test_two_letter_corpus(self):
        assert build_alphabet(["ab ab"]).symbols == (" ", "a", "b")

    def test_accents_are_ordinary_symbols(self):
        alphabet = build_alphabet(["ñandú"])
        assert "ñ" in alphabet.symbols
        assert "ú" in alphabet.symbols

    def test_top_k_by_frequency_oracle(self):
        # 40 distinct letters with distinct frequencies; cap at 26
        letters = [chr(ord("a") + i) for i in range(26)] + [
            chr(0x3B1 + i) for i in range(14)  # greek
        ]
        corpus = []
        for rank, ch in enumerate(letters):
            corpus.append(" ".join([ch * 3] * (40 - rank)))
        alphabet = build_alphabet(corpus, max_symbols=26)

        counts = Counter()
        for line in corpus:
            counts.update(ch for word in strip_symbols(line) for ch in word)
        expected = sorted(counts, key=lambda c: (-counts[c], c))[:26]
        assert list(alphabet.symbols[1:]) == expected
        assert len(alphabet.symbols) == 27

    def test_frequency_tie_broken_by_codepoint(self):
        alphabet = build_alphabet(["ba"], max_symbols=26)
        assert alphabet.symbols == (" ", "a", "b")

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_alphabet(["", "123", "  "])


class TestTrainTrigram:
    def test_hand_count_example(self, toy_alphabet):
        model = train_trigram(["ab ab"], toy_alphabet, 1.0)
        a, b = index_of(toy_alphabet, "a"), index_of(toy_alphabet, "b")
        # counting sequence is " ab ab": trigram ( ,a,b) twice, (a,b, ) once,
        # (b, ,a) once; space-bigram ( ->a) twice at the (space,space) row
        assert math.exp(entry(model, 0, 0, a)) == pytest.approx(3 / 6, abs=1e-12)
        assert math.exp(entry(model, 0, a, b)) == pytest.approx(3 / 6, abs=1e-12)
        assert math.exp(entry(model, a, b, 0)) == pytest.approx(2 / 5, abs=1e-12)
        assert math.exp(entry(model, b, 0, a)) == pytest.approx(2 / 5, abs=1e-12)

    def test_unseen_trigram_smoothing_floor(self, toy_alphabet):
        model = train_trigram(["ab ab"], toy_alphabet, 1.0)
        v = toy_alphabet.size
        # unseen context row: every conditional is 1/V
        assert entry(model, 2, 2, 1) == pytest.approx(math.log(1 / v), abs=1e-12)

    def test_dominant_count_is_row_max(self, toy_alphabet):
        model = train_trigram(["aaaa"], toy_alphabet, 0.5)
        a = index_of(toy_alphabet, "a")
        row = [entry(model, a, a, z) for z in range(toy_alphabet.size)]
        assert entry(model, a, a, a) == max(row)

    def test_rows_sum_to_one(self, toy_alphabet):
        model = train_trigram(["ab ab", "aba b", "bb aa"], toy_alphabet, 0.5)
        v = toy_alphabet.size
        for ctx in range(v * v):
            total = sum(math.exp(model.table[ctx * v + z]) for z in range(v))
            assert abs(total - 1.0) <= 1e-9

    def test_smoothing_floor_bound(self, toy_alphabet):
        alpha = 0.5
        lines = ["ab ab", "ba ab"]
        model = train_trigram(lines, toy_alphabet, alpha)
        v = toy_alphabet.size
        # oracle count of the busiest context row
        counts = Counter()
        for line in lines:
            seq = ""
            for word in line.split():
                seq += " " + word
            for i in range(len(seq) - 2):
                counts[seq[i : i + 2]] += 1
            for i, ch in enumerate(seq):
                if ch == " ":
                    counts["  "] += 1
        floor = alpha / (max(counts.values()) + alpha * v)
        assert min(math.exp(p) for p in model.table) >= floor > 0
        assert all(math.isfinite(p) for p in model.table)

    def test_oov_characters_counted(self, toy_alphabet):
        model = train_trigram(["az az"], toy_alphabet, 1.0)
        oov = toy_alphabet.oov
        a = index_of(toy_alphabet, "a")
        # (space,a,oov) seen twice
        assert math.exp(entry(model, 0, a, oov)) == pytest.approx(3 / 6, abs=1e-12)

    def test_determinism_bit_identical(self, toy_alphabet):
        lines = ["ab ab", "ba baa", "ab bb"]
        t1 = train_trigram(lines, toy_alphabet, 0.5).table
        t2 = train_trigram(lines, toy_alphabet, 0.5).table
        assert t1 == t2

    def test_empty_corpus(self, toy_alphabet):
        with pytest.raises(ValueError, match="empty corpus"):
            train_trigram(["", "  ", "1!"], toy_alphabet, 0.5)

    def test_bad_alpha(self, toy_alphabet):
        with pytest.raises(ValueError):
            train_trigram(["ab"], toy_alphabet, 0.0)


class TestWordLogProb:
    def test_uniform_table(self, toy_alphabet):
        model = model_from_probs(toy_alphabet, 1 / 3)
        assert model.word_log_prob("ab") == pytest.approx(2 * math.log(1 / 3), abs=1e-12)

    def test_single_character_word(self, toy_alphabet):
        model = model_from_probs(toy_alphabet, 1 / 3)
        assert model.word_log_prob("a") == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_trained_product_oracle(self, toy_alphabet):
        model = train_trigram(["ab ab"], toy_alphabet, 1.0)
        a, b = index_of(toy_alphabet, "a"), index_of(toy_alphabet, "b")
        expected = entry(model, 0, 0, a) + entry(model, 0, a, b)
        assert model.word_log_prob("ab") == pytest.approx(expected, abs=1e-12)

    def test_oov_char_uses_oov_index(self, toy_alphabet):
        model = train_trigram(["ab ab"], toy_alphabet, 1.0)
        oov = toy_alphabet.oov
        a = index_of(toy_alphabet, "a")
        expected = entry(model, 0, 0, a) + entry(model, 0, a, oov)
        assert model.word_log_prob("az") == pytest.approx(expected, abs=1e-12)

    def test_empty_token(self, toy_alphabet):
        model = model_from_probs(toy_alphabet, 1 / 3)
        with pytest.raises(ValueError, match="empty token"):
            model.word_log_prob("")


class TestSequenceLogProb:
    def test_r_one_is_plain_sum(self, toy_alphabet):
        model = model_from_probs(toy_alphabet, 1 / 3)
        w1, w2 = "ab", "ba"
        expected = model.word_log_prob(w1) + model.word_log_prob(w2)
        assert model.sequence_log_prob([w1, w2], 1.0) == pytest.approx(expected, abs=1e-12)

    def test_r_half_two_words(self, toy_alphabet):
        model = model_from_probs(toy_alphabet, 1 / 3)
        w1, w2 = "ab", "ba"
        expected = 0.5 * model.word_log_prob(w1) + model.word_log_prob(w2)
        assert model.sequence_log_prob([w1, w2], 0.5) == pytest.approx(expected, abs=1e-12)

    def test_three_word_exponents(self, toy_alphabet):
        model = train_trigram(["ab ab", "ba bb"], toy_alphabet, 0.5)
        words = ["ab", "ba", "bb"]
        l1, l2, l3 = (model.word_log_prob(w) for w in words)
        expected = 0.25 * l1 + 0.5 * l2 + l3
        assert model.sequence_log_prob(words, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_recency_linearity_finite_difference(self, toy_alphabet):
        model = train_trigram(["ab ab", "ba bb"], toy_alphabet, 0.5)
        words = ["ab", "ba"]
        h = 1e-6
        slope = (
            model.sequence_log_prob(words, 0.5 + h)
            - model.sequence_log_prob(words, 0.5 - h)
        ) / (2 * h)
        assert slope == pytest.approx(model.word_log_prob("ab"), rel=1e-6)

    def test_empty_sequence(self, toy_alphabet):
        model = model_from_probs(toy_alphabet, 1 / 3)
        with pytest.raises(ValueError, match="empty sequence"):
            model.sequence_log_prob([], 0.5)

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.5])
    def test_recency_factor_range(self, toy_alphabet, r):
        model = model_from_probs(toy_alphabet, 1 / 3)
        with pytest.raises(ValueError):
            model.sequence_log_prob(["ab"], r)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    words=st.lists(st.text(alphabet="abcé", min_size=1, max_size=8), min_size=1, max_size=6),
    r=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_methods_equal_the_table_walk(seed, words, r):
    """Both methods give the test-local walk's floats bit for bit, so the
    thresholds trained on `word_log_prob` stay what they were."""
    rng = random.Random(seed)
    alphabet = Alphabet((" ", "a", "b", "c"))  # é is out of the alphabet
    table = [math.log(rng.uniform(1e-3, 1.0)) for _ in range(alphabet.size**3)]
    model = TrigramModel(language="xx", alphabet=alphabet, table=table, alpha=0.5)
    assert model.sequence_log_prob(words, r) == walk_log_prob(model, words, r)
    for word in words:
        assert model.word_log_prob(word) == walk_log_prob(model, [word])


# letters the alphabets below draw from: U+0000, which the first always
# holds, and a non-BMP letter among them; and letters in no alphabet
SHARED = "abcdé𝔞"
NOWHERE = "zя𝔷"


@st.composite
def view_sets(draw):
    """1-3 models whose alphabets overlap or not, the first holding
    U+0000, with random tables; and 1-4 words of their letters and
    letters in no alphabet."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    models = []
    for k in range(draw(st.integers(1, 3))):
        letters = draw(st.lists(st.sampled_from(SHARED), min_size=1, max_size=4, unique=True))
        alphabet = Alphabet((" ", *(["\0"] if k == 0 else []), *letters))
        table = [math.log(rng.uniform(1e-3, 1.0)) for _ in range(alphabet.size**3)]
        models.append(TrigramModel(language=f"l{k}", alphabet=alphabet, table=table, alpha=0.5))
    word = st.text(st.sampled_from("\0" + SHARED + NOWHERE), min_size=1, max_size=6)
    return models, draw(st.lists(word, min_size=1, max_size=4))


def _flat_model(*letters):
    """A model over `letters` whose every table entry is 0."""
    alphabet = Alphabet((" ", *letters))
    return TrigramModel("xx", alphabet, [0.0] * alphabet.size**3, 0.5)


class TestScoringViews:
    @settings(max_examples=300, deadline=None)
    @given(case=view_sets(), r=st.floats(0.0, 1.0, exclude_min=True))
    def test_walks_equal_the_table_walk_of_each_model(self, case, r):
        """Scored together through one letter index, every model gives the
        floats of its own entry-by-entry walk: a letter outside its
        alphabet, in another or in none, reads its oov slot."""
        models, words = case
        views = scoring_views(models)
        n = len(words)
        heads, lasts = context_log_probs(views, words, [r ** (n - 1 - k) for k in range(n)])
        last = words[-1]
        # the last word's letters added one at a time to its first
        extended = context_log_probs(views, [last[0]], [1.0])[1]
        for end in range(2, len(last) + 1):
            extended = extended_log_probs(views, extended, last[:end])
        for model, head, lp, ext in zip(models, heads, lasts, extended):
            assert head + lp == walk_log_prob(model, words, r)
            assert lp == ext == walk_log_prob(model, [last])

    def test_the_stand_in_is_the_lowest_code_point_in_no_alphabet(self):
        assert {view[3] for view in scoring_views([_flat_model("a"), _flat_model("b")])} == {"\0"}
        views = scoring_views([_flat_model("\0", "\x01", "a"), _flat_model("b", "\x03")])
        assert {view[3] for view in views} == {"\x02"}
        # every view indexes the same letters, each at its own model's slot
        assert all(view[2].keys() == views[0][2].keys() for view in views)
        assert [view[2]["b"] for view in views] == [4, 1]
        assert [view[2]["\x02"] for view in views] == [4, 3]

    def test_views_of_one_side_share_one_shift_list(self):
        """Each alphabet size gets one shift list, shared by every view of
        that size, mapping a flat index i to i % (v * v) * v."""
        views = scoring_views([_flat_model(*"ab"), _flat_model(*"cd"), _flat_model(*"abcde"),
                               _flat_model(*"ce")])
        shifts = [view[4] for view in views]
        assert shifts[0] is shifts[1] is shifts[3]
        assert shifts[2] is not shifts[0] and shifts[2] != shifts[0]
        for _, v, _, _, shift in views:
            assert shift == [i % (v * v) * v for i in range(v**3)]


class TestTrailingWordDominance:
    def test_exact_crossover(self):
        alphabet = Alphabet((" ", "a", "b"))
        # model A favors word "aa", model B favors word "bb", asymmetric
        # margins so the crossover lands inside (0, 1)
        model_a = model_from_probs(
            alphabet,
            0.1,
            {(" ", " ", "a"): 0.4, (" ", "a", "a"): 0.5,
             (" ", " ", "b"): 0.15, (" ", "b", "b"): 0.15},
            language="A",
        )
        model_b = model_from_probs(
            alphabet,
            0.1,
            {(" ", " ", "b"): 0.4, (" ", "b", "b"): 0.5,
             (" ", " ", "a"): 0.2, (" ", "a", "a"): 0.5},
            language="B",
        )
        w1, w2 = "bb", "aa"  # leading word B-ish, trailing word A-ish
        a1, a2 = model_a.word_log_prob(w1), model_a.word_log_prob(w2)
        b1, b2 = model_b.word_log_prob(w1), model_b.word_log_prob(w2)
        assert a2 > b2 and b1 > a1
        r_star = (a2 - b2) / (b1 - a1)
        assert 0.0 < r_star < 1.0
        for r in (r_star * 0.9, r_star - 1e-9):
            assert model_a.sequence_log_prob([w1, w2], r) > model_b.sequence_log_prob(
                [w1, w2], r
            )
        for r in (min(1.0, r_star * 1.1), r_star + 1e-9):
            assert model_a.sequence_log_prob([w1, w2], r) < model_b.sequence_log_prob(
                [w1, w2], r
            )


def test_perplexity_finite(toy_alphabet):
    model = train_trigram(["ab ab", "ba bb"], toy_alphabet, 0.5)
    value = perplexity(model, ["ab ba"])
    assert math.isfinite(value)
    assert value > 1.0


def test_perplexity_empty_heldout(toy_alphabet):
    model = train_trigram(["ab ab"], toy_alphabet, 0.5)
    with pytest.raises(ValueError):
        perplexity(model, ["", "  "])


OUTSIDE = "z"  # in no alphabet below


@st.composite
def bound_cases(draw):
    """A model over a random alphabet with a random finite table, and a
    word of its letters and `OUTSIDE`."""
    letters = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=4, unique=True))
    alphabet = Alphabet((" ", *letters))
    v = alphabet.size
    # entries in [low, low + spread]: a narrow spread far below 0 makes a
    # deletion, which drops a term, the best edit
    low, spread = draw(st.floats(-30.0, 0.0)), draw(st.floats(0.0, 30.0))
    units = draw(st.lists(st.floats(0.0, 1.0), min_size=v**3, max_size=v**3))
    table = [low + spread * unit for unit in units]
    model = TrigramModel(language="xx", alphabet=alphabet, table=table, alpha=0.5)
    word = draw(st.text(st.sampled_from([*letters, OUTSIDE]), min_size=1, max_size=6))
    return model, word


class TestEdit1GainBound:
    @settings(max_examples=300, deadline=None)
    @given(case=bound_cases())
    def test_never_below_the_best_edit(self, case):
        model, word = case
        maxima = trigram_maxima(model.table, model.alphabet.size)
        bound = edit1_gain_bound(scoring_views((model,))[0], maxima, word)
        here = model.word_log_prob(word)
        # the substituted or inserted letter runs over every table slot:
        # the alphabet, whitespace included, and a letter outside it
        letters = "".join(model.alphabet.symbols) + OUTSIDE
        best = max(model.word_log_prob(s) - here for s in one_edit(word, letters))
        # both sides are float sums of a few terms of at most 30; they may
        # differ by rounding only
        assert bound >= best - 1e-12

    def test_a_deletion_counts_exactly(self, toy_alphabet):
        # every entry is -50 but that of "b" first: deleting the "a" of
        # "ab" gains 99, and no substitution or insertion can gain as much
        v = toy_alphabet.size
        table = [-50.0] * v**3
        table[index_of(toy_alphabet, "b")] = -1.0
        model = TrigramModel(language="xx", alphabet=toy_alphabet, table=table, alpha=0.5)
        maxima = trigram_maxima(table, v)
        gain = model.word_log_prob("b") - model.word_log_prob("ab")
        assert gain == 99.0
        assert edit1_gain_bound(scoring_views((model,))[0], maxima, "ab") == gain

    def test_read_pack_derives_the_maxima_of_its_table(self, toy_alphabet, tmp_path):
        lines = ["ab ba aab", "bab abba", "a b ab"]
        model = train_trigram(lines, toy_alphabet, language="xx")
        path = tmp_path / "xx.ldep"
        write_pack(model, Threshold("xx", -3.0), Trie({"ab": 1}), path)
        pack = read_pack(path)
        assert pack.maxima == trigram_maxima(pack.model.table, toy_alphabet.size)
