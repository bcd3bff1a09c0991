import math

import numpy as np
import pytest

from lde import (
    LOG_HALF,
    SelectorParams,
    Threshold,
    adjusted_log_prob,
    build_alphabet,
    build_training_set,
    reduce_parameters,
    select_language,
    train_selector,
    train_trigram,
)
from lde.selector import negative_quotas
from lde.synth import LATIN, corpus_lines, make_language
from lde.trie import word_frequencies

from conftest import model_from_probs
from lde.ngram import Alphabet


class TestNegativeQuotas:
    def test_five_languages_even_split(self):
        langs = ["en", "es", "fr", "de", "it"]
        quotas = negative_quotas(langs, "en", 100_000)
        assert quotas == {"es": 25_000, "fr": 25_000, "de": 25_000, "it": 25_000}

    def test_tiny_even_split(self):
        assert negative_quotas(["a", "b", "c"], "a", 2) == {"b": 1, "c": 1}

    def test_two_languages_degenerate_split(self):
        assert negative_quotas(["a", "b"], "a", 7) == {"b": 7}

    def test_remainder_goes_to_earlier_languages(self):
        assert negative_quotas(["a", "b", "c", "d"], "a", 8) == {"b": 3, "c": 3, "d": 2}

    def test_single_language_rejected(self):
        with pytest.raises(ValueError):
            negative_quotas(["a"], "a", 10)


class TestBuildTrainingSet:
    @pytest.fixture()
    def toy_setup(self):
        alphabet = Alphabet(tuple(" abcd"))
        model = model_from_probs(alphabet, 0.2, language="aa")
        lexicons = {
            "aa": ["aba", "bab", "abab", "baba"],
            "bb": ["cdc", "dcd", "cdcd"],
            "cc": ["dd", "cc", "dc"],
        }
        models = {code: model for code in lexicons}
        return lexicons, models

    def test_rows_shape_and_labels(self, toy_setup):
        lexicons, models = toy_setup
        rows = build_training_set(lexicons, models, "aa", 3, 4)
        assert len(rows) == 7
        assert [label for _, label in rows] == [1, 1, 1, 0, 0, 0, 0]
        for feature, _ in rows:
            assert math.isfinite(feature)

    def test_features_use_target_model(self, toy_setup):
        lexicons, models = toy_setup
        rows = build_training_set(lexicons, models, "aa", 2, 2)
        expected = models["aa"].word_log_prob("aba")
        assert rows[0][0] == pytest.approx(expected, abs=1e-12)

    def test_insufficient_positives_names_language(self, toy_setup):
        lexicons, models = toy_setup
        with pytest.raises(ValueError, match="'aa'"):
            build_training_set(lexicons, models, "aa", 99, 2)

    def test_insufficient_negatives_names_language(self, toy_setup):
        lexicons, models = toy_setup
        with pytest.raises(ValueError, match="'bb'"):
            build_training_set(lexicons, models, "aa", 2, 50)

    def test_unknown_target(self, toy_setup):
        lexicons, models = toy_setup
        with pytest.raises(ValueError, match="unknown target"):
            build_training_set(lexicons, models, "zz", 1, 1)


class TestTrainSelector:
    def test_separable_toy_data(self):
        rows = [(-5.0, 1)] * 10 + [(-50.0, 1 - 1)] * 10
        params = train_selector(rows)
        assert params.weight > 0
        boundary = (LOG_HALF - params.bias) / params.weight
        assert -50.0 < boundary < -5.0
        for feature, label in rows:
            decided = params.weight * feature + params.bias >= LOG_HALF
            assert decided == bool(label)

    def test_degenerate_no_signal(self):
        rows = [(-10.0, 1)] * 5 + [(-10.0, 0)] * 5
        with pytest.raises(ValueError, match="selector degenerate"):
            train_selector(rows)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class"):
            train_selector([(-5.0, 1), (-6.0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_selector([])

    def test_determinism(self):
        rows = [(-4.0, 1), (-6.0, 1), (-30.0, 0), (-42.0, 0)]
        p1 = train_selector(rows)
        p2 = train_selector(rows)
        assert (p1.weight, p1.bias) == (p2.weight, p2.bias)

    def test_synthetic_held_out_accuracy(self):
        # two trained trigram models over distinct scripts, no loans
        lang_x = make_language("xx", LATIN[:13], 4000, seed=46, syllable_weights=(0, 55, 45, 0))
        lang_y = make_language("yy", LATIN[13:], 4000, seed=47, syllable_weights=(0, 55, 45, 0))
        corpora = {
            "xx": corpus_lines(lang_x, 6000, seed=48),
            "yy": corpus_lines(lang_y, 6000, seed=49),
        }
        models, word_lists = {}, {}
        for code, lines in corpora.items():
            alphabet = build_alphabet(lines, 26)
            models[code] = train_trigram(lines, alphabet, 0.5, language=code)
            word_lists[code] = [w for w, _ in word_frequencies(lines)]
        rows = build_training_set(word_lists, models, "xx", 2500, 2500)
        train_rows = [row for i, row in enumerate(rows) if i % 5 != 4]
        held_out = [row for i, row in enumerate(rows) if i % 5 == 4]
        params = train_selector(train_rows, language="xx")
        x = np.array([f for f, _ in held_out])
        y = np.array([label for _, label in held_out])
        accuracy = float(np.mean(((params.weight * x + params.bias) >= LOG_HALF) == y))
        assert params.weight > 0
        assert accuracy >= 0.95


class TestReduceParameters:
    def test_identity_weight(self):
        tau = reduce_parameters(SelectorParams("x", 1.0, 0.0)).tau
        assert tau == pytest.approx(0.0, abs=1e-15)

    def test_weight_two(self):
        tau = reduce_parameters(SelectorParams("x", 2.0, 0.0)).tau
        assert tau == pytest.approx(math.log(2) / 2, abs=1e-12)
        assert tau == pytest.approx(0.34657, abs=1e-5)

    def test_bias_log_two(self):
        tau = reduce_parameters(SelectorParams("x", 1.0, math.log(2))).tau
        assert tau == pytest.approx(-math.log(2), abs=1e-12)

    def test_non_positive_weight_rejected(self):
        for w in (0.0, -1.0):
            with pytest.raises(ValueError):
                reduce_parameters(SelectorParams("x", w, 0.0))

    def test_invertible_given_weight(self):
        params = SelectorParams("x", 1.7, -3.1)
        tau = reduce_parameters(params).tau
        recovered_b = (params.weight - 1.0) * math.log(2.0) - tau * params.weight
        assert recovered_b == pytest.approx(params.bias, abs=1e-12)


class TestAdjustedLogProb:
    def test_zero_threshold(self):
        assert adjusted_log_prob(-3.0, Threshold("x", 0.0)) == -3.0

    def test_subtraction(self):
        assert adjusted_log_prob(-3.0, Threshold("x", -1.0)) == -2.0

    def test_decision_equivalence_grid(self):
        # (emission - tau >= log 1/2) must agree with (w*emission + b >= log 1/2)
        for w in (0.05, 0.3, 1.0, 2.7, 10.0):
            for b in (-20.0, -1.0, 0.0, 1.0, 25.0):
                threshold = reduce_parameters(SelectorParams("x", w, b))
                for emission in np.linspace(-60.0, 0.0, 121):
                    reduced = adjusted_log_prob(emission, threshold) >= LOG_HALF
                    full = w * emission + b >= LOG_HALF
                    assert reduced == full

    def test_monotonic_in_emission(self):
        threshold = Threshold("x", -2.0)
        values = [adjusted_log_prob(e, threshold) for e in np.linspace(-30, 0, 50)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


class TestSelectLanguage:
    def test_only_one_passes(self):
        lang, passed = select_language({"EN": -0.2, "ES": -0.9}, "EN")
        assert (lang, passed) == ("EN", True)

    def test_none_pass_falls_back(self):
        lang, passed = select_language({"EN": -1.0, "ES": -0.9}, "EN")
        assert (lang, passed) == ("EN", False)

    def test_both_pass_max_wins(self):
        lang, passed = select_language({"EN": -0.3, "ES": -0.2}, "EN")
        assert (lang, passed) == ("ES", True)

    def test_tie_broken_by_registration_order(self):
        lang, passed = select_language({"ES": -0.2, "EN": -0.2}, "EN")
        assert (lang, passed) == ("ES", True)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            select_language({}, "EN")
