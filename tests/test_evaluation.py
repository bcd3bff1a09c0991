import random

import pytest

from lde import (
    Engine,
    EngineConfig,
    TaggedSentence,
    code_switch_rate,
    eval_inter,
    eval_intra,
    read_tagged_tsv,
)
from lde.evaluation import majority_label
from lde.ngram import Alphabet

from conftest import model_from_probs, simple_pack, write_tagged_tsv

ALPHABET = Alphabet(tuple(" abmn"))


def letter_rule_engine():
    """Deterministic engine: a/b words are 'xx', m/n words are 'yy'.

    Margins are huge and r is small, so the trailing word always decides;
    predictions are knowable by eye when building gold labels.
    """
    model_x = model_from_probs(
        ALPHABET, 0.001,
        {(" ", " ", "a"): 0.6, (" ", "a", "b"): 0.6, ("a", "b", "a"): 0.6,
         ("b", "a", "b"): 0.6, (" ", " ", "b"): 0.3, (" ", "b", "a"): 0.6},
        language="xx",
    )
    model_y = model_from_probs(
        ALPHABET, 0.001,
        {(" ", " ", "m"): 0.6, (" ", "m", "n"): 0.6, ("m", "n", "m"): 0.6,
         ("n", "m", "n"): 0.6, (" ", " ", "n"): 0.3, (" ", "n", "m"): 0.6},
        language="yy",
    )
    packs = [
        simple_pack(model_x, tau=-8.0),
        simple_pack(model_y, tau=-8.0),
    ]
    return Engine(packs, EngineConfig(languages=("xx", "yy"), r=0.1))


def sentence(sid, *pairs):
    return TaggedSentence(id=sid, tokens=list(pairs))


class TestCodeSwitchRate:
    def test_monolingual_is_zero(self):
        sents = [sentence("s0", ("ab", "xx"), ("aba", "xx"), ("ab", "xx"))]
        assert code_switch_rate(sents) == 0.0

    def test_strict_alternation_is_hundred(self):
        sents = [sentence("s0", ("ab", "xx"), ("mn", "yy"), ("ab", "xx"), ("mn", "yy"))]
        assert code_switch_rate(sents) == 100.0

    def test_hand_count(self):
        # pairs: s0 has 2 (1 switch), s1 has 3 (2 switches): 3/5 = 60%
        sents = [
            sentence("s0", ("ab", "xx"), ("mn", "yy"), ("mnm", "yy")),
            sentence("s1", ("ab", "xx"), ("mn", "yy"), ("ab", "xx"), ("aba", "xx")),
        ]
        assert code_switch_rate(sents) == pytest.approx(60.0)

    def test_no_pairs(self):
        assert code_switch_rate([sentence("s0", ("ab", "xx"))]) == 0.0


class TestEvalIntra:
    def test_perfect_single_language(self):
        engine = letter_rule_engine()
        sents = [
            sentence("s0", ("ab", "xx"), ("aba", "xx"), ("abab", "xx")),
            sentence("s1", ("bab", "xx"), ("ab", "xx")),
        ]
        report = eval_intra(sents, engine)
        assert report.f1["xx"] == 1.0
        assert report.accuracy == 1.0
        assert report.total == 5

    def test_all_wrong_is_zero(self):
        engine = letter_rule_engine()
        # gold labels deliberately inverted against the letter rule
        sents = [sentence("s0", ("ab", "yy"), ("aba", "yy"), ("mn", "xx"))]
        report = eval_intra(sents, engine)
        assert report.f1["xx"] == 0.0
        assert report.f1["yy"] == 0.0
        assert report.accuracy == 0.0

    def test_hand_built_confusion_counts(self):
        engine = letter_rule_engine()
        # predictions by letter rule: token-by-token trailing-word language
        sents = [
            # predicted xx,yy,xx ; gold xx,yy,yy -> one yy token predicted xx
            sentence("s0", ("ab", "xx"), ("mn", "yy"), ("aba", "yy")),
            # predicted yy,yy ; gold yy,yy
            sentence("s1", ("mn", "yy"), ("mnm", "yy")),
            # predicted xx,xx ; gold xx,yy -> one yy token predicted xx
            sentence("s2", ("ab", "xx"), ("bab", "yy")),
        ]
        report = eval_intra(sents, engine)
        assert report.confusion == {
            "xx": {"xx": 2},
            "yy": {"yy": 3, "xx": 2},
        }
        # precision: xx 2/4, yy 3/3; recall: xx 2/2, yy 3/5
        assert report.precision["xx"] == pytest.approx(0.5)
        assert report.precision["yy"] == pytest.approx(1.0)
        assert report.recall["xx"] == pytest.approx(1.0)
        assert report.recall["yy"] == pytest.approx(0.6)
        f1_xx = 2 * 0.5 * 1.0 / 1.5
        f1_yy = 2 * 1.0 * 0.6 / 1.6
        assert report.f1["xx"] == pytest.approx(f1_xx, abs=1e-12)
        assert report.f1["yy"] == pytest.approx(f1_yy, abs=1e-12)
        assert report.macro_f1 == pytest.approx((f1_xx + f1_yy) / 2, abs=1e-12)

    def test_first_token_evaluated_with_one_token_context(self):
        engine = letter_rule_engine()
        report = eval_intra([sentence("s0", ("mn", "yy"))], engine)
        assert report.total == 1
        assert report.accuracy == 1.0

    def test_counts_conserved(self):
        engine = letter_rule_engine()
        sents = [
            sentence("s0", ("ab", "xx"), ("mn", "yy"), ("aba", "xx")),
            sentence("s1", ("mnm", "yy"), ("ab", "xx")),
        ]
        report = eval_intra(sents, engine)
        assert sum(sum(row.values()) for row in report.confusion.values()) == report.total

    def test_f1_is_harmonic_mean(self):
        engine = letter_rule_engine()
        sents = [
            sentence("s0", ("ab", "xx"), ("mn", "yy"), ("aba", "yy")),
            sentence("s1", ("mn", "yy"), ("ab", "xx")),
        ]
        report = eval_intra(sents, engine)
        for lang in report.f1:
            p, r = report.precision[lang], report.recall[lang]
            expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert abs(report.f1[lang] - expected) <= 1e-12

    def test_sentence_order_isolation(self):
        engine = letter_rule_engine()
        sents = [
            sentence("s0", ("ab", "xx"), ("mn", "yy"), ("aba", "xx")),
            sentence("s1", ("mnm", "yy"), ("ab", "xx"), ("mn", "yy")),
            sentence("s2", ("bab", "xx"), ("nm", "yy")),
        ]
        report_a = eval_intra(sents, engine)
        shuffled = sents[::-1]
        report_b = eval_intra(shuffled, engine)
        assert report_a.confusion == report_b.confusion
        assert report_a.macro_f1 == report_b.macro_f1

    def test_unknown_gold_label_rejected(self):
        engine = letter_rule_engine()
        with pytest.raises(ValueError, match="zz"):
            eval_intra([sentence("s0", ("ab", "zz"))], engine)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            eval_intra([], letter_rule_engine())


class TestEvalInter:
    def test_accuracy_nine_of_ten(self):
        engine = letter_rule_engine()
        sents = [
            sentence(f"s{i}", ("ab", "xx"), ("aba", "xx"), ("abab", "xx"))
            for i in range(9)
        ]
        # ten-th sentence: gold-majority yy but content is xx-lettered
        sents.append(sentence("s9", ("ab", "yy"), ("aba", "yy"), ("bab", "yy")))
        report = eval_inter(sents, engine)
        assert report.accuracy == pytest.approx(0.9)
        assert report.total == 10

    def test_fallback_always_yields_a_language(self):
        engine = letter_rule_engine()
        report = eval_inter([sentence("s0", ("zzz", "xx"))], engine)
        assert report.total == 1
        assert sum(sum(r.values()) for r in report.confusion.values()) == 1

    def test_metrics_match_confusion_recomputation(self):
        engine = letter_rule_engine()
        rng = random.Random(6)
        words = {"xx": ["ab", "aba", "bab"], "yy": ["mn", "mnm", "nmn"]}
        sents = []
        for i in range(40):
            gold = rng.choice(("xx", "yy"))
            toks = [(rng.choice(words[rng.choice(("xx", "yy"))]), gold) for _ in range(4)]
            sents.append(sentence(f"s{i}", *toks))
        report = eval_inter(sents, engine)
        for lang in report.f1:
            tp = report.confusion.get(lang, {}).get(lang, 0)
            gold_n = sum(report.confusion.get(lang, {}).values())
            pred_n = sum(row.get(lang, 0) for row in report.confusion.values())
            p = tp / pred_n if pred_n else 0.0
            r = tp / gold_n if gold_n else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert report.precision[lang] == pytest.approx(p, abs=1e-12)
            assert report.recall[lang] == pytest.approx(r, abs=1e-12)
            assert report.f1[lang] == pytest.approx(f1, abs=1e-12)

    def test_majority_label_tie_prefers_first_seen(self):
        tied = sentence("s0", ("mn", "yy"), ("ab", "xx"), ("mnm", "yy"), ("aba", "xx"))
        assert majority_label(tied) == "yy"

    def test_majority_label_plain(self):
        assert majority_label(sentence("s0", ("a", "xx"), ("b", "yy"), ("c", "yy"))) == "yy"


class TestTaggedTsv:
    def test_round_trip(self, tmp_path):
        sents = [
            sentence("s0", ("ab", "xx"), ("mn", "yy")),
            sentence("s1", ("aba", "xx")),
        ]
        path = tmp_path / "test.tsv"
        write_tagged_tsv(sents, path)
        assert read_tagged_tsv(path) == sents

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("s0\tab\txx\nbroken line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.tsv:2"):
            read_tagged_tsv(path)

    def test_id_change_without_blank_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("s0\tab\txx\ns1\tmn\tyy\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.tsv:2"):
            read_tagged_tsv(path)

    def test_trailing_sentence_without_blank(self, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text("s0\tab\txx\n\ns1\tmn\tyy\n", encoding="utf-8")
        sents = read_tagged_tsv(path)
        assert [s.id for s in sents] == ["s0", "s1"]
