import copy
import random

from lde.ngram import strip_symbols
from lde.synth import (
    LATIN,
    SyntheticLanguage,
    corpus_lines,
    disjoint_pair,
    make_language,
    share_loans,
)

from conftest import inter_sentences, intra_sentences


def test_same_seed_same_language():
    a1 = make_language("aa", LATIN[:13], 500, seed=3)
    a2 = make_language("aa", LATIN[:13], 500, seed=3)
    assert a1.vocabulary == a2.vocabulary


def test_letters_disjoint_without_loans():
    a, b = disjoint_pair(loan_fraction=0.0, vocab_size=500, seed=4)
    letters_a = {ch for word in a.vocabulary for ch in word}
    letters_b = {ch for word in b.vocabulary for ch in word}
    assert letters_a.isdisjoint(letters_b)


def test_loan_share_of_vocabulary():
    a, b = disjoint_pair(loan_fraction=0.10, vocab_size=2000, seed=4)
    shared = set(a.vocabulary) & set(b.vocabulary)
    assert 0.08 <= len(shared) / len(a.vocabulary) <= 0.25


def _share_loans_one_by_one(a, b, fraction, seed):
    """`share_loans` as a loop that tests and inserts each loan in turn."""
    rng = random.Random(seed)
    for src, dst in ((a, b), (b, a)):
        k = int(len(src.vocabulary) * fraction)
        loans = rng.sample(src.vocabulary[len(src.vocabulary) // 3 :], k)
        insert_at = int(len(dst.vocabulary) * 0.9)
        for word in loans:
            if word not in dst.vocabulary:
                dst.vocabulary.insert(insert_at, word)
    for lang in (a, b):
        lang.weights = [1.0 / (i + 1) ** 1.05 for i in range(len(lang.vocabulary))]


def test_share_loans_matches_inserting_one_by_one():
    # one seed draws the same words first, so half of b's vocabulary is
    # a's, and many loans either way are already words of the other
    for seed in range(6):
        a = make_language("aa", "abcdefg", 300, seed=seed)
        b = make_language("bb", "abcdefg", 150, seed=seed)
        b.vocabulary += make_language("bb", "hijklmn", 150, seed=seed).vocabulary
        assert len(set(a.vocabulary) & set(b.vocabulary)) == 150
        expected = copy.deepcopy((a, b))
        _share_loans_one_by_one(*expected, fraction=0.3, seed=seed)
        share_loans(a, b, fraction=0.3, seed=seed)
        assert (a, b) == expected


def test_share_loans_skips_a_repeated_loan():
    words = ["ka", "ke", "ki", "ko", "ku", "ka", "ke", "ki", "ko", "ku"]
    a = SyntheticLanguage("aa", "keiou", words * 3, [1.0] * 30)
    b = SyntheticLanguage("bb", "mnpq", ["mn", "pq"] * 5, [1.0] * 10)
    expected = copy.deepcopy((a, b))
    _share_loans_one_by_one(*expected, fraction=0.5, seed=1)
    share_loans(a, b, fraction=0.5, seed=1)
    assert (a, b) == expected


def test_corpus_lines_are_normalized():
    a = make_language("aa", LATIN[:13], 500, seed=6)
    lines = corpus_lines(a, 50, seed=7)
    assert len(lines) == 50
    for line in lines:
        assert line == " ".join(strip_symbols(line))
        assert 3 <= len(line.split()) <= 9


def test_intra_sentences_tagged_with_run_language():
    a, b = disjoint_pair(loan_fraction=0.0, vocab_size=500, seed=8)
    vocab = {"aa": set(a.vocabulary), "bb": set(b.vocabulary)}
    sentences = intra_sentences(a, b, 20, seed=9)
    assert len(sentences) == 20
    for sentence in sentences:
        for word, gold in sentence.tokens:
            assert gold in ("aa", "bb")
            assert word in vocab[gold]


def test_inter_sentences_are_monolingual():
    a, b = disjoint_pair(loan_fraction=0.0, vocab_size=500, seed=10)
    for sentence in inter_sentences(a, b, 20, seed=11):
        labels = {gold for _, gold in sentence.tokens}
        assert len(labels) == 1
