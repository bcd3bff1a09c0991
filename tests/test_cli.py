import io
import json

import pytest

import lde.cli
from lde.cli import main
from lde.pack import read_pack
from lde.evaluation import write_tagged_tsv
from lde.synth import corpus_lines, disjoint_pair, intra_sentences


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small end-to-end workspace: corpora, models, selectors, packs."""
    root = tmp_path_factory.mktemp("cli")
    lang_a, lang_b = disjoint_pair("aa", "bb", vocab_size=1500, loan_fraction=0.10, seed=23)
    corpora = {
        "aa": corpus_lines(lang_a, 2500, seed=24),
        "bb": corpus_lines(lang_b, 2500, seed=25),
    }
    models = root / "models"
    packs = root / "packs"
    models.mkdir()
    packs.mkdir()
    for code, lines in corpora.items():
        corpus_path = root / f"{code}.txt"
        corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([
            "train-ngram",
            "--corpus", str(corpus_path),
            "--lang", code,
            "--alpha", "0.5",
            "--alphabet-size", "26",
            "--out", str(models / f"{code}.json"),
        ]) == 0
    for code in corpora:
        assert main([
            "train-selector",
            "--models", str(models),
            "--lexicons", str(models),
            "--lang", code,
            "--positives", "1000",
            "--negatives", "1000",
            "--out", str(models / f"{code}.selector.json"),
        ]) == 0
    nouns = root / "nouns.txt"
    nouns.write_text("Quixario\n", encoding="utf-8")
    for code in corpora:
        assert main([
            "pack",
            "--model", str(models / f"{code}.json"),
            "--selector", str(models / f"{code}.selector.json"),
            "--lexicon", str(models / f"{code}.lex"),
            "--pronouns", str(nouns),
            "--out", str(packs / f"{code}.ldep"),
        ]) == 0
    return {
        "root": root,
        "models": models,
        "packs": packs,
        "langs": (lang_a, lang_b),
    }


def last_json(capsys):
    """Parse the JSON document printed by the most recent command."""
    out = capsys.readouterr().out
    return json.loads(out[out.index("{") :])


class TestTrainNgram:
    def test_stats_report(self, workspace, capsys, tmp_path):
        corpus = workspace["root"] / "aa.txt"
        assert main([
            "train-ngram", "--corpus", str(corpus), "--lang", "aa",
            "--out", str(tmp_path / "aa.json"),
        ]) == 0
        stats = last_json(capsys)
        assert stats["language"] == "aa"
        assert stats["heldout_perplexity"] > 1.0
        assert stats["alphabet_size"] >= 14
        assert (tmp_path / "aa.lex").exists()

    def test_three_synthetic_languages_train_with_finite_perplexity(
        self, workspace, capsys, tmp_path
    ):
        import math

        from lde.synth import LATIN, corpus_lines, make_language

        third = make_language("cc", LATIN, vocab_size=1200, seed=27)
        (tmp_path / "cc.txt").write_text(
            "\n".join(corpus_lines(third, 1500, seed=28)) + "\n", encoding="utf-8"
        )
        perplexities = []
        for code, corpus in (
            ("aa", workspace["root"] / "aa.txt"),
            ("bb", workspace["root"] / "bb.txt"),
            ("cc", tmp_path / "cc.txt"),
        ):
            assert main([
                "train-ngram", "--corpus", str(corpus), "--lang", code,
                "--out", str(tmp_path / f"{code}.json"),
            ]) == 0
            perplexities.append(last_json(capsys)["heldout_perplexity"])
        assert all(math.isfinite(p) and p > 1.0 for p in perplexities)

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        assert main([
            "train-ngram", "--corpus", str(tmp_path / "nope.txt"),
            "--lang", "aa", "--out", str(tmp_path / "x.json"),
        ]) == 2

    def test_empty_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("\n\n", encoding="utf-8")
        assert main([
            "train-ngram", "--corpus", str(corpus),
            "--lang", "aa", "--out", str(tmp_path / "x.json"),
        ]) == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["train-ngram", "--lang", "aa"]) == 1


class TestTrainSelector:
    def test_report_fields(self, workspace, capsys, tmp_path):
        assert main([
            "train-selector",
            "--models", str(workspace["models"]),
            "--lexicons", str(workspace["models"]),
            "--lang", "bb",
            "--positives", "800", "--negatives", "800",
            "--out", str(tmp_path / "bb.selector.json"),
        ]) == 0
        report = last_json(capsys)
        assert report["w"] > 0
        assert "tau" in report and "b" in report
        saved = json.loads((tmp_path / "bb.selector.json").read_text())
        assert saved == report

    def test_swapped_lexicons_degenerate(self, workspace, tmp_path, capsys):
        # label inversion: target trained against its own foreign lexicon
        swapped = tmp_path / "swapped"
        swapped.mkdir()
        models = workspace["models"]
        (swapped / "aa.lex").write_text((models / "bb.lex").read_text(), encoding="utf-8")
        (swapped / "bb.lex").write_text((models / "aa.lex").read_text(), encoding="utf-8")
        code = main([
            "train-selector",
            "--models", str(models),
            "--lexicons", str(swapped),
            "--lang", "aa",
            "--positives", "800", "--negatives", "800",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "degenerate" in capsys.readouterr().err

    def test_bad_lexicon_line_is_data_error(self, workspace, tmp_path, capsys):
        # the same reader as `lde pack`: a count must be an integer
        lexicons = tmp_path / "lexicons"
        lexicons.mkdir()
        models = workspace["models"]
        (lexicons / "aa.lex").write_text((models / "aa.lex").read_text(), encoding="utf-8")
        (lexicons / "bb.lex").write_text("emhf\tmany\n", encoding="utf-8")
        code = main([
            "train-selector",
            "--models", str(models),
            "--lexicons", str(lexicons),
            "--lang", "aa",
            "--positives", "800", "--negatives", "800",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "bad lexicon line" in capsys.readouterr().err


class TestPack:
    def test_size_report(self, workspace, capsys, tmp_path):
        models = workspace["models"]
        assert main([
            "pack",
            "--model", str(models / "aa.json"),
            "--selector", str(models / "aa.selector.json"),
            "--lexicon", str(models / "aa.lex"),
            "--out", str(tmp_path / "aa.ldep"),
        ]) == 0
        report = last_json(capsys)
        assert report["compressed_bytes"] < report["uncompressed_bytes"]
        assert report["table_compressed_bytes"] < report["table_uncompressed_bytes"]

    def test_corrupt_model_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        models = workspace["models"]
        assert main([
            "pack",
            "--model", str(bad),
            "--selector", str(models / "aa.selector.json"),
            "--lexicon", str(models / "aa.lex"),
            "--out", str(tmp_path / "x.ldep"),
        ]) == 2

    def test_selector_language_mismatch(self, workspace, tmp_path, capsys):
        models = workspace["models"]
        assert main([
            "pack",
            "--model", str(models / "aa.json"),
            "--selector", str(models / "bb.selector.json"),
            "--lexicon", str(models / "aa.lex"),
            "--out", str(tmp_path / "x.ldep"),
        ]) == 2

    def test_out_of_range_weight_is_data_error(self, workspace, tmp_path, capsys):
        lexicon = tmp_path / "aa.lex"
        lexicon.write_text("abc\t-1\n", encoding="utf-8")
        models = workspace["models"]
        assert main([
            "pack",
            "--model", str(models / "aa.json"),
            "--selector", str(models / "aa.selector.json"),
            "--lexicon", str(lexicon),
            "--out", str(tmp_path / "x.ldep"),
        ]) == 2
        assert "'abc'" in capsys.readouterr().err


class TestDetect:
    def test_batch_detection(self, workspace, capsys, tmp_path):
        lang_a, lang_b = workspace["langs"]
        lines = [
            " ".join(lang_a.vocabulary[i] for i in (0, 2, 4)),
            " ".join(lang_b.vocabulary[i] for i in (1, 3, 5)),
            "",
        ]
        lines.append(lines[0])  # repeat -> cache hit
        input_path = tmp_path / "input.txt"
        input_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([
            "detect",
            "--packs", str(workspace["packs"]),
            "--langs", "aa,bb",
            "--input", str(input_path),
        ]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [r[1] for r in rows] == ["aa", "bb", "bb", "aa"]
        assert rows[2][3] == "fallback"  # empty line keeps session language
        assert rows[3][3] == "cache_hit"

    def test_trailing_foreign_word_switches(self, workspace, capsys, tmp_path):
        # mostly language aa, trailing bb word: recency makes bb win
        lang_a, lang_b = workspace["langs"]
        text = " ".join(lang_a.vocabulary[:3]) + " " + lang_b.vocabulary[0]
        input_path = tmp_path / "switch.txt"
        input_path.write_text(text + "\n", encoding="utf-8")
        assert main([
            "detect", "--packs", str(workspace["packs"]),
            "--langs", "aa,bb", "--input", str(input_path), "--r", "0.35",
        ]) == 0
        row = capsys.readouterr().out.strip().split("\t")
        assert row[1] == "bb"

    def test_interactive_session(self, workspace, capsys, monkeypatch):
        lang_a, lang_b = workspace["langs"]
        feed = io.StringIO(
            f"{lang_a.vocabulary[0]} {lang_a.vocabulary[1]}\n:reset\n:quit\n"
        )
        monkeypatch.setattr("sys.stdin", feed)
        assert main([
            "detect", "--packs", str(workspace["packs"]),
            "--langs", "aa,bb", "--interactive",
        ]) == 0
        out = capsys.readouterr().out
        assert "loaded: aa, bb" in out
        assert "session reset" in out

    def test_missing_pack(self, workspace, capsys):
        assert main([
            "detect", "--packs", str(workspace["packs"]), "--langs", "aa,zz",
        ]) == 2


@pytest.fixture(scope="module")
def testset(workspace, tmp_path_factory):
    lang_a, lang_b = workspace["langs"]
    sentences = intra_sentences(lang_a, lang_b, 120, seed=26)
    path = tmp_path_factory.mktemp("eval") / "testset.tsv"
    write_tagged_tsv(sentences, path)
    return path


class TestEval:
    def test_intra_with_gate_passes(self, workspace, testset, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--packs", str(workspace["packs"]),
            "--testset", str(testset), "--mode", "intra",
            "--report", str(report_path), "--min-f1", "0.8",
        ]) == 0
        summary = last_json(capsys)
        report = json.loads(report_path.read_text())
        assert summary["macro_f1"] == report["macro_f1"]
        assert report["macro_f1"] >= 0.8
        assert 0 < report["code_switch_rate"] < 100

    def test_gate_failure_exit_code(self, workspace, testset, capsys, tmp_path):
        assert main([
            "eval", "--packs", str(workspace["packs"]),
            "--testset", str(testset), "--mode", "intra",
            "--report", str(tmp_path / "r.json"), "--min-f1", "0.9999",
        ]) == 3
        assert "gate failure" in capsys.readouterr().err

    def test_inter_mode_on_intra_file(self, workspace, testset, capsys, tmp_path):
        assert main([
            "eval", "--packs", str(workspace["packs"]),
            "--testset", str(testset), "--mode", "inter",
            "--report", str(tmp_path / "r.json"),
        ]) == 0
        assert last_json(capsys)["mode"] == "inter"

    def test_malformed_testset(self, workspace, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("oops\n", encoding="utf-8")
        assert main([
            "eval", "--packs", str(workspace["packs"]),
            "--testset", str(bad), "--mode", "intra",
            "--report", str(tmp_path / "r.json"),
        ]) == 2
        assert "bad.tsv:1" in capsys.readouterr().err


class TestBench:
    def test_bench_report(self, workspace, capsys, tmp_path):
        lang_a, lang_b = workspace["langs"]
        contexts = tmp_path / "contexts.txt"
        rows = [
            f"{lang_a.vocabulary[i]} {lang_a.vocabulary[i + 1]}" for i in range(60)
        ] + [f"{lang_b.vocabulary[i]} {lang_b.vocabulary[i + 1]}" for i in range(60)]
        contexts.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main([
            "bench", "--packs", str(workspace["packs"]),
            "--contexts", str(contexts), "--iters", "300",
        ]) == 0
        report = last_json(capsys)
        assert report["iters"] == 300
        assert report["mean_us"] > 0
        assert report["p50_us"] <= report["p99_us"]
        assert set(report["pack_bytes"]) == {"aa", "bb"}


def test_eval_and_bench_read_each_pack_once(workspace, testset, monkeypatch, capsys, tmp_path):
    reads = []

    def counting_read_pack(path):
        reads.append(path)
        return read_pack(path)

    monkeypatch.setattr(lde.cli, "read_pack", counting_read_pack)
    contexts = tmp_path / "contexts.txt"
    contexts.write_text(" ".join(workspace["langs"][0].vocabulary[:2]) + "\n", encoding="utf-8")
    packs_dir = str(workspace["packs"])
    packs = sorted(workspace["packs"].glob("*.ldep"))
    assert len(packs) == 2
    for argv in (
        ["eval", "--packs", packs_dir, "--testset", str(testset), "--mode", "intra",
         "--report", str(tmp_path / "r.json")],
        ["bench", "--packs", packs_dir, "--contexts", str(contexts), "--iters", "10"],
    ):
        reads.clear()
        assert main(argv) == 0
        assert sorted(reads) == packs


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_train_and_pack_are_idempotent(workspace, capsys, tmp_path):
    corpus = workspace["root"] / "aa.txt"
    outs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        out_dir.mkdir()
        assert main([
            "train-ngram", "--corpus", str(corpus), "--lang", "aa",
            "--out", str(out_dir / "aa.json"),
        ]) == 0
        assert main([
            "pack",
            "--model", str(out_dir / "aa.json"),
            "--selector", str(workspace["models"] / "aa.selector.json"),
            "--lexicon", str(out_dir / "aa.lex"),
            "--out", str(out_dir / "aa.ldep"),
        ]) == 0
        outs.append(out_dir)
    for name in ("aa.json", "aa.lex", "aa.ldep"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
