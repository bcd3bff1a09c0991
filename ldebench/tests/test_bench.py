"""Generator determinism, path-mix invariants and oracle sensitivity.

Run from the repository root:  python3 -m pytest ldebench/tests
"""

from __future__ import annotations

import pytest

from lde import DetectionPath, Engine, EngineConfig, read_pack
from ldebench import WORKLOADS, oracle
from ldebench.bench import run
from ldebench.workloads import generate


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = generate(name, 7, tmp_path / "first")
    second = generate(name, 7, tmp_path / "second")
    assert first.languages == second.languages
    assert first.sessions == second.sessions
    for a, b in zip(first.pack_paths, second.pack_paths, strict=True):
        assert a.read_bytes() == b.read_bytes()
    other = generate(name, 8, tmp_path / "other")
    assert other.sessions != first.sessions


@pytest.fixture(scope="module")
def traced():
    return {name: run(name, 3, seconds=2.0, trace=True) for name in WORKLOADS}


def _metric(result, name: str) -> float:
    return result.metrics[name][0]


def _share(result, path: str) -> float:
    return _metric(result, f"engine.path_share.{path}")


def test_every_run_is_correct(traced):
    for name, result in traced.items():
        assert result.failed == 0, (name, result.failures)
        assert result.attempted > 0


def test_cold_10_bypasses_cache_and_rescue(traced):
    result = traced["cold-10"]
    assert _metric(result, "trie.edit1_calls_per_detect") == 0
    assert _metric(result, "engine.cache_hit_ratio") == 0
    assert _share(result, "cache_hit") == 0
    assert _share(result, "typo_rescue") == 0
    # tau = -15 leaves some two-word contexts below every threshold.  Such a
    # fallback call enters typo rescue only to find its whole lexicon word in
    # a lexicon, at most one lookup per pack, and stops before any edit-1
    # search or rescoring.  Every other lookup is the proper-noun check.
    assert _metric(result, "engine.score_context_per_detect") == 1
    lookups = _metric(result, "trie.contains_calls_per_detect")
    assert 1 <= lookups <= 1 + len(result.trace["packs"]) * _share(result, "fallback")


def test_typo_10_is_mostly_rescue(traced):
    result = traced["typo-10"]
    assert _share(result, "typo_rescue") + _share(result, "fallback") > 0.5
    assert result.metrics["trie.edit1_calls_per_detect"][0] > 1


def test_keystroke_2_takes_every_path(traced):
    result = traced["keystroke-2"]
    for path in DetectionPath:
        assert _share(result, path.value) > 0, path


def test_score_oracle_flags_a_perturbed_score(tmp_path):
    workload = generate("cold-10", 1, tmp_path)
    facts = {}
    for path in workload.pack_paths:
        pack = oracle.parse_pack(path.read_bytes())
        facts[pack.language] = pack
    engine = Engine(
        [read_pack(path) for path in workload.pack_paths],
        EngineConfig(languages=workload.languages),
    )
    checker = oracle.Checker(facts, engine.config)
    raw = next(
        text
        for [(text, _)] in workload.sessions
        if engine.detect(text, engine.new_state()).path is DetectionPath.NORMAL
    )
    scores = engine.detect(raw, engine.new_state()).scores
    tokens = checker.tokens(raw)
    assert checker.check_scores(tokens, scores) is None
    lang = next(iter(scores))
    perturbed = dict(scores, **{lang: scores[lang] + 1e-6})
    assert checker.check_scores(tokens, perturbed) is not None
