"""`tools/bench_pairs.py`'s summary and progress line, on synthetic pairs."""

import json
from pathlib import Path

from tools.bench_pairs import progress_line, summary

METRICS = [
    {"name": "detect_p50_us", "better": "lower", "bound": 0.25},
    {"name": "detect_per_s", "better": "higher", "bound": 0.25},
]


def pairs_of(parent: list[float], change: list[float], name="detect_p50_us") -> list[dict]:
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


PARENT = [10.0, 10.2, 10.4, 10.1, 10.3, 10.0, 10.2, 10.4, 10.1, 10.3]  # IQR 0.3


def test_a_gain_on_every_pair_beyond_the_spread_holds():
    row = summary(pairs_of(PARENT, [p - 1.0 for p in PARENT]), METRICS)["detect_p50_us"]
    assert (row["pairs"], row["change_wins"]) == (10, 10)
    assert row["parent"]["median"] == 10.2 and row["change"]["median"] == 10.2 - 1.0
    assert row["claim_holds"] and row["within_bound"]


def test_a_claim_needs_nine_wins_in_ten():
    # a large median gain, but the change lost two pairs
    change = [p - 1.0 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    row = summary(pairs_of(PARENT, change), METRICS)["detect_p50_us"]
    assert row["change_wins"] == 8
    assert not row["claim_holds"] and row["within_bound"]


def test_a_claim_needs_a_gain_beyond_the_parent_spread():
    # every pair won, by less than the parent's interquartile range
    row = summary(pairs_of(PARENT, [p - 0.1 for p in PARENT]), METRICS)["detect_p50_us"]
    assert row["change_wins"] == 10
    assert not row["claim_holds"] and row["within_bound"]


def test_the_bound_is_relative_and_in_the_worse_direction():
    per_s = [1000.0 + 10 * k for k in range(10)]

    def row(factor):
        pairs = pairs_of(per_s, [p * factor for p in per_s], name="detect_per_s")
        return summary(pairs, METRICS)["detect_per_s"]

    assert row(0.8)["within_bound"]  # 20% fewer calls a second
    assert not row(0.7)["within_bound"]  # 30% fewer
    assert row(1.5)["within_bound"] and row(1.5)["claim_holds"]
    assert not summary(pairs_of(PARENT, [p * 1.3 for p in PARENT]), METRICS)[
        "detect_p50_us"]["within_bound"]


def test_a_metric_missing_from_a_pair_is_left_out():
    pairs = pairs_of(PARENT, PARENT)
    del pairs[3]["change"]["detect_p50_us"]
    assert summary(pairs, METRICS) == {}


def test_neither_kind_of_pair_shows_a_null_progress_metric():
    # an untraced run reports the end-to-end metrics, a traced one the
    # per-layer metrics, as BENCHMARK.json lists them
    declared = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    for kind, traced in (("end_to_end", False), ("per_layer", True)):
        side = {metric["name"]: 1.0 for metric in declared[kind]}
        pair = {"seed": 1, "order": "parent first", "parent": side, "change": side}
        line = json.loads(progress_line(pair, traced))
        assert line["seed"] == 1 and line["order"] == "parent first"
        for shown in (line["parent"], line["change"]):
            assert shown and None not in shown.values(), (kind, shown)
