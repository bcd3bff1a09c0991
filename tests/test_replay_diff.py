"""`tools/replay_diff.py`'s comparison, on synthetic records, its refusal
of a checkout without its own `lde`, one replay of a checkout against
itself, and its work counts."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from collections import Counter

from lde import LruCache
from lde.ngram import Alphabet, TrigramModel, context_log_probs, extended_log_probs, scoring_views
from tools.replay_diff import (
    COUNTED,
    compare,
    count_lines,
    counting,
    each_call,
    extension_reads,
    length,
    replay,
    truthy,
    walk_reads,
)

ROOT = Path(__file__).resolve().parent.parent
PACKS = {"l0.ldep": "00ab", "l1.ldep": "11cd"}
CALLS = [
    ["a", "l0", "normal", None, {"l0": "0x1.0p-1", "l1": "-0x1.0p+0"}, 1, "l0"],
    ["ab", "l0", "cache_hit", None, {"l0": "0x1.0p-1", "l1": "-0x1.0p+0"}, 1, "l0"],
    ["abx", "l1", "typo_rescue", ["abc", "l1"], {"l0": "-0x1.0p+1", "l1": "0x1.0p-2"}, 3, "l1"],
]


def test_identical_replays_have_no_mismatch():
    assert compare((PACKS, CALLS), (dict(PACKS), [list(c) for c in CALLS])) == []


def test_a_score_differing_in_its_last_bit_is_a_mismatch():
    changed = [list(c) for c in CALLS]
    changed[2][4] = {"l0": "-0x1.0000000000001p+1", "l1": "0x1.0p-2"}
    problems = compare((PACKS, CALLS), (PACKS, changed))
    assert len(problems) == 1 and problems[0].startswith("call 2:")


def test_a_differing_count_of_scorings_is_a_mismatch():
    changed = [list(c) for c in CALLS]
    changed[1][5] = 2
    assert compare((PACKS, CALLS), (PACKS, changed))[0].startswith("call 1:")


def test_differing_packs_and_call_counts_are_named():
    problems = compare((PACKS, CALLS), ({**PACKS, "l1.ldep": "ffff"}, CALLS[:2]))
    assert problems == ["pack l1.ldep: 11cd != ffff", "3 calls != 2"]


def test_only_the_first_mismatches_are_shown():
    changed = [c[:2] + ["fallback"] + c[3:] for c in CALLS]
    problems = compare((PACKS, CALLS), (PACKS, changed), show=1)
    assert len(problems) == 2
    assert problems[0].startswith("call 0:")
    assert problems[1] == "... 2 more calls differ"


def test_a_checkout_without_its_own_lde_is_refused(tmp_path):
    """A checkout whose `src` holds no `lde` must not be replayed with
    some other copy found further along `sys.path`."""
    (tmp_path / "src").mkdir()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_diff.py"), "--record", str(tmp_path),
         "--workload", "cold-10", "--seed", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, check=False, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode != 0
    assert "lde imported from" in done.stderr and done.stdout == ""


def test_a_checkout_replays_identically_to_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_diff.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--workload", "cold-10", "--seed", "3"],
        capture_output=True, text=True, check=False, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("cold-10 seed 3: 10 packs, 5000 calls, identical")


def test_two_recordings_of_one_checkout_count_the_same_work():
    first, second = (replay(ROOT, "typo-10", 3)[2] for _ in range(2))
    assert first == second
    assert list(first) == list(COUNTED)
    # typo-10's trailing tokens are typos: each is searched somewhere, and
    # a search finds a candidate only among the probes that hit
    searches = first["localised searches"] + first["whole-lexicon searches"]
    assert 0 < first["rescues"] <= first["searches with a candidate"] <= searches
    # a rescue scans a lexicon for where an edit must fall before searching it
    assert searches <= first["span scans"]
    assert first["searches with a candidate"] <= first["probes that hit"] <= first["probes made"]
    # a walk reads an entry per pack and letter, at least one
    assert first["table reads"] >= first["full walks"] > 0
    # every session of typo-10 is one call, so nothing is looked up twice
    assert first["cache hits"] == 0


def test_a_change_that_adds_a_search_is_reported(tmp_path):
    """A copy of the checkout whose `detect` also searches one lexicon for
    a word of its own decides the same, and the table shows each added
    whole-lexicon search, the span scan it makes, its candidate and the
    probes it makes."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "ldebench", tmp_path / "ldebench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    with open(tmp_path / "src" / "lde" / "engine.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_detect = Engine.detect\n\n\n"
            "def _searching_detect(self, raw, state):\n"
            "    self._lexicons[0].edit1_candidates(next(iter(self._lexicons[0])))\n"
            "    return _detect(self, raw, state)\n\n\n"
            "Engine.detect = _searching_detect\n"
        )
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_diff.py"), "--parent", str(ROOT),
         "--change", str(tmp_path), "--workload", "cold-10", "--seed", "3"],
        capture_output=True, text=True, check=False, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "cold-10 seed 3: 10 packs, 5000 calls, identical"
    rows = count_rows(lines[2:])
    # a lexicon word has no bad triple: its search, given no span, scans
    # for one, covers the whole lexicon and finds at least the word itself
    # among its probes
    marked = {name: row for name, row in rows.items() if row[2]}
    assert marked.keys() == {"span scans", "whole-lexicon searches",
                             "searches with a candidate", "probes made", "probes that hit"}
    assert (marked["span scans"] == marked["whole-lexicon searches"]
            == marked["searches with a candidate"] == (0, 5000, "+5000"))
    for name in ("probes made", "probes that hit"):
        before, after, diff = marked[name]
        assert before == 0 and after > 0 and after % 5000 == 0 and diff == f"+{after}"
    # the walks are untouched
    assert rows["table reads"][0] == rows["table reads"][1] > 0


def count_rows(lines: list[str]) -> dict[str, tuple[int, int, str | None]]:
    """Each work count line as name -> (parent, change, difference)."""
    rows = {}
    for line in lines:
        parts = line.split()
        diff = parts.pop() if parts[-1][0] in "+-" else None
        after, before = int(parts.pop()), int(parts.pop())
        rows[" ".join(parts)] = (before, after, diff)
    return rows


def test_tallies_count_calls_truthy_results_and_lengths():
    counts = Counter()
    cache = LruCache(4)
    cache.put("ab", ("entry",))
    get = counting(counts, cache.get, {"lookups": each_call, "cache hits": truthy})
    probes = counting(counts, lambda word: [word] * len(word), {"probes made": length})
    assert [get("ab"), get("x"), get("ab")] == [("entry",), None, ("entry",)]
    assert probes("abc") == ["abc"] * 3 and probes("") == []
    assert counts == {"lookups": 3, "cache hits": 2, "probes made": 3}


def test_table_reads_are_weighed_by_the_arguments():
    """A walk reads one entry per view and letter, an extension one per
    view, whatever the letters are."""
    models = []
    for letters in ("ab", "bc", "c"):
        alphabet = Alphabet((" ", *letters))
        models.append(TrigramModel("xx", alphabet, [-1.0] * alphabet.size**3, 0.5))
    views = scoring_views(models)
    counts = Counter()
    walk = counting(counts, context_log_probs, {"table reads": walk_reads})
    extend = counting(counts, extended_log_probs, {"table reads": extension_reads})
    lasts = walk(views, ["ab", "cxz"], [0.5, 1.0])[1]
    assert counts["table reads"] == 3 * 5
    extend(views, lasts, "cxzq")
    assert counts["table reads"] == 3 * 5 + 3


def test_count_lines_mark_only_the_differing_counts():
    parent = {"searches": 3, "rescues": 1}
    change = {"searches": 5, "rescues": 1, "extra": 2}
    assert count_lines(parent, change) == [
        "work         parent     change",
        "searches          3          5  +2",
        "rescues           1          1",
        "extra             0          2  +2",
    ]
