"""Replay one workload in two checkouts and compare every answer.

    python3 tools/replay_diff.py --parent DIR --change DIR \
        --workload keystroke-2 --seed 5

In each checkout, in a subprocess with that checkout's `src` and root
first on `sys.path`, the workload is generated (`ldebench.workloads`)
and every session is replayed once, each with a fresh state.  The
subprocess records the SHA-256 of every pack's bytes and, per call, the
text, language, path, correction, `float.hex` of every score, the
state's `contexts_scored` and its session language after the call.  The
two records are compared call by call: the script prints the number of
calls and the first `SHOW` mismatches, and exits 1 on any mismatch.
A change meant to keep every decision and score bit-identical is
checked this way on each workload.

The subprocess also counts the work the replay does, by wrapping the
functions detection reaches (nothing is added to lde's objects), each
call weighed by its arguments and its result: typo rescue's span scans
(`Trie.edit_span`, however it is reached), its bound evaluations
(`lde.engine.edit1_gain_bound`), its edit-1 searches
(`Trie.edit1_candidates`), localised or over the whole lexicon (`span`
is `ANYWHERE`), those that found a candidate and the distinct probes
that are lexicon words, the probes made (the strings `Trie.probes`
returned), full scoring walks (`lde.engine.context_log_probs`) and their
table reads (one per view and letter), one-letter extensions
(`lde.engine.extended_log_probs`, one read per view), cache hits
(`LruCache.get` returning an entry) and rescues (`Engine._typo_rescue`
returning a detection).  The counts are exact for a workload and seed,
and both checkouts' are printed side by side, each differing row marked
with the change's difference; they never make the replays differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

# how many mismatched calls are printed
SHOW = 10
# the work counts, in the order they are printed
COUNTED = ("span scans", "bound evaluations", "localised searches", "whole-lexicon searches",
           "searches with a candidate", "probes made", "probes that hit", "full walks",
           "table reads", "one-letter extensions", "cache hits", "rescue attempts", "rescues")


def each_call(result, *args, **kwargs) -> int:
    """A tally of calls, whatever they return."""
    return 1


def truthy(result, *args, **kwargs) -> int:
    """A tally of calls that return something."""
    return bool(result)


def length(result, *args, **kwargs) -> int:
    """The length of what a call returns."""
    return len(result)


def walk_reads(result, views, words, *args, **kwargs) -> int:
    """The table entries a full walk reads: one per view and letter."""
    return len(views) * sum(map(len, words))


def extension_reads(result, views, *args, **kwargs) -> int:
    """The table entries a one-letter extension reads: one per view."""
    return len(views)


def counting(counts: Counter, fn, tallies: dict):
    """`fn`, adding `weigh(result, *args, **kwargs)` to the count `name`
    on each call, for every `name: weigh` of `tallies`."""

    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        for name, weigh in tallies.items():
            counts[name] += weigh(result, *args, **kwargs)
        return result

    return counted


def record(root: Path, workload: str, seed: int, out_dir: Path) -> None:
    """Print the packs' digests as one JSON line, one line per call, then
    the work counts: the checkout at `root` generates and replays the
    workload.  Exits non-zero if `lde` or `ldebench` is imported from
    anywhere else."""
    sys.path[:0] = [str(root / "src"), str(root)]
    for name, home in (("lde", root / "src"), ("ldebench", root)):
        module = importlib.import_module(name)
        if not Path(module.__file__).resolve().is_relative_to(home.resolve()):
            raise SystemExit(f"{name} imported from {module.__file__}, not {home}")
    import lde.engine
    from lde import Engine, EngineConfig, LruCache, read_pack
    from lde.trie import ANYWHERE, Trie
    from ldebench.workloads import generate

    work = generate(workload, seed, out_dir)
    print(json.dumps({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                      for path in work.pack_paths}))
    engine = Engine([read_pack(path) for path in work.pack_paths],
                    EngineConfig(languages=work.languages))
    # unwrapped: weighing a search makes no probe and no span scan
    probes, scan = Trie.probes, Trie.edit_span

    # a search passes `span` by keyword; an older `edit1_candidates` took a
    # result cap as well, which `**_` takes, so a parent checkout replays too
    def whole(result, trie, word, span=None, **_) -> int:
        return (scan(trie, word) if span is None else span) is ANYWHERE

    def localised(*call, **kwargs) -> int:
        return 1 - whole(*call, **kwargs)

    def hits(result, trie, word, span=None, **_) -> int:
        if span is None and (span := scan(trie, word)) is None:
            return 0
        return sum(probe in trie for probe in set(probes(trie, word, span)))

    counts = Counter(dict.fromkeys(COUNTED, 0))
    for owner, attr, tallies in (
        (Trie, "edit_span", {"span scans": each_call}),
        (lde.engine, "edit1_gain_bound", {"bound evaluations": each_call}),
        (Trie, "edit1_candidates", {"localised searches": localised,
                                    "whole-lexicon searches": whole,
                                    "searches with a candidate": truthy,
                                    "probes that hit": hits}),
        (Trie, "probes", {"probes made": length}),
        (lde.engine, "context_log_probs", {"full walks": each_call, "table reads": walk_reads}),
        (lde.engine, "extended_log_probs", {"one-letter extensions": each_call,
                                            "table reads": extension_reads}),
        (LruCache, "get", {"cache hits": truthy}),
        (Engine, "_typo_rescue", {"rescue attempts": each_call, "rescues": truthy}),
    ):
        setattr(owner, attr, counting(counts, getattr(owner, attr), tallies))
    for session in work.sessions:
        state = engine.new_state()
        for raw, _ in session:
            found = engine.detect(raw, state)
            print(json.dumps([raw, found.language, found.path.value, found.corrected,
                              {lang: score.hex() for lang, score in found.scores.items()},
                              state.contexts_scored, state.current_language]))
    print(json.dumps(counts))


def replay(root: Path, workload: str, seed: int) -> tuple[dict, list[list], dict[str, int]]:
    """The packs' digests, every call's record and the work counts, from
    the checkout at `root`."""
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [sys.executable, __file__, "--record", str(root.resolve()),
             "--workload", workload, "--seed", str(seed), "--out-dir", tmp],
            capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"{root}: replay exited {done.returncode}\n{done.stderr[-2000:]}")
    packs, *calls, counts = map(json.loads, done.stdout.splitlines())
    return packs, calls, counts


def compare(parent: tuple[dict, list], change: tuple[dict, list], show: int = SHOW) -> list[str]:
    """Every difference between two replays, as readable lines, of which
    at most `show` name a call."""
    (parent_packs, parent_calls), (change_packs, change_calls) = parent, change
    problems = [f"pack {name}: {parent_packs.get(name)} != {change_packs.get(name)}"
                for name in sorted(parent_packs.keys() | change_packs.keys())
                if parent_packs.get(name) != change_packs.get(name)]
    if len(parent_calls) != len(change_calls):
        problems.append(f"{len(parent_calls)} calls != {len(change_calls)}")
    differ = [i for i, (p, c) in enumerate(zip(parent_calls, change_calls)) if p != c]
    problems += [f"call {i}: parent {parent_calls[i]} != change {change_calls[i]}"
                 for i in differ[:show]]
    if len(differ) > show:
        problems.append(f"... {len(differ) - show} more calls differ")
    return problems


def count_lines(parent: dict[str, int], change: dict[str, int]) -> list[str]:
    """Both checkouts' work counts side by side, one line per count, a
    differing one ending with the change's difference."""
    names = [*parent, *(name for name in change if name not in parent)]
    width = max(map(len, names))
    lines = [f"{'work':<{width}}  {'parent':>9}  {'change':>9}"]
    for name in names:
        before, after = parent.get(name, 0), change.get(name, 0)
        diff = f"  {after - before:+d}" if after != before else ""
        lines.append(f"{name:<{width}}  {before:>9}  {after:>9}{diff}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    # the subprocess side: record one checkout's replay to stdout
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record:
        record(args.record, args.workload, args.seed, args.out_dir)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    parent = replay(args.parent, args.workload, args.seed)
    change = replay(args.change, args.workload, args.seed)
    problems = compare(parent[:2], change[:2])
    print(f"{args.workload} seed {args.seed}: {len(parent[0])} packs, "
          f"{len(parent[1])} calls, {'identical' if not problems else 'DIFFERENT'}")
    for line in [*problems, *count_lines(parent[2], change[2])]:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
