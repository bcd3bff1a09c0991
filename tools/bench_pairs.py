"""Run the benchmark on two checkouts in alternating pairs; record every run.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --parent-rev REV --change-rev REV --workload keystroke-2 \
        --seeds 7201-7210 [--seconds 20] [--trace 0|1] --out BENCH_<pr>.json

Each seed is one pair: `python3 -m ldebench` runs once in each checkout,
the parent first on even pairs and the change first on odd ones.  Every
run's metrics are appended to `--out` (created if missing) under the
workload, with the seed, the order and both revisions, so one file can
collect several workloads and the traced runs.  The summary per metric
gives each side's median and quartiles over all recorded untraced pairs,
how many pairs the change won, whether a claimed gain holds (the change
won nine tenths of the pairs, by more than the parent's interquartile
range in the median) and whether the change stays within the metric's
`BENCHMARK.json` bound.  After each pair one line shows its seed, its
order and both sides' `PROGRESS` metrics (`TRACED_PROGRESS` for a traced
pair), so that a claim can be followed while the pairs run.  A run that
exits non-zero or reports `correct: false` stops the script with its
failures and stderr tail, and its pair is not recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# the metrics each pair's progress line shows for both sides, untraced
# and traced: a traced run reports only the per-layer metrics
PROGRESS = ("detect_p50_us", "detect_p99_us", "detect_per_s")
TRACED_PROGRESS = ("trie.edit1_calls_per_detect", "trie.edit1_us", "engine.score_context_us")


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "-m", "ldebench", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if done.returncode or not result.get("correct"):
        # a run whose output checks failed measures nothing worth averaging
        failed = [line for line in lines if line.lstrip().startswith("FAILED")][:10]
        raise SystemExit("\n".join([f"{root}: {workload} seed {seed}: exit {done.returncode}, "
                                    f"correct={result.get('correct')}", *failed,
                                    done.stderr[-2000:]]))
    return {name: metric["value"] for name, metric in result["metrics"].items()} | {
        "failed": result["failed"], "attempted": result["attempted"]}


def progress_line(pair: dict, traced: bool) -> str:
    """One pair's seed, order and both sides' progress metrics, as JSON."""
    shown = TRACED_PROGRESS if traced else PROGRESS
    return json.dumps({k: pair[k] for k in ("seed", "order")}
                      | {s: {m: pair[s].get(m) for m in shown} for s in ("parent", "change")})


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


# a claimed gain must win this share of the pairs
CLAIM_WINS = 0.9


def summary(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of `metrics` (BENCHMARK.json's `end_to_end` entries):
    each side's median and quartiles, the pairs the change won, and two
    checks.  `claim_holds`: the change won at least CLAIM_WINS of the
    pairs, and its median is better than the parent's by more than the
    parent's interquartile range.  `within_bound`: the change's median is
    no worse than the parent's by more than the metric's relative bound."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [p[side][name] for p in pairs if name in p[side]]
                 for side in ("parent", "change")}
        if len(sides["parent"]) != len(pairs) or len(sides["change"]) != len(pairs):
            continue
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        row = {"pairs": len(pairs), "change_wins": wins}
        for side, values in sides.items():
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            row[side] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
        parent, change = row["parent"]["median"], row["change"]["median"]
        gain = parent - change if lower else change - parent
        row["claim_holds"] = (wins >= CLAIM_WINS * len(pairs)
                              and gain > row["parent"]["q3"] - row["parent"]["q1"])
        row["within_bound"] = -gain <= metric["bound"] * abs(parent)
        out[name] = row
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--change-rev", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="N or FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    entry = doc["workloads"].setdefault(args.workload, {"pairs": [], "traced": []})
    metrics = json.loads((Path(args.change) / "BENCHMARK.json").read_text())["end_to_end"]
    for i, seed in enumerate(seeds_of(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": f"{order[0]} first", "seconds": args.seconds,
                "revisions": {"parent": args.parent_rev, "change": args.change_rev}}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, seed,
                                  args.seconds, args.trace)
        entry["traced" if args.trace else "pairs"].append(pair)
        print(progress_line(pair, bool(args.trace)), flush=True)
        entry["summary"] = summary(entry["pairs"], metrics)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
