"""Command line: one workload, one seed, one run.

    python3 -m ldebench --workload NAME --seed N --seconds S --trace 0|1

Prints a readable report, then as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  A traced run
also writes its spans and per-layer self times to
`.bench_out/trace-<workload>-seed<N>.json`.  Exits 1 when any detect call
raised or failed an output check, 2 when the checkout has no lde sources.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ROOT, WORKLOADS, use_source_tree


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m ldebench", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_source_tree():
        print(f"error: no lde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from .bench import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{args.workload} seed {args.seed}: {mode}, {result.attempted} detect calls, "
          f"1 closed-loop client")
    for name, (value, unit) in result.metrics.items():
        note = result.notes.get(name)
        print(f"  {name:40s} {value:14.6g} {unit:6s}" + (f"  ({note})" if note else ""))
    for key in ("host", "paths", "per_detect", "checks"):
        if key in result.notes:
            print(f"  {key}: {result.notes[key]}")
    for problem in result.failures:
        print(f"  FAILED {problem}")
    if result.trace is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(result.trace))
        print(f"  spans and self times: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
