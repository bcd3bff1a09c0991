"""Benchmark for lde: keystroke replay, cold ten-pack scoring and ten-pack
typo rescue, timed end to end with a separate traced per-layer run.

Run from the repository root:

    python3 -m ldebench --workload keystroke-2 --seed 1 --seconds 10 --trace 0

The detector is imported from this checkout's `src/` tree, never from an
installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("keystroke-2", "cold-10", "typo-10")


def use_source_tree() -> bool:
    """Put this checkout's `src/` first on sys.path; False if it has no lde."""
    if not (SRC / "lde" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
