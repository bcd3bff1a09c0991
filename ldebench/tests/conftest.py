import sys

from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ldebench import use_source_tree  # noqa: E402

assert use_source_tree(), "lde sources not found"
