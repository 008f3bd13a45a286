"""Self-tests of the benchmark harness (not part of the repository's
tier-1 suite): ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))
