"""Make the benchmark's modules and the program importable from its tests.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
for path in (BENCH.parent / "src", BENCH / "hook", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
