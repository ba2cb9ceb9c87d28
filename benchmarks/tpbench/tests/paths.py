"""Make the benchmark's own modules and the program importable in tests."""

import sys
from pathlib import Path

TPBENCH = Path(__file__).resolve().parents[1]
ROOT = TPBENCH.parents[1]
for entry in (ROOT / "src", TPBENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
