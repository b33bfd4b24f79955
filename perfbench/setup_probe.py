"""Fresh-interpreter set-up: ``python perfbench/setup_probe.py <workload>
<seed>`` imports divkit and builds the workload's inputs, then exits.  The
benchmark times the whole process as ``setup_s``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
