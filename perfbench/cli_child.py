"""One traced CLI process: ``python perfbench/cli_child.py <divkit argv>``.

Runs ``divkit.cli.main`` exactly as ``python -m divkit.cli`` would, with the
tracer installed after import.  divkit's own output is untouched; the trace
goes to the last line of stderr, after the marker the benchmark looks for.
"""

import json
import sys
import time
from pathlib import Path

_start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import divkit.cli  # noqa: E402

_import_s = time.perf_counter() - _start

from tracer import Tracer  # noqa: E402
from workloads import TRACE_MARKER  # noqa: E402


def run(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    main = tracer.wrap(f"cli.main.{argv[0]}", divkit.cli.main)
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    main_span = next(s for s in tracer.spans if s[3] == -1)
    payload = tracer.export()
    payload["import_s"] = _import_s
    payload["main_s"] = main_span[2] - main_span[1]
    sys.stdout.flush()
    print(TRACE_MARKER + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
