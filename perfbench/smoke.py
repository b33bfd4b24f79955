"""Smoke test for the benchmark: ``python3 perfbench/smoke.py``.

Runs every workload at a tiny size, untraced and traced, and checks that

* every metric named in BENCHMARK.json is emitted, with its unit;
* no operation fails (error_rate 0);
* traced self times sum to no more than the traced wall time;
* the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--tiny"] if tiny else []), cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ names)}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is not None and got["unit"] != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit {got['unit']}, "
                            f"expected {metric['unit']}")
    error_rate = next(float(ln.split()[2]) for ln in lines
                      if ln.startswith("METRIC error_rate "))
    if result["failed"] or not result["correct"] or error_rate != 0.0:
        failed = [ln for ln in lines if ln.startswith("FAILED ")]
        problems.append(f"{where}: error_rate {error_rate}: {failed}")
    if trace:
        match = re.search(r"^TRACE self time (\S+) s in traced passes of "
                          r"(\S+) s$", proc.stdout, re.MULTILINE)
        if match is None:
            problems.append(f"{where}: no TRACE line")
        elif not float(match.group(1)) <= float(match.group(2)):
            problems.append(f"{where}: self time {match.group(1)} s exceeds "
                            f"traced wall {match.group(2)} s")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench-bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0, tiny=False)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_workload(spec, workload["name"], trace)
            print(f"{workload['name']} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    print("smoke test " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
