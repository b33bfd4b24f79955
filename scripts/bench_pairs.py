"""Before/after benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD~1 --seeds 1,2,3,4 --out BENCH.json
    python3 scripts/bench_pairs.py --parent main --workloads classify-verdicts \\
        --seeds 11,12,13,14 --claim classify-verdicts:wall_ref --out BENCH.json

Checks the parent revision out with ``git worktree`` (or uses an existing
checkout given as ``--parent-dir``), then runs ``perfbench/run.py --trace 0``
of each side from that side's own files, one pair per workload and seed.
The two sides alternate: the parent runs first in even-numbered pairs, the
working tree first in odd-numbered ones, so a drift in the host's speed
favours neither.  Each side's processes keep their bytecode in a fresh
directory of their own (``PYTHONPYCACHEPREFIX``, written even under
``PYTHONDONTWRITEBYTECODE``), filled by one warm-up import before the first
pair, so a ``__pycache__`` left in one checkout cannot make that side's
start-up look faster.  The output file holds every run's metrics and, for each
workload and end-to-end metric, each side's median and quartiles, the number
of pairs in which the working tree was lower, and the median change; the
same figures, with each side's median minor faults, are printed to stdout
at the end, one line per workload.  Each
run's minor page faults sit next to its metrics, summed the same way: the
``RUSAGE_CHILDREN`` ``ru_minflt`` delta around the ``perfbench/run.py``
child, which counts every process that child waited for too (its setup
probes and, in ``cli-specs``, its CLI processes).

Standard library only.  Exits 1 when a run fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("axiom-sweep", "classify-verdicts", "dense-eval", "cli-specs")
SIDES = ("parent", "change")
# What a benchmark run imports, from the checkout's root: compiled once per
# side before the first pair.
WARM_UP = ("import sys; sys.path[:0] = ['src', 'perfbench']; "
           "import argparse, hashlib, platform, resource, statistics; "
           "import divkit, divkit.cli, workloads, tracer, reference")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--parent-dir", type=Path,
                        help="an existing checkout of --parent to use instead "
                             "of a new git worktree")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all four)")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one pair per seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, to check that the script runs")
    parser.add_argument("--claim", help="workload:metric of a claimed gain")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    args.seeds = [int(s) for s in args.seeds.split(",")]
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    if args.claim and args.claim.split(":")[0] not in args.workloads:
        parser.error("--claim must name one of the workloads run")
    return args


def git(*argv, cwd=ROOT) -> str:
    return subprocess.run(["git", *argv], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


@contextlib.contextmanager
def parent_checkout(parent: str, parent_dir: Path | None, tmp: Path):
    """The parent side's files: ``parent_dir`` when given, otherwise a new
    ``git worktree`` of revision ``parent`` under ``tmp``, removed on exit."""
    if parent_dir is not None:
        yield parent_dir.resolve()
        return
    path = tmp / "parent"
    git("worktree", "add", "--detach", str(path), parent)
    try:
        yield path
    finally:
        git("worktree", "remove", "--force", str(path))


def side_env(pycache: Path) -> dict:
    """The environment of one side's processes: bytecode read from and
    written to ``pycache`` only.  Writing stays on even where the caller's
    PYTHONDONTWRITEBYTECODE turns it off; otherwise every process would
    compile numpy and the standard library afresh under the prefix."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(checkout: Path, env: dict, workload: str, seed: int, args) -> dict:
    """One ``perfbench/run.py`` result: its last stdout line, plus ENV and
    the minor page faults of the child and the processes it waited for."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                          cwd=checkout, env=env, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(l[4:]) for l in lines if l.startswith("ENV ")), {})
    if not result["correct"]:
        failed = [l for l in lines if l.startswith("FAILED ")]
        raise SystemExit(f"{checkout}: {workload} seed {seed}: {failed}")
    return {"env": env, "attempted": result["attempted"],
            "failed": result["failed"], "minor_faults": faults,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(runs: list[float]) -> dict:
    """Runs with their median and quartiles (inclusive method)."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"runs": [round(r, 4) for r in runs], "median": round(median, 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent: list[float], change: list[float]) -> dict:
    """One figure's runs on each side, paired in order."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"parent": spread(parent), "change": spread(change),
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
            "median_change_pct": round(100.0 * (c_med - p_med) / p_med, 1)
            if p_med else None}


def summarise(seeds: list[int], runs: dict) -> dict:
    """Per-metric figures of one workload from its runs on each side, and
    the minor page faults of each run."""
    metrics = {name: compare(*([r["metrics"][name] for r in runs[s]] for s in SIDES))
               for name in runs["parent"][0]["metrics"]}
    faults = compare(*([r["minor_faults"] for r in runs[s]] for s in SIDES))
    return {"seeds": seeds, "pairs": len(seeds), "metrics": metrics,
            "minor_faults": faults,
            "failed_of_attempted": {
                s: [sum(r["failed"] for r in runs[s]),
                    sum(r["attempted"] for r in runs[s])] for s in SIDES}}


def claim_check(figures: dict) -> dict:
    """What decides a claimed gain: the pairs in which the change was lower,
    and its median gain against the parent's interquartile range."""
    parent, change = figures["parent"], figures["change"]
    gap = parent["median"] - change["median"]
    return {"lower_in_pairs": figures["change_lower_in_pairs"],
            "median_gain": round(gap, 4),
            "parent_iqr": round(parent["q3"] - parent["q1"], 4)}


def bench(args, parent_dir: Path, pycache: Path) -> dict:
    checkouts = {"parent": parent_dir, "change": ROOT}
    envs = {side: side_env(pycache / side) for side in SIDES}
    for side in SIDES:
        subprocess.run([sys.executable, "-c", WARM_UP], cwd=checkouts[side],
                       env=envs[side], check=True, capture_output=True)
    out = {
        "what": "divkit benchmark, parent against the working tree: every "
                "run, with each side's median and quartiles per workload and "
                "end-to-end metric, and each run's minor page faults (the "
                "RUSAGE_CHILDREN ru_minflt delta around perfbench/run.py, its "
                "setup probes and CLI processes included)",
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0"
                   + (" --tiny" if args.tiny else ""),
        "parent": git("rev-parse", "--short", args.parent),
        "change": "working tree at " + git("rev-parse", "--short", "HEAD"),
        "pairing": "one pair per seed; parent ran first on even pair index, "
                   "change first on odd; each side's processes kept their "
                   "bytecode in a fresh PYTHONPYCACHEPREFIX directory of "
                   "their own, written even under PYTHONDONTWRITEBYTECODE "
                   "and warmed by one import before pair 0",
    }
    workloads = {}
    for workload in args.workloads:
        runs = {s: [] for s in SIDES}
        for i, seed in enumerate(args.seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(checkouts[side], envs[side],
                                           workload, seed, args))
                print(f"{workload} seed {seed} {side}: "
                      f"{runs[side][-1]['metrics']}, "
                      f"{runs[side][-1]['minor_faults']} minor faults",
                      file=sys.stderr)
        workloads[workload] = summarise(args.seeds, runs)
    env = runs["change"][0]["env"]
    out.update({k: env.get(k) for k in ("python", "numpy", "cpu")},
               cores=env.get("nproc"), workloads=workloads)
    if args.claim:
        workload, metric = args.claim.split(":")
        figures = workloads[workload]["metrics"][metric]
        out["claimed"] = {"workload": workload, "metric": metric,
                          **claim_check(figures)}
    return out


def summary_line(workload: str, figures: dict) -> str:
    """One workload's outcome on one line: each end-to-end metric's median
    change and the pairs in which the change was lower, then each side's
    median minor faults per run, so a flip between fault regimes shows in a
    log without the output file."""
    pairs = figures["pairs"]
    parts = [f"{name} {m['median_change_pct']:+}% ({m['change_lower_in_pairs']}"
             f"/{pairs} lower)" if m["median_change_pct"] is not None
             else f"{name} n/a" for name, m in figures["metrics"].items()]
    faults = figures["minor_faults"]
    return (f"{workload}: " + ", ".join(parts)
            + f"; minor faults {faults['parent']['median']:.0f} -> "
              f"{faults['change']['median']:.0f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        with parent_checkout(args.parent, args.parent_dir, Path(tmp)) as parent_dir:
            out = bench(args, parent_dir, Path(tmp) / "pycache")
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    for workload, figures in out["workloads"].items():
        print(summary_line(workload, figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
