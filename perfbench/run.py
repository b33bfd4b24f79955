"""divkit benchmark runner.

    python3 perfbench/run.py --workload axiom-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Runs one workload from the checkout's ``src/`` in a closed loop with a
single client: one operation at a time, pass after pass over the workload's
operations, until the next operation would end after ``--seconds``.  Every
output is checked against its expected outcome.  The last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured untraced, and ``setup_s``
  from fresh interpreters spread over the run.  Latencies are reported in
  multiples of a fixed reference kernel timed between operations
  (``reference.py``), so that the host's drifting speed cancels out; the
  raw wall-clock figures are printed too.
* ``--trace 1``: untraced passes for half the time, then traced passes;
  the per-layer metrics come from the traced passes and
  ``trace.overhead_ratio`` compares the two.

Exits 2 without a result when the checkout has no ``src/divkit``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One client, one thread: numpy's BLAS would otherwise start a thread per
# core, and on a small shared host those threads contend with the workload.
# Set before numpy is imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics: name, unit.  Times and counts are per traced pass
# (median over passes) unless the unit says otherwise.
_SPAN_METRICS = {
    # span name: the stats reported for it
    "expr.simplify": ("calls", "self_s"),
    "expr.diff": ("calls", "self_s"),
    "expr.eval_many": ("calls", "self_s"),
    "expr.eval": ("calls", "self_s"),
    "expr.parse_expr": ("calls", "self_s"),
    "geometry.bracket": ("calls", "self_s"),
    "geometry.apply_field": ("calls", "self_s"),
    "geometry.sample_points": ("self_s",),
    "operators.symbolic": ("calls", "self_s"),
    "operators.apply_many": ("calls", "self_s"),
    "operators.apply": ("calls", "self_s"),
    "axioms.check_axioms": ("calls", "self_s"),
    "reconstruct.classify": ("calls", "self_s"),
    "reconstruct.extract_oneform": ("self_s",),
    "reconstruct.integrate_potential": ("self_s",),
    "reconstruct.NumericScalarField.many": ("calls", "self_s"),
    "reconstruct.monodromy_period": ("calls", "self_s"),
    "reconstruct.star_shaped_subchart": ("self_s",),
    "quadrature.grid_integral": ("calls", "self_s"),
    "quadrature.integral_vanishing_check": ("self_s",),
    "specfile.parse_specfile": ("calls", "self_s"),
}
CLI_COMMANDS = ("check-axioms", "classify", "divergence", "verify-kn",
                "integrate-vanish")
BATTERY = ("axioms.random_fields", "axioms.library_fields",
           "axioms.random_scalars")
VERDICTS = ("divergence", "closed_not_exact", "not_tensorial", "not_cocycle",
            "inconsistent")
COUNTERS = [
    ("expr.simplify.nodes_out", "count"),
    ("expr.eval_many.points", "count"),
    ("expr.eval_many.nodes", "count"),
    ("expr.eval_many.nonfinite", "count"),
    ("operators.apply_many.points", "count"),
    ("axioms.samples", "count"),
    ("reconstruct.NumericScalarField.many.points", "count"),
    ("quadrature.grid_integral.nodes", "count"),
    ("specfile.lines", "count"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for span, stats in _SPAN_METRICS.items():
        for stat in stats:
            out.append((f"{span}.{stat}", "count" if stat == "calls" else "s"))
    out += COUNTERS
    out += [("expr.simplify.distinct_ratio", "ratio"),
            ("operators.symbolic.distinct_ratio", "ratio"),
            ("axioms.battery.self_s", "s"),
            ("axioms.skip_ratio", "ratio")]
    out += [(f"reconstruct.verdict.{v}", "count") for v in VERDICTS]
    out += [("cli.import_s", "s/process"), ("cli.process_s", "s/process")]
    out += [(f"cli.main.{c}.self_s", "s") for c in CLI_COMMANDS]
    out += [("trace.overhead_ratio", "ratio"), ("trace.spans", "count"),
            ("trace.unmeasured_layers", "count")]
    return out


# Which workload each layer is meant to be measured on.  A traced run lists
# every layer mapped to its workload that recorded no calls, so a renamed
# public function shows up as unmeasured rather than as a silent zero.
LAYER_MAP = {
    "expr.simplify": ("axiom-sweep", "classify-verdicts"),
    "expr.diff": ("axiom-sweep", "classify-verdicts"),
    "expr.eval_many": ("axiom-sweep", "dense-eval"),
    "expr.eval": ("classify-verdicts",),
    "expr.parse_expr": ("cli-specs",),
    "geometry.bracket": ("axiom-sweep",),
    "geometry.apply_field": ("axiom-sweep",),
    "geometry.sample_points": ("axiom-sweep",),
    "operators.symbolic": ("axiom-sweep", "classify-verdicts"),
    "operators.apply_many": ("axiom-sweep", "classify-verdicts"),
    "axioms.check_axioms": ("axiom-sweep", "dense-eval"),
    "axioms.random_fields": ("axiom-sweep", "dense-eval"),
    "axioms.library_fields": ("axiom-sweep", "dense-eval"),
    "axioms.random_scalars": ("axiom-sweep", "dense-eval"),
    "reconstruct.classify": ("classify-verdicts",),
    "reconstruct.extract_oneform": ("classify-verdicts",),
    "reconstruct.integrate_potential": ("classify-verdicts",),
    "reconstruct.NumericScalarField.many": ("classify-verdicts",),
    "reconstruct.monodromy_period": ("classify-verdicts",),
    "reconstruct.star_shaped_subchart": ("classify-verdicts",),
    "quadrature.grid_integral": ("dense-eval", "cli-specs"),
    "quadrature.integral_vanishing_check": ("dense-eval",),
    "specfile.parse_specfile": ("cli-specs",),
    **{f"cli.main.{c}": ("cli-specs",) for c in CLI_COMMANDS},
}


@dataclass
class Pass:
    group: int
    wall: float = 0.0
    samples: list = field(default_factory=list)  # (label, latency)
    failures: list = field(default_factory=list)  # (label, reason)


def run_passes(ops, budget_s: float, tracer=None, first_group: int = 0,
               whole: bool = False, between=None) -> list[Pass]:
    """Run the operations in order, pass after pass, one at a time.

    Stops before the next operation (or, with ``whole``, the next pass)
    would end after ``budget_s``, judged by its latest latency; the first
    pass always completes.  ``between()`` runs before each operation, off
    the operation's clock.
    """
    passes: list[Pass] = []
    latest: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        record = Pass(first_group + len(passes))
        passes.append(record)
        pass_start = time.perf_counter()
        for op in ops:
            if between is not None:
                between()
            if (not whole and len(passes) > 1 and time.perf_counter() - start
                    + latest[op.label] > budget_s):
                record.wall = time.perf_counter() - pass_start
                return passes if record.samples else passes[:-1]
            run = op.run
            if tracer is not None:
                tracer.begin_op(record.group)
                run = tracer.wrap("workload.op", op.run)
            t0 = time.perf_counter()
            try:
                result = run(tracer)
                reason = None
            except Exception as exc:  # counted as a failed operation
                result, reason = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if reason is None:
                try:
                    reason = op.check(result)
                except Exception as exc:  # a malformed result fails too
                    reason = f"check raised {type(exc).__name__}: {exc}"
            latest[op.label] = latency
            record.samples.append((op.label, latency))
            if reason is not None:
                record.failures.append((op.label, reason))
        record.wall = time.perf_counter() - pass_start
        typical = statistics.median(p.wall for p in passes)
        if whole and time.perf_counter() - start + typical > budget_s:
            return passes


class SetupSampler:
    """Times fresh interpreters that import divkit and build the workload's
    inputs.  The probes are spread evenly over the run, between operations,
    so their median is not taken from one moment of a machine whose speed
    drifts.  Each probe is also scaled to the nominal host speed by the
    interpreter reference kernel, timed just before and after it."""

    def __init__(self, workload: str, seed: int, budget_s: float):
        from reference import Reference

        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload,
                    str(seed)]
        self.period = budget_s / SETUP_REPEATS
        self.next_due = time.perf_counter()
        self.reference = Reference("interpreter")
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.errors: list[str] = []

    def poll(self):
        if (len(self.times) < SETUP_REPEATS
                and time.perf_counter() >= self.next_due):
            self.probe()
            self.next_due += self.period

    def probe(self):
        from reference import NOMINAL_S

        self.reference.poll()
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        self.reference.poll()
        speed = NOMINAL_S["interpreter"] / statistics.fmean(
            self.reference.times[-2:])
        self.times.append(elapsed)
        self.scaled.append(elapsed * speed)
        if proc.returncode != 0:
            self.errors.append(f"set-up exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")

    def median(self) -> float:
        """The median probe at the nominal host speed."""
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return statistics.median(self.scaled)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_operation(passes: list[Pass], scale=None) -> dict[str, list[float]]:
    """Each operation's latencies; with ``scale``, the latency of the i-th
    operation of the run is divided by ``scale(i)``."""
    by_label: dict[str, list[float]] = {}
    samples = [s for p in passes for s in p.samples]
    for i, (label, latency) in enumerate(samples):
        value = latency / scale(i) if scale is not None else latency
        by_label.setdefault(label, []).append(value)
    return by_label


def latency_figures(by_label: dict[str, list[float]]) -> tuple:
    """Each operation counts once, at its median over the run, so one slow
    sample or a run that ends mid-pass does not shift the figures: one
    typical pass, and percentiles across the operations."""
    typical = [statistics.median(v) for v in by_label.values()]
    return (sum(typical), percentile(typical, 50), percentile(typical, 90))


def end_to_end(passes: list[Pass], ref, setup_s: float,
               rss_kb: int) -> dict[str, float]:
    wall, p50, p90 = latency_figures(per_operation(passes, ref.around))
    return {
        "setup_s": setup_s,
        "wall_ref": wall,
        "op_p50_ref": p50,
        "op_p90_ref": p90,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def layer_values(tracer, group: int, stats: dict) -> dict[str, float]:
    counters = {name: v for (g, name), v in tracer.counters.items()
                if g == group}
    ratios = tracer.distinct_ratios(group)
    out: dict[str, float] = {}
    for span, wanted in _SPAN_METRICS.items():
        calls, self_s = stats.get(span, (0, 0.0))
        if "calls" in wanted:
            out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = self_s
    for name, _ in COUNTERS:
        out[name] = counters.get(name, 0)
    out["expr.simplify.distinct_ratio"] = ratios.get(
        "expr.simplify.distinct_ratio", 0.0)
    out["operators.symbolic.distinct_ratio"] = ratios.get(
        "operators.symbolic.distinct_ratio", 0.0)
    out["axioms.battery.self_s"] = sum(stats.get(s, (0, 0.0))[1]
                                       for s in BATTERY)
    samples = counters.get("axioms.samples", 0)
    out["axioms.skip_ratio"] = (counters.get("axioms.skipped", 0) / samples
                                if samples else 0.0)
    for verdict in VERDICTS:
        out[f"reconstruct.verdict.{verdict}"] = counters.get(
            f"reconstruct.verdict.{verdict}", 0)
    processes = counters.get("cli.processes", 0)
    for name in ("cli.import_s", "cli.process_s"):
        out[name] = counters.get(name, 0.0) / processes if processes else 0.0
    for command in CLI_COMMANDS:
        out[f"cli.main.{command}.self_s"] = stats.get(
            f"cli.main.{command}", (0, 0.0))[1]
    out["trace.spans"] = sum(calls for calls, _ in stats.values())
    return out


def traced_run(workload: str, ops, seconds: float):
    """Untraced passes, then traced ones; per-layer metrics and the list of
    layers that recorded no calls."""
    from tracer import Tracer

    plain = run_passes(ops, seconds / 2.0, whole=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(ops, seconds / 2.0, tracer, first_group=1,
                            whole=True)
    finally:
        tracer.uninstall()
    all_stats = tracer.layer_stats()
    per_pass = [layer_values(tracer, p.group, all_stats.get(p.group, {}))
                for p in traced]
    metrics = {name: statistics.median(v[name] for v in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in plain))
    unmeasured = sorted(
        span for span, homes in LAYER_MAP.items()
        if workload in homes
        and not any(all_stats.get(p.group, {}).get(span, (0, 0))[0]
                    for p in traced))
    metrics["trace.unmeasured_layers"] = len(unmeasured)
    self_total = sum(self_s for p in traced
                     for _, self_s in all_stats.get(p.group, {}).values())
    return plain, traced, metrics, unmeasured, self_total


def environment(seed: int, trace: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "divkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "trace": bool(trace),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin_to_one_cpu() -> None:
    """Run the benchmark and every process it starts on one CPU, so that
    an operation, its CLI child and the reference kernel timed around it
    all see the same core's speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints each one's
    report and then one combined result line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited {proc.returncode}: "
                  f"{proc.stderr[-500:]}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "divkit" / "__init__.py").is_file():
        print(f"error: no divkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import workloads

    ops = workloads.build(args.workload, args.seed, args.tiny)
    is_cli = args.workload == "cli-specs"
    extra_failures: list[tuple[str, str]] = []
    if args.trace:
        plain, traced, metrics, unmeasured, self_total = traced_run(
            args.workload, ops, args.seconds)
        passes = plain + traced
        units = dict(per_layer_metrics())
    else:
        from reference import Reference

        setup = SetupSampler(args.workload, args.seed, args.seconds)
        ref = Reference(workloads.REFERENCE[args.workload])

        def between():
            setup.poll()
            ref.poll()

        passes = run_passes(ops, args.seconds, between=between)
        who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        rss_kb = resource.getrusage(who).ru_maxrss
        extra_failures = [("setup", e) for e in setup.errors]
        metrics = end_to_end(passes, ref, setup.median(), rss_kb)
        units = dict(END_TO_END)
        raw = latency_figures(per_operation(passes))

    failures = [f for p in passes for f in p.failures] + extra_failures
    samples = sum(len(p.samples) for p in passes)
    attempted = samples + (0 if args.trace else SETUP_REPEATS)
    counts = [len(v) for v in per_operation(passes).values()]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{samples} operations in {len(passes)} passes, closed loop, "
          f"1 client; {len(counts)} distinct operations, {min(counts)} to "
          f"{max(counts)} samples each")
    print("ENV " + json.dumps(environment(args.seed, args.trace)))
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    print(f"METRIC error_rate {len(failures) / attempted:.6g} ratio")
    for name, value in metrics.items():
        print(f"METRIC {name} {value:.6g} {units[name]}")
    if not args.trace:
        print("RAW wall_s {:.6g} s, op_p50_s {:.6g} s, op_p90_s {:.6g} s, "
              "setup_s {:.6g} s; reference kernel median {:.6g} s over {} "
              "timings".format(*raw, statistics.median(setup.times),
                               statistics.median(ref.times), len(ref.times)))
    if args.trace:
        print(f"TRACE self time {self_total:.6g} s in traced passes of "
              f"{sum(p.wall for p in traced):.6g} s")
        print("UNMEASURED " + (" ".join(unmeasured) or "none"))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
