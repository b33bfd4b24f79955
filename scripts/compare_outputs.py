"""Output identity: a parent revision against the working tree.

    python3 scripts/compare_outputs.py --parent HEAD~1 --seeds 0,7
    python3 scripts/compare_outputs.py --parent main --parent-dir ../main --seeds 0

Checks the parent revision out as ``bench_pairs.py`` does (a new ``git
worktree``, or an existing checkout given as ``--parent-dir``).  Each side
then runs in a fresh child process from its own files: it imports that
side's ``perfbench/workloads.py``, builds every ``axiom-sweep``,
``classify-verdicts`` and ``dense-eval`` operation once per seed and runs
them all twice, so a cache that goes stale when it is reused shows in the
second pass.  ``dense-eval`` evaluates 2,000 points, so it holds the
tape of ``eval_roots`` to identity as the other two hold the
level-by-level path.  The child prints the repr of every report entry (max
residual, argmax point, samples, skipped), of every classification field
(verdict, residuals, periods, witness, restricted box) and of the integral's
value, one line each; both passes are compared with the parent's.  Each
golden ``cli-specs`` case, a fresh process, runs once per seed; its exit
code and every line of its stdout are compared, noise digits included.
Per seed the child also prints ``integral_vanishing_check`` on a 1-D and
two 3-D charts, grid shapes ``dense-eval`` never reaches: the whole axis in
one call, one ``(1, n1, n2)`` slab per call, and two slabs per call, so
that a first-axis subtree's values are sliced at offsets other than the
slab index.  It prints the curve integrals no workload reaches too:
``line_integral`` of a symbolic and of a pointwise one-form around a loop
with explicit segment counts, and ``integrate_potential`` on a 3-D box.

Standard library only.  Exits 0 when both sides print the same lines and 1
otherwise, after naming every line that differs, their count, and one count
per (workload, operation label, entry axiom) group, so that an intended
change reads as a few group lines.  A group of ``residuals`` lines or of
CLI ``RESIDUAL`` lines also names the residuals whose values moved.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, parent_checkout, side_env

WORKLOADS = ("axiom-sweep", "classify-verdicts", "dense-eval")
# Every operation runs once per pass, on the same operators and batteries.
PASSES = (1, 2)
# Fresh processes share nothing between passes, so they run once.
CLI_WORKLOAD = "cli-specs"
# The filler of the shorter side's missing lines.
MISSING = "(no line)"
# One name: value item of a classification's residuals dict.
RESIDUAL_ITEM = re.compile(r"'(\w+)': ([^,}]+)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="git revision of the parent side")
    parser.add_argument("--parent-dir", type=Path,
                        help="an existing checkout of --parent to use instead "
                             "of a new git worktree")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated workload seeds")
    parser.add_argument("--child", action="store_true",
                        help="print the outputs of the checkout in the "
                             "current directory")
    args = parser.parse_args(argv)
    if not args.child and args.parent is None:
        parser.error("--parent is required")
    return args


def output_lines(result) -> list[str]:
    """What one operation's result says, one repr per line."""
    if hasattr(result, "stdout"):  # a CLI process
        return [f"exit {result.code}"] + [f"stdout {line}" for line in
                                          result.stdout.splitlines()]
    if hasattr(result, "entries"):
        return [f"entry {i} {entry!r}" for i, entry in enumerate(result.entries)]
    if not hasattr(result, "verdict"):  # the integral's value
        return [f"value {result!r}"]
    box = None if result.restricted_to is None else result.restricted_to.box
    return [f"verdict {result.verdict!r}", f"residuals {result.residuals!r}",
            f"periods {result.periods!r}", f"witness {result.witness!r}",
            f"restricted {box!r}"]


def chart_integrals(seed: int):
    """(label, value) of the vanishing integral of a seeded bump field on a
    1-D and on two 3-D charts.  In 3-D at resolution 6 a slab of 96^2
    points fills a call; at resolution 4 a call holds two slabs of 64^2."""
    import numpy as np
    from divkit import geometry, quadrature

    rng = np.random.default_rng(seed)
    cases = [("1d", ("u",), "exp(u^2)", 64),
             ("3d", ("x", "y", "z"), "exp(x^2 - y*z)", 6),
             ("3d-two-slabs", ("x", "y", "z"), "exp(x*y - z^2)", 4)]
    for label, coords, density, resolution in cases:
        chart = geometry.Chart(coords, ((-1.0, 1.0),) * len(coords))
        center = rng.uniform(-0.3, 0.3, size=len(coords))
        field = quadrature.bump_field(chart, center, 0.6,
                                      int(rng.integers(len(coords))))
        volume = geometry.VolumeForm.from_string(chart, density)
        yield label, quadrature.integral_vanishing_check(
            volume, field, resolution=resolution)


def curve_integrals(seed: int):
    """(label, value) of curve integrals no workload reaches: a symbolic and
    a pointwise one-form around a seeded loop with explicit segment counts,
    and a potential on a 3-D box at a few seeded points."""
    import numpy as np
    from divkit import geometry, reconstruct

    rng = np.random.default_rng(seed)
    annulus = geometry.Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                             disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))
    symbolic = geometry.OneForm.from_strings(
        annulus, ("-y/(x^2 + y^2) + x*y", "x/(x^2 + y^2) + sin(x - y)"))
    pointwise = reconstruct.PointwiseOneForm(annulus, None, lambda pts: np.stack(
        [np.cos(pts[:, 0] * pts[:, 1]), pts[:, 0] ** 3 - pts[:, 1]], axis=1))
    cx, cy = rng.uniform(-0.1, 0.1, size=2).tolist()
    radius = float(rng.uniform(0.4, 0.7))
    for segments in (3, 17):
        loop = geometry.Path.from_strings(annulus, (
            f"{cx!r} + {radius!r}*cos(6.283185307179586*t)",
            f"{cy!r} + {radius!r}*sin(6.283185307179586*t)"), segments)
        for label, form in (("symbolic", symbolic), ("pointwise", pointwise)):
            yield (f"loop-{label}-{segments}",
                   geometry.line_integral(form, loop))
    box = geometry.Chart(("x", "y", "z"), ((-1.0, 2.0), (-1.5, 1.0), (0.0, 1.0)))
    form = geometry.OneForm.from_strings(box, ("exp(x*y) + z", "x*z^2",
                                               "sin(x + y)"))
    pts = rng.uniform((-1.0, -1.5, 0.0), (2.0, 1.0, 1.0), size=(4, 3))
    potential = reconstruct.integrate_potential(form)
    for k, value in enumerate(potential.many(pts).tolist()):
        yield f"potential-3d-{k}", value


def child(seeds: str) -> int:
    """Print every output of the checkout in the current directory."""
    root = Path.cwd().resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import divkit
    import workloads

    if root not in Path(divkit.__file__).resolve().parents:
        raise SystemExit(f"divkit imported from {divkit.__file__}, not {root}")
    for seed in seeds.split(","):
        ops = [(workload, op) for workload in WORKLOADS
               for op in workloads.build(workload, int(seed))]
        for run in PASSES:
            for workload, op in ops:
                for line in output_lines(op.run(None)):
                    print(f"{workload} seed {seed} pass {run} {op.label}: {line}")
        for op in workloads.build(CLI_WORKLOAD, int(seed)):
            for line in output_lines(op.run(None)):
                print(f"{CLI_WORKLOAD} seed {seed} {op.label}: {line}")
        for label, value in chart_integrals(int(seed)):
            print(f"integral-{label} seed {seed}: value {value!r}")
        for label, value in curve_integrals(int(seed)):
            print(f"curve-{label} seed {seed}: value {value!r}")
    return 0


def group(old: str, new: str) -> str:
    """A differing line's workload, its operation's label ("-" for an
    integral line) and the axiom of a report entry, or the kind of any other
    line (verdict, residuals, exit, stdout, value ...).  A ``residuals``
    line and a CLI ``RESIDUAL`` line also name the residuals that moved."""
    head, _, what = (new if new != MISSING else old).partition(": ")
    words = head.split()  # workload seed S [pass P] [label]
    label = words[-1] if len(words) > 3 else "-"
    axiom = re.match(r"entry \d+ AxiomEntry\(axiom='(\w+)'", what)
    kind = axiom.group(1) if axiom else what.split(" ")[0]
    sides = [line.partition(": ")[2] for line in (old, new)]
    if kind == "residuals":
        before, after = (dict(RESIDUAL_ITEM.findall(side)) for side in sides)
        kind = " ".join([kind] + [name for name in {**before, **after}
                                  if before.get(name) != after.get(name)])
    elif what.startswith("stdout RESIDUAL "):
        kind = " ".join(["stdout RESIDUAL"] + list(dict.fromkeys(
            side.split(" ")[2] for side in sides
            if side.startswith("stdout RESIDUAL "))))
    return f"{words[0]} {label} {kind}"


def side_lines(checkout: Path, env: dict, seeds: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         "--seeds", seeds],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exited {proc.returncode}: "
                         f"{proc.stderr[-800:]}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with parent_checkout(args.parent, args.parent_dir, tmp) as parent_dir:
            parent = side_lines(parent_dir, side_env(tmp / "parent-pycache"),
                                args.seeds)
        change = side_lines(ROOT, side_env(tmp / "change-pycache"), args.seeds)
    pairs = itertools.zip_longest(parent, change, fillvalue=MISSING)
    groups = collections.Counter()
    for k, (old, new) in enumerate(pairs):
        if old != new:
            groups[group(old, new)] += 1
            print(f"line {k + 1} differs\n  parent: {old}\n  change: {new}",
                  file=sys.stderr)
    if groups:
        for key, count in sorted(groups.items()):
            print(f"{count} differing lines in {key}", file=sys.stderr)
        print(f"{sum(groups.values())} of {max(len(parent), len(change))} "
              f"output lines differ", file=sys.stderr)
        return 1
    print(f"{len(change)} output lines identical", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
