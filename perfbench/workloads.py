"""The four benchmark workloads and their expected outcomes.

Each workload is a list of operations.  One operation is one public divkit
call (or one CLI process); it returns a result that its check turns into
``None`` (as expected) or a one-line reason.  divkit names are looked up
through their modules at call time, so a tracer installed after the inputs
are built still sees every call.

Why these four:

* ``axiom-sweep`` -- the criterion-1 battery; small arrays, so Python-level
  symbolic work (simplify, diff, operator images) dominates.
* ``classify-verdicts`` -- every classify stage and both verification
  routes, one case per verdict.
* ``dense-eval`` -- the same symbolic work as the sweep at 2,000 points, so
  numpy evaluation and memory dominate; a symbolic-engine gain should be
  flat here and an evaluation gain should show here first.
* ``cli-specs`` -- the golden CLI cases, each a fresh process, as users run
  divkit; the only workload through spec parsing and the CLI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"

TWO_PI = 6.283185307179586
TRACE_MARKER = "PERFBENCH-TRACE "
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    run: Callable  # run(tracer or None) -> result
    check: Callable  # check(result) -> None or reason


def _fixtures():
    """Charts, volumes and the six criterion-1 operators."""
    from divkit import geometry as G
    from divkit import operators as O

    box = G.Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    annulus = G.Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                      disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))
    polar = G.Chart(("r", "th"), ((1.0, 2.5), (0.0, 1.5)))
    flat = G.VolumeForm.from_string(box, "1")
    weighted = G.VolumeForm.from_string(box, "exp(x^2 - y)")
    polar_metric = O.Metric.from_strings(polar, [["1", "0"], ["0", "r^2"]])
    operators = [
        ("flat", O.div_volume(flat)),
        ("weighted", O.div_volume(weighted)),
        ("polar-metric", O.div_metric(polar_metric)),
        ("levi-civita", O.div_affine(O.levi_civita(polar_metric))),
        ("s-half", O.div_sdensity(weighted, 0.5)),
        ("perturbed-closed",
         O.perturbed_operator(O.div_volume(flat),
                              G.OneForm.from_strings(box, ["2*x", "-1"]))),
    ]
    return {"box": box, "annulus": annulus, "polar": polar, "flat": flat,
            "weighted": weighted, "polar_metric": polar_metric,
            "operators": operators}


def _check_report(bound: float):
    def check(report):
        if not report.passed:
            return (f"sweep failed: max residual {report.max_residual:.3e}, "
                    f"skip rate {report.skip_rate:.3f}")
        if not report.max_residual <= bound:
            return f"max residual {report.max_residual:.3e} above {bound:.0e}"
        return None
    return check


def _sweep_ops(operators, config) -> list[Op]:
    from divkit import axioms

    ops = []
    for name, op in operators:
        for mode, target, bound in (("symbolic", op, 1e-8),
                                    ("blackbox", op.as_blackbox(), 1e-6)):
            ops.append(Op(f"check_axioms:{name}:{mode}",
                          lambda tracer, target=target:
                              axioms.check_axioms(target, config),
                          _check_report(bound)))
    return ops


def axiom_sweep(seed: int, tiny: bool) -> list[Op]:
    from divkit import axioms, quadrature

    fx = _fixtures()
    quadrature.default_rule()
    config = axioms.CheckConfig(seed=seed)
    operators = fx["operators"]
    if tiny:
        config = axioms.CheckConfig(seed=seed, n_points=20, n_fields=2,
                                    n_scalars=1)
        operators = operators[:2]
    return _sweep_ops(operators, config)


def dense_eval(seed: int, tiny: bool) -> list[Op]:
    from divkit import axioms, quadrature

    fx = _fixtures()
    quadrature.default_rule()
    n_points, resolution = (500, 16) if tiny else (2_000, 128)
    config = axioms.CheckConfig(seed=seed, n_points=n_points)
    chosen = [(nm, op) for nm, op in fx["operators"]
              if nm in ("weighted", "polar-metric")]
    ops = _sweep_ops(chosen, config)

    rng = np.random.default_rng(seed)
    center = tuple(float(c) for c in rng.uniform(-0.3, 0.3, size=2))
    direction = int(rng.integers(2))
    field = quadrature.bump_field(fx["box"], center, 0.4, direction)

    def check_integral(value):
        if not abs(value) <= 1e-6:
            return f"|integral| {abs(value):.3e} above 1e-06"
        return None

    ops.append(Op("integral_vanishing_check:weighted",
                  lambda tracer: quadrature.integral_vanishing_check(
                      fx["weighted"], field, resolution=resolution),
                  check_integral))
    return ops


def classify_verdicts(seed: int, tiny: bool) -> list[Op]:
    from divkit import geometry as G
    from divkit import operators as O
    from divkit import quadrature, reconstruct

    fx = _fixtures()
    quadrature.default_rule()
    box, annulus = fx["box"], fx["annulus"]
    flat = O.div_volume(fx["flat"])
    ann_flat = O.div_volume(G.VolumeForm.from_string(annulus, "1"))
    angular = G.OneForm.from_strings(
        annulus, ["-y/(x^2 + y^2)", "x/(x^2 + y^2)"])
    closed = G.OneForm.from_strings(annulus, ["2*x", "-1"])
    loop = G.Path.from_strings(annulus, [f"0.5*cos({TWO_PI}*t)",
                                         f"0.5*sin({TWO_PI}*t)"])
    loops = (("circle", loop),)
    cases = [
        ("weighted-vs-flat", O.div_volume(fx["weighted"]), flat, (),
         reconstruct.DIVERGENCE),
        ("sdensity-vs-flat", O.div_sdensity(fx["weighted"], 0.5), flat, (),
         reconstruct.NOT_TENSORIAL),
        ("swirl-vs-flat",
         O.perturbed_operator(flat, G.OneForm.from_strings(box, ["-y", "0"])),
         flat, (), reconstruct.NOT_COCYCLE),
        ("closed-vs-affine",
         O.perturbed_operator(flat,
                              G.OneForm.from_strings(box, ["2*x", "-1"])),
         O.div_affine(O.Connection.zero(box)), (), reconstruct.DIVERGENCE),
        ("polar-vs-metric",
         O.div_volume(G.VolumeForm.from_string(fx["polar"], "r*exp(r)")),
         O.div_metric(fx["polar_metric"]), (), reconstruct.DIVERGENCE),
        ("annulus-angular", O.perturbed_operator(ann_flat, angular), ann_flat,
         loops, reconstruct.CLOSED_NOT_EXACT),
        ("annulus-exact", O.perturbed_operator(ann_flat, closed), ann_flat,
         loops, reconstruct.DIVERGENCE),
    ]
    sizes = (dict(n_points=20, n_fields=2, n_scalars=1) if tiny else {})

    def expect(verdict):
        def check(result):
            if result.verdict != verdict:
                return f"verdict {result.verdict}, expected {verdict}"
            if verdict == reconstruct.CLOSED_NOT_EXACT:
                period = result.witness["period"]
                if not abs(period - TWO_PI) <= 1e-6:
                    return f"period {period!r} not within 1e-6 of 2*pi"
            return None
        return check

    ops = []
    for name, op, base, case_loops, verdict in cases:
        config = reconstruct.ClassifyConfig(seed=seed, loops=case_loops,
                                            **sizes)
        for mode, target in (("symbolic", op), ("blackbox", op.as_blackbox())):
            ops.append(Op(f"classify:{name}:{mode}",
                          lambda tracer, target=target, base=base,
                          config=config:
                              reconstruct.classify(target, base,
                                                   config=config),
                          expect(verdict)))
    return ops


# (name, expected exit code, expected VERDICT word or None, VALUE lines when
# there is no VERDICT, argv).  Noise digits are not compared.
CLI_CASES = [
    ("check_axioms_pass", 0, "PASS", None,
     ["check-axioms", "--spec", "box.dvk", "D"]),
    ("check_axioms_fail", 1, "FAIL", None,
     ["check-axioms", "--spec", "box.dvk", "D_bad"]),
    ("classify_divergence", 0, "divergence", None,
     ["classify", "--spec", "box.dvk", "D", "D0"]),
    ("classify_not_cocycle", 1, "not_cocycle", None,
     ["classify", "--spec", "box.dvk", "D_bad", "D0"]),
    ("classify_obstructed", 1, "closed_not_exact", None,
     ["classify", "--spec", "annulus.dvk", "D_angular", "D0"]),
    ("classify_restricted", 0, "divergence", None,
     ["classify", "--spec", "annulus.dvk", "D_exact", "D0"]),
    ("divergence_points", 0, None, 2,
     ["divergence", "--spec", "box.dvk", "D", "dilation",
      "--point", "0.5,0.25", "--point=-0.5,0.0"]),
    ("divergence_blackbox", 0, None, 1,
     ["divergence", "--spec", "box.dvk", "D_opaque", "dilation",
      "--point", "0.5,0.25"]),
    ("verify_kn_parallel", 0, "PARALLEL", None,
     ["verify-kn", "--spec", "polar.dvk", "area", "lc"]),
    ("verify_kn_not_parallel", 0, "NOT_PARALLEL", None,
     ["verify-kn", "--spec", "polar.dvk", "skew", "zero"]),
    ("integrate_vanish_pass", 0, "PASS", None,
     ["integrate-vanish", "--spec", "box.dvk", "weighted"]),
    ("integrate_vanish_no_claim", 0, None, 1,
     ["integrate-vanish", "--spec", "box.dvk", "D_half", "--center=0.25,0"]),
]
TINY_CLI_CASES = ("check_axioms_fail", "classify_not_cocycle",
                  "divergence_points", "verify_kn_parallel",
                  "integrate_vanish_no_claim")


@dataclass
class CliResult:
    code: int
    stdout: str


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_cli(argv: list[str], tracer) -> CliResult:
    """One CLI process.  Untraced, it is ``python -m divkit.cli``; traced,
    cli_child.py runs the same main() under the tracer and reports spans on
    its last stderr line."""
    if tracer is None:
        cmd = [sys.executable, "-m", "divkit.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - start
    if tracer is not None:
        lines = proc.stderr.splitlines()
        if not lines or not lines[-1].startswith(TRACE_MARKER):
            raise RuntimeError(f"traced CLI child sent no trace: "
                               f"{proc.stderr[-500:]!r}")
        payload = json.loads(lines[-1][len(TRACE_MARKER):])
        tracer.absorb(payload, payload["main_s"])
        tracer.count("cli.process_s", wall - payload["main_s"])
        tracer.count("cli.import_s", payload["import_s"])
        tracer.count("cli.processes", 1)
    return CliResult(proc.returncode, proc.stdout)


def _expect_cli(code: int, verdict: str | None, values: int | None):
    def check(result: CliResult):
        if result.code != code:
            return f"exit code {result.code}, expected {code}"
        lines = result.stdout.splitlines()
        verdicts = [ln.split()[1] for ln in lines
                    if ln.startswith("VERDICT ") and len(ln.split()) > 1]
        if verdict is not None and verdicts != [verdict]:
            return f"VERDICT {verdicts}, expected {verdict}"
        if verdict is None:
            if verdicts:
                return f"unexpected VERDICT {verdicts}"
            got = sum(1 for ln in lines if ln.startswith("VALUE "))
            if got != values:
                return f"{got} VALUE lines, expected {values}"
        return None
    return check


def cli_specs(seed: int, tiny: bool) -> list[Op]:
    from divkit import quadrature, specfile

    # what a user's process builds before main() does real work
    for name in ("box.dvk", "annulus.dvk", "polar.dvk"):
        specfile.parse_specfile(DATA / name)
    quadrature.default_rule()
    ops = []
    for name, code, verdict, values, argv in CLI_CASES:
        if tiny and name not in TINY_CLI_CASES:
            continue
        argv = [str((DATA / a).relative_to(ROOT)) if a.endswith(".dvk") else a
                for a in argv] + ["--seed", str(seed)]
        ops.append(Op(f"cli:{name}",
                      lambda tracer, argv=argv: _run_cli(argv, tracer),
                      _expect_cli(code, verdict, values)))
    return ops


WORKLOADS = {
    "axiom-sweep": axiom_sweep,
    "classify-verdicts": classify_verdicts,
    "dense-eval": dense_eval,
    "cli-specs": cli_specs,
}

# The reference kernel (reference.py) whose mix of interpreter work and
# array arithmetic matches each workload's: dense-eval's time goes mostly
# to evaluation on 2,000-point arrays, the others' to symbolic work.
REFERENCE = {
    "axiom-sweep": "interpreter",
    "classify-verdicts": "interpreter",
    "dense-eval": "mixed",
    "cli-specs": "interpreter",
}


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    return WORKLOADS[name](seed, tiny)
