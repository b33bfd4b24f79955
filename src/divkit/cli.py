"""Command surface: axiom sweeps, classification, and report rendering.

Five subcommands share one description-file loader and stable exit codes:
0 for a pass or positive verdict, 1 for a mathematical failure or negative
verdict, 2 for parse and validation problems, 3 for domain errors at
runtime.  Machine-readable lines are prefix-keyed (VERDICT, RESIDUAL,
PERIOD, VALUE) with a fixed field order; everything else is commentary.
The README's "Command line" section says which parts of a keyed line, and
how many of the printed digits of each number, are contract.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .axioms import CheckConfig, check_axioms, library_fields
from .errors import DomainError, SpecError, ValidationError
from .expr import EvalDomainError, ParseError
from .geometry import sample_points
from .operators import difference, div_affine, div_volume, parallel_residual
from .quadrature import _expr_integral, bump_field
from .reconstruct import CLOSED_NOT_EXACT, DIVERGENCE, ClassifyConfig, classify
from .specfile import lookup, parse_specfile

__all__ = ["main", "build_parser"]


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _point_str(point) -> str:
    return "(" + ", ".join(_fmt(c) for c in point) + ")"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divkit",
        description="check divergence axioms, classify operators, and "
                    "reconstruct volume forms from a description file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="description file path")
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (falls back to the file's [config] "
                            "section, then DIVKIT_SEED, then 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override")
        p.add_argument("--points", type=int, default=None,
                       help="sample point count override")

    p = sub.add_parser("check-axioms", help="run the axiom sweep on one operator")
    common(p)
    p.add_argument("operator", help="operator name from the file")

    p = sub.add_parser("classify", help="decide how a candidate differs from "
                                        "a reference divergence")
    common(p)
    p.add_argument("candidate", help="candidate operator name")
    p.add_argument("base", help="reference operator name")

    p = sub.add_parser("divergence", help="print an operator applied to a field")
    common(p)
    p.add_argument("operator")
    p.add_argument("field")
    p.add_argument("--point", action="append", default=None, metavar="C1,C2,...",
                   help="evaluate at this point instead of the sample set "
                        "(repeatable)")

    p = sub.add_parser("verify-kn", help="check that a volume is parallel for "
                                         "a connection exactly when the two "
                                         "divergences agree")
    common(p)
    p.add_argument("volume")
    p.add_argument("connection")

    p = sub.add_parser("integrate-vanish", help="integrate D(X) against the "
                                                "density for a bump field")
    common(p)
    p.add_argument("name", help="volume or operator name")
    p.add_argument("--center", default=None, metavar="C1,C2,...",
                   help="bump center (default: chart basepoint)")
    p.add_argument("--radius", type=float, default=None,
                   help="bump half-width (default: a quarter of the shortest "
                        "box side)")
    p.add_argument("--direction", type=int, default=0,
                   help="coordinate axis carrying the bump component")
    p.add_argument("--resolution", type=int, default=None,
                   help="grid segments per axis (default 64)")
    return parser


def _settings(spec, args):
    """Effective seed/tol/points with flag > file > environment precedence.

    The seed must be a non-negative integer and the tolerance, when given,
    finite and positive; anything else is a ValidationError (exit 2).
    """
    seed = args.seed
    if seed is None:
        seed = spec.config.get("seed")
    if seed is None:
        env = os.environ.get("DIVKIT_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise ValidationError(f"DIVKIT_SEED {env!r} is not an integer") from None
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    tol = args.tol if args.tol is not None else spec.config.get("tol")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tolerance must be finite and positive, got {tol}")
    points = args.points if args.points is not None else spec.config.get("points", 100)
    return seed, tol, points


def _sweep_settings(spec, args) -> dict:
    """Keyword arguments of a CheckConfig or ClassifyConfig: seed and points,
    plus the tolerance and the battery sizes where a flag or the file's
    [config] sets them, so the configs own every other default."""
    seed, tol, points = _settings(spec, args)
    kwargs = {"seed": seed, "n_points": points}
    if tol is not None:
        kwargs["tol"] = tol
    for key in ("fields", "scalars"):
        if key in spec.config:
            kwargs[f"n_{key}"] = spec.config[key]
    return kwargs


def _parse_point(text: str, dim: int) -> tuple[float, ...]:
    try:
        point = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValidationError(f"bad point {text!r}") from None
    if len(point) != dim:
        raise ValidationError(f"point {text!r} has wrong dimension")
    return point


def run_check_axioms(spec, args) -> int:
    op = spec.operator(args.operator)
    report = check_axioms(op, CheckConfig(**_sweep_settings(spec, args)))
    manifest = report.manifest
    print(f"operator {args.operator}: mode={manifest['mode']} "
          f"points={manifest['n_points']} fields={manifest['n_fields']} "
          f"scalars={manifest['n_scalars']} tolerance={_fmt(report.tolerance)}")
    print(f"skipped {report.skipped} of {report.samples} evaluations")
    print(f"RESIDUAL max {_fmt(report.max_residual)}")
    worst = report.argmax
    if worst is not None:
        where = "" if worst.argmax_point is None \
            else f" at {_point_str(worst.argmax_point)}"
        print(f"RESIDUAL {worst.label} {_fmt(worst.max_residual)}{where}")
    print(f"VERDICT {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def run_classify(spec, args) -> int:
    candidate = spec.operator(args.candidate)
    base = spec.operator(args.base)
    config = ClassifyConfig(**_sweep_settings(spec, args),
                            loops=tuple(spec.loops.items()))
    result = classify(candidate, base, config=config)
    print(f"candidate {args.candidate} against base {args.base}")
    for name in ("tensoriality", "closedness", "verification"):
        if name in result.residuals:
            print(f"RESIDUAL {name} {_fmt(result.residuals[name])}")
    for loop_name, value in result.periods:
        print(f"PERIOD {loop_name} {_fmt(value)}")
    if result.restricted_to is not None:
        box = "; ".join(f"{_fmt(a)}, {_fmt(b)}" for a, b in result.restricted_to.box)
        print(f"restricted to box {box}")
    if result.verdict == CLOSED_NOT_EXACT:
        print(f"VERDICT closed_not_exact PERIOD {_fmt(result.witness['period'])}")
    else:
        print(f"VERDICT {result.verdict}")
    return 0 if result.verdict == DIVERGENCE else 1


def run_divergence(spec, args) -> int:
    op = spec.operator(args.operator)
    field = lookup(spec.fields, args.field, "field")
    seed, _, points = _settings(spec, args)
    if args.point:
        pts = np.asarray([_parse_point(t, op.chart.dim) for t in args.point])
    else:
        pts = sample_points(op.chart, points, seed)
    expr = op.symbolic(field)
    if expr is not None:
        print(f"EXPRESSION {expr}")
    values = op.apply_many(field, pts)
    for row, value in zip(pts, values):
        print("VALUE " + " ".join(_fmt(c) for c in row) + f" {_fmt(value)}")
    return 0


def run_verify_kn(spec, args) -> int:
    volume = spec.volume(args.volume)
    connection = lookup(spec.connections, args.connection, "connection")
    seed, tol, points = _settings(spec, args)
    tol = tol if tol is not None else 1e-8
    chart = volume.chart
    pts = sample_points(chart, points, seed)
    residual_form = parallel_residual(connection, volume)
    parallel_max = float(np.abs(residual_form.values_matrix(pts)).max())
    gap = difference(div_volume(volume), div_affine(connection))
    fields = [field for _, field in library_fields(chart)]
    operator_max = float(np.max([np.abs(v).max() for v in gap.apply_fields(fields, pts)]))
    if not (math.isfinite(parallel_max) and math.isfinite(operator_max)):
        raise DomainError("verify-kn residuals are not finite at the samples")
    print(f"volume {args.volume} connection {args.connection} "
          f"tolerance={_fmt(tol)}")
    print(f"RESIDUAL parallel {_fmt(parallel_max)}")
    print(f"RESIDUAL operator {_fmt(operator_max)}")
    parallel_ok = parallel_max <= tol
    operator_ok = operator_max <= tol
    if parallel_ok and operator_ok:
        print("VERDICT PARALLEL")
        return 0
    if not parallel_ok and not operator_ok:
        print("VERDICT NOT_PARALLEL")
        return 0
    # the two sides of the equivalence disagree at this tolerance
    print("VERDICT INCONSISTENT")
    return 1


def _integrand_operator(spec, name):
    """Operator to integrate against its own density; a volume name stands
    for the divergence of that volume."""
    if name in spec.volumes:
        return div_volume(spec.volumes[name])
    op = spec.operator(name)
    if op.density is None:
        raise ValidationError(
            f"{name!r} carries no density to integrate against")
    return op


def run_integrate_vanish(spec, args) -> int:
    op = _integrand_operator(spec, args.name)
    seed, tol, points = _settings(spec, args)
    tol = tol if tol is not None else 1e-6
    chart = op.chart
    center = chart.basepoint if args.center is None \
        else _parse_point(args.center, chart.dim)
    radius = args.radius if args.radius is not None else 0.25 * chart.min_side
    resolution = args.resolution if args.resolution is not None \
        else spec.config.get("resolution", 64)
    field = bump_field(chart, center, radius, args.direction)
    integrand = (op.symbolic(field) * op.density).simplify()
    value = _expr_integral(integrand, chart, resolution)
    if not math.isfinite(value):
        raise DomainError("the integral is not finite")
    print(f"bump center={_point_str(center)} radius={_fmt(radius)} "
          f"direction={args.direction} resolution={resolution}")
    if op.weight != 1.0:  # the integral vanishes for true divergences only
        print(f"VALUE {_fmt(value)} NO_CLAIM")
        return 0
    print(f"VALUE {_fmt(value)}")
    print(f"VERDICT {'PASS' if abs(value) <= tol else 'FAIL'}")
    return 0 if abs(value) <= tol else 1


_COMMANDS = {
    "check-axioms": run_check_axioms,
    "classify": run_classify,
    "divergence": run_divergence,
    "verify-kn": run_verify_kn,
    "integrate-vanish": run_integrate_vanish,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse prints its own message
        return int(exit_.code or 0)
    try:
        spec = parse_specfile(args.spec)
        return _COMMANDS[args.command](spec, args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SpecError, ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DomainError, EvalDomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for this request "
              "(lower --points or --resolution)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
