"""Line-oriented description files for charts, fixtures, and operators.

The format is deliberately plain: `[section NAME]` headers, `key = value`
entries, `#` comments, commas between components and `;` between matrix
rows.  Every error carries the 1-based line number it was found on: in
the [chart] section, the line of the entry that made the chart invalid.

    [chart]
    coords = x, y
    box = -1, 1; -1, 1
    disk = 0, 0, 0.2
    basepoint = 0.6, 0

    [volume omega]
    density = exp(x^2 - y)

    [operator D]
    kind = volume
    volume = omega

Connection sections list nonzero symbols one per line, `Gamma k i j = expr`
with 0-based indices.  Operator kinds: volume, metric, affine, sdensity
(`s = ...`), perturbed (`base = ...`, `oneform = ...`); `blackbox = true`
wraps the result so only its batch callable is exposed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import SpecError, ValidationError
from .expr import Expr, ParseError, const, parse_expr
from .geometry import Chart, OneForm, Path, VectorField, VolumeForm
from .operators import (
    Connection,
    DivOperator,
    Metric,
    div_affine,
    div_metric,
    div_sdensity,
    div_volume,
    perturbed_operator,
)

__all__ = ["SpecFile", "parse_specfile", "parse_spec_text"]

_HEADER_RE = re.compile(r"^\[([a-z]+)(?:\s+([A-Za-z_]\w*))?\]$")
_GAMMA_RE = re.compile(r"^Gamma\s+(\d+)\s+(\d+)\s+(\d+)$")

_SECTION_KINDS = ("chart", "volume", "metric", "connection", "oneform",
                  "field", "operator", "loop", "config")
_OPERATOR_KINDS = ("volume", "metric", "affine", "sdensity", "perturbed")
_CONFIG_KEYS = ("seed", "tol", "points", "fields", "scalars", "resolution")


@dataclass
class SpecFile:
    """Validated model of one description file."""

    chart: Chart
    volumes: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    connections: dict = field(default_factory=dict)
    oneforms: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)
    loops: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def operator(self, name: str) -> DivOperator:
        return lookup(self.operators, name, "operator")

    def volume(self, name: str) -> VolumeForm:
        return lookup(self.volumes, name, "volume")


def lookup(registry: dict, name: str, what: str):
    """``registry[name]``, or a ValidationError naming what is there."""
    if name not in registry:
        raise ValidationError(f"unknown {what} {name!r}; have "
                              f"{sorted(registry) or 'none'}")
    return registry[name]


class _Section:
    __slots__ = ("kind", "name", "line", "entries")

    def __init__(self, kind, name, line):
        self.kind = kind
        self.name = name
        self.line = line
        self.entries = []  # (line_no, key, value)


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _HEADER_RE.match(line)
            if not m:
                raise SpecError(f"malformed section header {line!r}", line_no)
            kind, name = m.group(1), m.group(2)
            if kind not in _SECTION_KINDS:
                raise SpecError(f"unknown section kind {kind!r}", line_no)
            if kind in ("chart", "config"):
                if name is not None:
                    raise SpecError(f"[{kind}] takes no name", line_no)
            elif name is None:
                raise SpecError(f"[{kind}] needs a name", line_no)
            sections.append(_Section(kind, name, line_no))
            continue
        if "=" not in line:
            raise SpecError(f"expected key = value, got {line!r}", line_no)
        if not sections:
            raise SpecError("entry before any section header", line_no)
        key, value = line.split("=", 1)
        sections[-1].entries.append((line_no, key.strip(), value.strip()))
    return sections


def _floats(value: str, line_no: int) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in value.split(","))
    except ValueError:
        raise SpecError(f"expected comma-separated numbers, got {value!r}",
                        line_no) from None


_TOO_DEEP = "expression nested too deeply"


def _expr(value: str, coords, line_no: int) -> Expr:
    try:
        return parse_expr(value, coords)
    except ParseError as e:
        raise SpecError(f"bad expression {value!r}: {e}", line_no) from None
    except RecursionError:
        raise SpecError(_TOO_DEEP, line_no) from None


def _expr_list(value: str, coords, line_no: int) -> tuple[Expr, ...]:
    parts = [p.strip() for p in value.split(",")]
    return tuple(_expr(p, coords, line_no) for p in parts)


def _entry_map(section: _Section, allowed, repeatable=()) -> dict:
    out: dict = {}
    for line_no, key, value in section.entries:
        if key not in allowed:
            raise SpecError(f"unknown key {key!r} in [{section.kind}]", line_no)
        if key in repeatable:
            out.setdefault(key, []).append((line_no, value))
        elif key in out:
            raise SpecError(f"duplicate key {key!r}", line_no)
        else:
            out[key] = (line_no, value)
    return out


def _require(entries: dict, key: str, section: _Section):
    if key not in entries:
        raise SpecError(f"[{section.kind} {section.name or ''}".rstrip()
                        + f"] needs a {key!r} entry", section.line)
    return entries[key]


def _build_chart(section: _Section) -> Chart:
    """The chart of the [chart] section.  Each entry is checked against the
    ones before it, in the order coords, box, basepoint, each disk, so an
    error names the line of the entry that made the chart invalid: a disk
    that covers the basepoint, given or the box's centre, names the disk."""
    entries = _entry_map(section, ("coords", "box", "disk", "basepoint"),
                         repeatable=("disk",))
    parts: dict = {}

    def checked(line_no: int, **more) -> Chart:
        parts.update(more)
        try:
            return Chart(**parts)
        except ValidationError as e:  # ChartMismatch included
            raise SpecError(str(e), line_no) from None

    line_no, value = _require(entries, "coords", section)
    coords = tuple(c.strip() for c in value.split(","))
    checked(line_no, coords=coords, box=((0.0, 1.0),) * len(coords))
    line_no, value = _require(entries, "box", section)
    box = []
    for row in value.split(";"):
        pair = _floats(row, line_no)
        if len(pair) != 2:
            raise SpecError("box rows are pairs low, high", line_no)
        box.append(tuple(pair))
    chart = checked(line_no, box=tuple(box))
    if "basepoint" in entries:
        line_no, value = entries["basepoint"]
        chart = checked(line_no, basepoint=_floats(value, line_no))
    disks = []
    for line_no, value in entries.get("disk", []):
        nums = _floats(value, line_no)
        if len(nums) != len(coords) + 1:
            raise SpecError("disk is center coordinates then radius", line_no)
        disks.append((tuple(nums[:-1]), nums[-1]))
        chart = checked(line_no, disks=tuple(disks))
    return chart


def _build_connection(section: _Section, chart: Chart) -> Connection:
    n = chart.dim
    zero = const(0.0)
    gamma = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for line_no, key, value in section.entries:
        m = _GAMMA_RE.match(key)
        if not m:
            raise SpecError(f"connection entries look like Gamma k i j = expr,"
                            f" got {key!r}", line_no)
        k, i, j = (int(g) for g in m.groups())
        if max(k, i, j) >= n:
            raise SpecError(f"index out of range for dimension {n}", line_no)
        gamma[k][i][j] = _expr(value, chart.coords, line_no)
    return Connection(chart, tuple(tuple(tuple(r) for r in p) for p in gamma))


def _build_operator(section: _Section, spec: SpecFile) -> DivOperator:
    entries = _entry_map(section, ("kind", "volume", "metric", "connection",
                                   "s", "base", "oneform", "blackbox"))
    line_no, kind = _require(entries, "kind", section)
    if kind not in _OPERATOR_KINDS:
        raise SpecError(f"operator kind must be one of {_OPERATOR_KINDS}",
                        line_no)

    def resolve(key, registry):
        line_no, name = _require(entries, key, section)
        if name not in registry:
            raise SpecError(f"unknown {key} {name!r}", line_no)
        return registry[name]

    if kind == "volume":
        op = div_volume(resolve("volume", spec.volumes))
    elif kind == "metric":
        op = div_metric(resolve("metric", spec.metrics))
    elif kind == "affine":
        op = div_affine(resolve("connection", spec.connections))
    elif kind == "sdensity":
        line_no, s_text = _require(entries, "s", section)
        try:
            s = float(s_text)
        except ValueError:
            raise SpecError(f"s must be a number, got {s_text!r}",
                            line_no) from None
        op = div_sdensity(resolve("volume", spec.volumes), s)
    else:
        op = perturbed_operator(resolve("base", spec.operators),
                                resolve("oneform", spec.oneforms))
    if "blackbox" in entries:
        line_no, flag = entries["blackbox"]
        if flag not in ("true", "false"):
            raise SpecError("blackbox is true or false", line_no)
        if flag == "true":
            op = op.as_blackbox()
    return op


def _build_config(section: _Section) -> dict:
    out: dict = {}
    for key, (line_no, value) in _entry_map(section, _CONFIG_KEYS).items():
        try:
            out[key] = float(value) if key == "tol" else int(value)
        except ValueError:
            raise SpecError(f"bad value for {key}: {value!r}", line_no) from None
    return out


def parse_spec_text(text: str) -> SpecFile:
    """Parse and validate a description given as a string."""
    sections = _split_sections(text)
    charts = [s for s in sections if s.kind == "chart"]
    if not charts:
        raise SpecError("a [chart] section is required", 1)
    if len(charts) > 1:
        raise SpecError("only one [chart] section is allowed", charts[1].line)
    chart = _build_chart(charts[0])
    spec = SpecFile(chart)

    registries = {"volume": spec.volumes, "metric": spec.metrics,
                  "connection": spec.connections, "oneform": spec.oneforms,
                  "field": spec.fields, "loop": spec.loops,
                  "operator": spec.operators}
    seen_config = False
    for section in sections:
        if section.kind == "chart":
            continue
        if section.kind == "config":
            if seen_config:
                raise SpecError("only one [config] section is allowed",
                                section.line)
            seen_config = True
            spec.config = _build_config(section)
            continue
        registry = registries[section.kind]
        if section.name in registry:
            raise SpecError(f"duplicate {section.kind} {section.name!r}",
                            section.line)
        # the line named if building the object exceeds the recursion limit
        line_no = section.line
        try:
            if section.kind == "volume":
                entries = _entry_map(section, ("density",))
                line_no, value = _require(entries, "density", section)
                obj = VolumeForm(chart, _expr(value, chart.coords, line_no))
            elif section.kind == "metric":
                entries = _entry_map(section, ("rows",))
                line_no, value = _require(entries, "rows", section)
                rows = [
                    _expr_list(row, chart.coords, line_no)
                    for row in value.split(";")
                ]
                obj = Metric(chart, tuple(rows))
            elif section.kind == "connection":
                obj = _build_connection(section, chart)
            elif section.kind == "oneform":
                entries = _entry_map(section, ("components",))
                line_no, value = _require(entries, "components", section)
                obj = OneForm(chart, _expr_list(value, chart.coords, line_no))
            elif section.kind == "field":
                entries = _entry_map(section, ("components",))
                line_no, value = _require(entries, "components", section)
                obj = VectorField(chart, _expr_list(value, chart.coords, line_no))
            elif section.kind == "loop":
                entries = _entry_map(section, ("components", "segments"))
                line_no, value = _require(entries, "components", section)
                comps = _expr_list(value, ("t",), line_no)
                segments = None
                if "segments" in entries:
                    seg_line, seg_value = entries["segments"]
                    try:
                        segments = int(seg_value)
                    except ValueError:
                        raise SpecError(f"segments must be an integer, got "
                                        f"{seg_value!r}", seg_line) from None
                obj = Path(chart, comps, segments)
            else:
                obj = _build_operator(section, spec)
        except ValidationError as e:  # ChartMismatch included
            raise SpecError(str(e), section.line) from None
        except RecursionError:
            raise SpecError(_TOO_DEEP, line_no) from None
        registry[section.name] = obj
    return spec


def parse_specfile(path) -> SpecFile:
    """Parse and validate the description file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec_text(handle.read())
