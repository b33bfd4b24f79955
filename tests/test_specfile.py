"""Description-file parsing: happy paths and line-numbered failures."""

import pytest

from divkit.errors import SpecError
from divkit.expr import Expr
from divkit.geometry import OneForm, Path, VectorField, VolumeForm
from divkit.operators import Connection, DivOperator, Metric
from divkit.specfile import parse_spec_text, parse_specfile

MINIMAL = """
[chart]
coords = x, y
box = -1, 1; -1, 1

[volume flat]
density = 1
"""


def test_minimal_file():
    spec = parse_spec_text(MINIMAL)
    assert spec.chart.coords == ("x", "y")
    assert spec.chart.box == ((-1.0, 1.0), (-1.0, 1.0))
    assert spec.chart.basepoint == (0.0, 0.0)
    assert isinstance(spec.volumes["flat"], VolumeForm)
    assert spec.config == {}


def test_fixture_files_load(tmp_path):
    import pathlib
    here = pathlib.Path(__file__).parent / "data"
    box = parse_specfile(here / "box.dvk")
    assert set(box.operators) == {"D0", "D", "D_bad", "D_half", "D_opaque"}
    assert box.operators["D_half"].weight == 0.5
    assert box.operators["D_opaque"].kind == "blackbox"
    assert box.config == {"seed": 0, "tol": 1e-6}
    annulus = parse_specfile(here / "annulus.dvk")
    assert annulus.chart.disks == (((0.0, 0.0), 0.2),)
    assert isinstance(annulus.loops["circle"], Path)
    polar = parse_specfile(here / "polar.dvk")
    assert isinstance(polar.metrics["g"], Metric)
    assert isinstance(polar.connections["lc"], Connection)
    assert isinstance(polar.fields["radial"], VectorField)


def test_chart_with_disks_and_basepoint():
    spec = parse_spec_text("""
[chart]
coords = x, y
box = -1, 1; -1, 1
disk = 0, 0, 0.2
basepoint = 0.6, 0
""")
    assert spec.chart.disks == (((0.0, 0.0), 0.2),)
    assert spec.chart.basepoint == (0.6, 0.0)


def test_connection_entries_default_to_zero():
    spec = parse_spec_text("""
[chart]
coords = x, y
box = -1, 1; -1, 1

[connection c]
Gamma 0 1 1 = x
""")
    gamma = spec.connections["c"].gamma
    assert str(gamma[0][1][1]) == "x"
    assert all(gamma[k][i][j].value == 0.0
               for k in range(2) for i in range(2) for j in range(2)
               if (k, i, j) != (0, 1, 1))


def test_operator_chain_and_helpers():
    spec = parse_spec_text(MINIMAL + """
[oneform e]
components = 2*x, -1

[operator base]
kind = volume
volume = flat

[operator shifted]
kind = perturbed
base = base
oneform = e
""")
    op = spec.operator("shifted")
    assert isinstance(op, DivOperator) and op.kind == "perturbed"
    assert spec.volume("flat") is spec.volumes["flat"]
    from divkit.errors import ValidationError
    with pytest.raises(ValidationError):
        spec.operator("nope")
    with pytest.raises(ValidationError):
        spec.volume("nope")


@pytest.mark.parametrize("text,line,fragment", [
    ("[chart]\ncoords = x\nbox = 0, 1\n[chart]\ncoords = y\nbox = 0, 1",
     4, "one [chart]"),
    ("[volume v]\ndensity = 1", 1, "required"),
    ("[chart]\ncoords = x, y\nbox = -1, 1; -1, 1\n[volume v]\ndensity = x",
     4, "positive"),
    ("[chart]\ncoords = x, y\nbox = -1, 1; -1, 1\n[volume v]\ndensity = x +* 1",
     5, "bad expression"),
    ("[chart]\ncoords = x\nbox = 0, 1\nshape = round", 4, "unknown key"),
    ("[chart]\ncoords = x\nbox = 0, 1\n[operator D]\nkind = volume\nvolume = q",
     6, "unknown volume"),
    ("[chart]\ncoords = x\nbox = 0, 1\n[operator D]\nkind = fancy",
     5, "kind"),
    ("[chart]\ncoords = x, y\nbox = 0, 1; 0, 1\n[connection c]\nGamma 0 0 5 = x",
     5, "out of range"),
    ("[chart]\ncoords = x, y\nbox = 0, 1; 0, 1\n[connection c]\nfoo = x",
     5, "Gamma k i j"),
    ("[chart]\ncoords = x\nbox = 0, 1\n[volume]\ndensity = 1", 4, "needs a name"),
    ("[chart]\ncoords = x\nbox = 0, 1\n[config]\nseed = 1\n[config]\nseed = 2",
     6, "one [config]"),
    ("density = 1\n[chart]\ncoords = x\nbox = 0, 1", 1, "before any section"),
    ("[chart]\ncoords = x\nbox = 0, 1\njust words", 4, "key = value"),
    ("[chart]\ncoords = x\nbox = 0, 1, 2", 3, "pairs"),
    ("[chart]\ncoords = x\nbox = 0, 1\n[widget w]\nsize = 3", 4, "unknown section"),
    ("[chart]\ncoords = x\nbox = 0, 1\n[volume v]\ndensity = 1\n"
     "[volume v]\ndensity = 2", 6, "duplicate volume"),
    ("[chart]\ncoords = x\nbox = 0, 1\n[volume v]\ndensity = 1\ndensity = 2",
     6, "duplicate key"),
    ("[chart]\ncoords = x\nbox = 0, 1\n[config]\nshiny = 1", 5, "in [config]"),
    ("[chart]\ncoords = x\nbox = zero, one", 3, "numbers"),
], ids=lambda v: repr(v)[:26] if isinstance(v, str) else str(v))
def test_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(SpecError) as err:
        parse_spec_text(text)
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize("entries,line,fragment", [
    ("coords = x, x\nbox = -1, 1; -1, 1", 2, "distinct"),
    ("coords = x, y\nbox = 1, -1; -1, 1", 3, "invalid box interval"),
    ("coords = x, y\nbox = -1, 1\nbasepoint = 0.5, 0", 3, "one interval"),
    ("coords = x, y\nbox = -1, 1; -1, 1\nbasepoint = 0.6", 4, "dimension"),
    ("coords = x, y\nbox = -1, 1; -1, 1\nbasepoint = 0.6, 0\n"
     "disk = 0.6, 0, 0.2", 5, "basepoint lies outside"),
    ("coords = x, y\nbox = -1, 1; -1, 1\ndisk = 0.5, 0.5, 0.2\n"
     "disk = 0, 0, 0.2", 5, "basepoint lies outside"),
    ("coords = x, y\nbox = -1, 1; -1, 1\ndisk = 0.5, 0.5, 0.2\n"
     "disk = 0.5, -0.5, 0", 5, "radius"),
], ids=["coords", "box", "box-size", "basepoint", "disk-over-basepoint",
        "disk-over-centre", "second-disk"])
def test_chart_errors_name_the_entry_line(entries, line, fragment):
    # each [chart] entry is checked against those before it, in the order
    # coords, box, basepoint, each disk; a disk over the basepoint is named
    with pytest.raises(SpecError) as err:
        parse_spec_text("[chart]\n" + entries)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_comments_and_blank_lines_ignored():
    spec = parse_spec_text("""
# leading comment
[chart]
coords = x, y   # trailing comment
box = -1, 1; -1, 1

[volume flat]   # named section
density = 1  # positive everywhere
""")
    assert spec.chart.coords == ("x", "y")
    assert isinstance(spec.volumes["flat"].density, Expr)


def test_loop_segments_parse():
    spec = parse_spec_text(MINIMAL + """
[loop ell]
components = 0.5*cos(6.28*t), 0.5*sin(6.28*t)
segments = 16
""")
    assert spec.loops["ell"].segments == 16


def test_blackbox_flag_validation():
    with pytest.raises(SpecError) as err:
        parse_spec_text(MINIMAL + """
[operator D]
kind = volume
volume = flat
blackbox = maybe
""")
    assert "true or false" in str(err.value)


def test_oneform_section_builds():
    spec = parse_spec_text(MINIMAL + """
[oneform w]
components = -y, x
""")
    assert isinstance(spec.oneforms["w"], OneForm)
