"""Every input ends in a documented exit code (0-3), never in a traceback.

Deep expressions exceed Python's recursion limit somewhere in parsing,
validation, simplification or evaluation; the spec loader reports them as a
line-numbered SpecError and the CLI maps whatever is left to exit code 2.
The fuzz tests mutate the shipped description files and splice very deep
expressions into them.
"""

import contextlib
import io
import pathlib

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from divkit import cli
from divkit.cli import main
from divkit.errors import SpecError
from divkit.specfile import SpecFile, parse_spec_text

DATA = pathlib.Path(__file__).parent / "data"
SOURCES = {p.name: p.read_text() for p in sorted(DATA.glob("*.dvk"))}

# light subcommands per file: a handful of points or grid segments each
COMMANDS = {
    "box.dvk": (["divergence", "D", "dilation", "--points", "8"],
                ["integrate-vanish", "weighted", "--resolution", "8"]),
    "annulus.dvk": (["integrate-vanish", "D_exact", "--resolution", "8"],
                    ["integrate-vanish", "flat", "--resolution", "8"]),
    "polar.dvk": (["verify-kn", "area", "lc", "--points", "8"],
                  ["divergence", "D_g", "radial", "--points", "8"]),
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _box_with_density(value):
    lines = SOURCES["box.dvk"].splitlines()
    line_no = lines.index("density = exp(x^2 - y)") + 1
    lines[line_no - 1] = f"density = {value}"
    return "\n".join(lines) + "\n", line_no


def _assert_too_deep(tmp_path, value):
    text, line_no = _box_with_density(value)
    path = tmp_path / "deep.dvk"
    path.write_text(text)
    code, _, err = run_main(["integrate-vanish", "--spec", str(path), "weighted"])
    assert code == 2
    assert err.strip() == f"error: line {line_no}: expression nested too deeply"
    assert "Traceback" not in err


def test_long_density_exits_two(tmp_path):
    _assert_too_deep(tmp_path, "10000 + " + " + ".join(f"{k}*x" for k in range(1, 1501)))


def test_nested_parentheses_exit_two(tmp_path):
    _assert_too_deep(tmp_path, "(" * 1200 + "exp(x^2 - y)" + ")" * 1200)


def test_recursion_left_after_parsing_exits_two(monkeypatch):
    # a subcommand whose symbolic work recurses too deep
    def recurse(spec, args):
        return recurse(spec, args)

    monkeypatch.setitem(cli._COMMANDS, "check-axioms", recurse)
    code, out, err = run_main(["check-axioms", "--spec", str(DATA / "box.dvk"), "D"])
    assert code == 2
    assert out == ""
    assert err == "error: expression nested too deeply\n"


def test_out_of_memory_exits_two(monkeypatch):
    # a request too large for memory, such as --points 100000000, is a
    # usage error: exit 1 would read as a negative verdict
    def exhaust(spec, args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "integrate-vanish", exhaust)
    code, out, err = run_main(["integrate-vanish", "--spec", str(DATA / "box.dvk"),
                               "weighted"])
    assert code == 2
    assert out == ""
    assert err == ("error: not enough memory for this request "
                   "(lower --points or --resolution)\n")


@pytest.mark.parametrize("argv", [["classify", "D", "D0"],
                                  ["integrate-vanish", "weighted"]])
def test_box_width_that_overflows_exits_two(tmp_path, argv):
    # both ends are finite, but b - a is not
    path = tmp_path / "wide.dvk"
    path.write_text(SOURCES["box.dvk"].replace("box = -1, 1; -1, 1",
                                               "box = -1e308, 1e308; -1, 1"))
    code, out, err = run_main([argv[0], "--spec", str(path), *argv[1:]])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "box interval" in err


# ---------------------------------------------------------------------------
# fuzzing

_ALPHABET = "xyrt()+-*/^=,;.#[] \n0123456789eE_abdefgklnopsuvw"


@st.composite
def mutated_specs(draw):
    """A shipped file with a few characters deleted, inserted or replaced."""
    name = draw(st.sampled_from(sorted(SOURCES)))
    text = SOURCES[name]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        ch = draw(st.sampled_from(_ALPHABET))
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return name, text


def _expression_lines(text):
    """(line index, variable) for each density or component entry."""
    out = []
    coords = ["x"]
    section = None
    for i, line in enumerate(text.splitlines()):
        if line.startswith("["):
            section = line.strip("[]").split()[0]
        elif line.startswith("coords"):
            coords = [c.strip() for c in line.split("=", 1)[1].split(",")]
        elif line.startswith(("density", "components")):
            out.append((i, "t" if section == "loop" else coords[0]))
    return out


@st.composite
def deep_specs(draw):
    """A shipped file with one density or component made very long or deep."""
    name = draw(st.sampled_from(sorted(SOURCES)))
    lines = SOURCES[name].splitlines()
    i, v = draw(st.sampled_from(_expression_lines(SOURCES[name])))
    n = draw(st.integers(min_value=1, max_value=2000))
    shape = draw(st.sampled_from(("sum", "product", "parens")))
    if shape == "sum":
        deep = " + ".join(f"{k}*{v}" for k in range(1, n + 1))
    elif shape == "product":
        deep = "*".join([v] * n)
    else:
        deep = "(" * n + v + ")" * n
    key, value = lines[i].split("=", 1)
    rest = value.split(",", 1)[1:]
    lines[i] = f"{key}= " + ",".join([deep] + rest)
    return name, "\n".join(lines) + "\n"


specs = st.one_of(mutated_specs(), deep_specs())


@settings(max_examples=400, deadline=None)
@given(specs)
def test_parse_spec_text_raises_only_spec_errors(case):
    _, text = case
    try:
        assert isinstance(parse_spec_text(text), SpecFile)
    except SpecError:
        pass


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs, st.integers(min_value=0, max_value=1))
def test_main_ends_in_documented_exit_code(tmp_path_factory, case, which):
    name, text = case
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(text)
    command, *rest = COMMANDS[name][which]
    code, _, err = run_main([command, "--spec", str(path), *rest])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
