"""Property tests of the command line's file inputs.

Valid quandle, map, group, cocycle and extension-bundle files have
their fields mutated: tokens replaced, swapped, dropped or added, lines
dropped, repeated or inserted.  Whatever the text, `cli.run` must
return exit code 0, 1, 2 or 3, let no exception escape and write at
most one line to standard error.  The --budget and --base values and
the QUANDELIER_BUDGET variable are drawn the same way, and so are
mutated --coeff specs.  The examples are derandomized, so the suite
stays deterministic.
"""

import io
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quandelier import cli, cohomology as coh, quandle as qmod

D3 = qmod.dihedral(3)
Z2 = coh.Coeff.from_invariants([2])


def _emitted(emit, *args):
    buf = io.StringIO()
    emit(*args, buf)
    return buf.getvalue()


BUNDLE = _emitted(cli.emit_extension, coh.extension_from_cocycle(
    D3, Z2, coh.coboundary(D3, Z2, (0, 1, 1))))
VALID = {
    "quandle": _emitted(cli.emit_quandle, D3),
    "map": _emitted(cli.emit_map, (1, 0, 2)),
    "group": "group 3\n1 2 3\n2 3 1\n3 1 2\nidentity 1\n",
    "cocycle": _emitted(cli.emit_cocycle, coh.coboundary(D3, Z2, (1, 0, 0)),
                        D3, (Z2,)),
    "bundle": BUNDLE,
}


def _commands(kind, path, files):
    """Command lines that read a file of the given kind at path."""
    d3 = files["d3"]
    if kind == "quandle":
        return [["validate", path], ["pi1", path], ["pi1", path, "--base", "2"],
                ["h2", path], ["h2c", path, "--coeff", "Z2"],
                ["cover", path, "--universal"], ["cover", path, "--enumerate"],
                ["cover", path, "--check", files["map"], "--target", d3]]
    if kind == "map":
        return [["cover", d3, "--check", path, "--target", d3]]
    if kind == "group":
        return [["h2c", d3, "--coeff", path]]
    if kind == "cocycle":
        return [["ext", d3, "--from-cocycle", path]]
    return [["ext", path, "--extract"],
            ["ext", path, "--equiv", files["bundle"]],
            ["ext", files["bundle"], "--equiv", path]]


SMALL = st.integers(0, 4).map(str)
TOKENS = st.one_of(
    SMALL, SMALL, SMALL, st.integers(-2, 12).map(str),
    st.sampled_from(["quandle", "basepoints", "map", "group", "identity",
                     "cocycle", "over", "extension", "coeff", "action",
                     "Z1", "Z2", "Z3", "Z2xZ2", "Q8", "0,1", "1,", ",",
                     "x", "#", "1.5", "-", "é", "+1", "+3", "0_1",
                     "0_3"]))


@st.composite
def mutated(draw, text):
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        # most mutations keep the shape, so that they reach past parsing
        kind = draw(st.sampled_from(["replace"] * 3 + ["swap"] * 2 + [
            "drop token", "add token", "drop line", "repeat line",
            "insert line"]))
        if not lines:
            lines.append([])
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if kind == "replace" and line:
            line[draw(st.integers(0, len(line) - 1))] = draw(TOKENS)
        elif kind == "swap" and line:
            other = lines[draw(st.integers(0, len(lines) - 1))]
            if other:
                j = draw(st.integers(0, len(line) - 1))
                k = draw(st.integers(0, len(other) - 1))
                line[j], other[k] = other[k], line[j]
        elif kind == "drop token" and line:
            del line[draw(st.integers(0, len(line) - 1))]
        elif kind == "add token":
            line.insert(draw(st.integers(0, len(line))), draw(TOKENS))
        elif kind == "drop line":
            del lines[i]
        elif kind == "repeat line":
            lines.insert(i, list(line))
        elif kind == "insert line":
            lines.insert(i, draw(st.lists(TOKENS, max_size=4)))
    return "".join(" ".join(line) + "\n" for line in lines)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("d3", VALID["quandle"]), ("map", VALID["map"]),
                       ("bundle", BUNDLE)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    paths["mutated"] = str(tmp_path / "mutated.txt")
    return paths


@pytest.mark.parametrize("kind", sorted(VALID))
@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_files_end_in_an_exit_code(files, kind, data):
    text = data.draw(mutated(VALID[kind]))
    path = files["mutated"]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    # no field reads a '+' or an '_', so a file holding one never succeeds
    signed = any(c in line.split("#", 1)[0]
                 for line in text.splitlines() for c in "+_")
    for argv in _commands(kind, path, files):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv + ["--budget", "2000"], out=out, err=err)
        assert code in (0, 1, 2, 3), (argv, text)
        assert not (signed and code == 0), (argv, text)
        assert err.getvalue().count("\n") <= 1, (argv, text, err.getvalue())


@pytest.mark.parametrize("kind", sorted(VALID))
def test_unmutated_input_files_succeed(files, kind):
    path = files["mutated"]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(VALID[kind])
    for argv in _commands(kind, path, files):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(argv, out=out, err=err) == 0, (argv, err.getvalue())


NUMBERS = st.one_of(
    st.integers(-3, 5).map(str), st.integers(-3, 5).map(str),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["", " ", "x", "1e3", "0x10", " 7 ", "+4", "1_000",
                     "٣", "--", "-x", "é", "2.0"]))


def _as_int(text):
    try:
        return int(text)
    except ValueError:
        return None


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_budget_and_base_values_end_in_an_exit_code(files, data):
    # argparse's usage errors keep their own format (test_cli pins it);
    # any other failure is one line, and a budget below 1 from either
    # source is a parse error
    argv = list(data.draw(st.sampled_from(
        _commands("quandle", files["d3"], files))))
    budget = data.draw(st.none() | NUMBERS)
    if budget is not None:
        argv += ["--budget", budget]
    if argv[0] == "pi1" and data.draw(st.booleans()):
        argv += ["--base", data.draw(NUMBERS)]
    env = data.draw(st.none() | NUMBERS)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if env is None:
            patch.delenv("QUANDELIER_BUDGET", raising=False)
        else:
            patch.setenv("QUANDELIER_BUDGET", env)
        code = cli.run(argv, out=out, err=err)
    message = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, env)
    if message.startswith("usage: "):
        assert code == 3
        return
    assert message.count("\n") <= 1, (argv, env, message)
    assert code != 3 or message, (argv, env)
    effective = _as_int(budget) if budget is not None else (
        1 if env is None else _as_int(env))
    if effective is not None and effective < 1:
        assert code == 3 and "budget must be positive" in message


SPEC_PIECES = st.sampled_from(list("Zx0123456789") + [
    "Z", "x", "+", " ", "_", "-", ",", "٣", "é", "99999999999999"])


@st.composite
def coeff_specs(draw):
    """A valid invariant-factor spec with characters replaced, inserted
    or deleted."""
    chars = list(draw(st.sampled_from(
        ["Z2", "Z4", "Z2xZ2", "Z2xZ4", "Z3xZ6", "Z2xZ2xZ2", "Z64"])))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        i = draw(st.integers(0, len(chars)))
        if kind == "insert":
            chars.insert(i, draw(SPEC_PIECES))
        elif i < len(chars):
            if kind == "replace":
                chars[i] = draw(SPEC_PIECES)
            else:
                del chars[i]
    return "".join(chars)


def _readable_spec(spec):
    """Whether spec is a chain Z<d1>x...xZ<dk> of ASCII-digit factors,
    each at least 2 and dividing the next, of order at most 64."""
    if not re.fullmatch(r"Z[0-9]+(xZ[0-9]+)*", spec):
        return False
    factors = [int(part) for part in spec[1:].split("xZ")]
    return (min(factors) >= 2 and math.prod(factors) <= 64
            and all(b % a == 0 for a, b in zip(factors, factors[1:])))


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_coeff_specs_end_in_an_exit_code(files, tmp_path, data):
    # a spec that is not a readable chain is a one-line parse error; a
    # spec not starting with Z names a group file, here a missing one
    spec = data.draw(coeff_specs())
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path)
        code = cli.run(["h2c", files["d3"], "--coeff", spec], out=out,
                       err=err)
    message = err.getvalue()
    if message.startswith("usage: "):
        assert code == 3 and spec.startswith("-"), spec
        return
    assert message.count("\n") <= 1, (spec, message)
    if _readable_spec(spec):
        assert (code, message) == (0, ""), spec
    else:
        assert code == 3 and message.startswith("parse error: "), spec
