"""Property tests of the command line's file inputs.

Valid quandle, map, group, cocycle and extension-bundle files have
their fields mutated: tokens replaced, swapped, dropped or added, lines
dropped, repeated or inserted.  Whatever the text, `cli.run` must
return exit code 0, 1, 2 or 3, let no exception escape and write at
most one line to standard error.  The --budget and --base values and
the QUANDELIER_BUDGET variable are drawn the same way, and so are
mutated --coeff specs, and whole command lines of subcommands and
options.  Rows of tables, actions and cocycles that mix canonical
labels with other spellings must read as the entry-by-entry reference
in oracles.py reads them.  The examples are derandomized, so the suite
stays deterministic.
"""

import io
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quandelier import cli, cohomology as coh, quandle as qmod
from quandelier.errors import ParseError
import oracles

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
    """The integer the command line reads: ASCII digits with an
    optional leading '-', or None."""
    digits = text[1:] if text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_budget_and_base_values_end_in_an_exit_code(files, data):
    # every failure is one line; an option value that is not an integer
    # and a second --base are parse errors, and so, when the values
    # read, is a budget below 1 from either source
    argv = list(data.draw(st.sampled_from(
        _commands("quandle", files["d3"], files))))
    budget = data.draw(st.none() | NUMBERS)
    if budget is not None:
        argv += ["--budget", budget]
    base = None
    if argv[0] == "pi1" and data.draw(st.booleans()):
        base = data.draw(NUMBERS)
        argv += ["--base", base]
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
    assert message.count("\n") <= 1, (argv, env, message)
    assert code != 3 or message, (argv, env)
    values = [v for v in (budget, base) if v is not None]
    if argv.count("--base") > 1 or any(_as_int(v) is None for v in values):
        assert code == 3 and message.startswith("parse error: --"), argv
        return
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
    assert message.count("\n") <= 1, (spec, message)
    if _readable_spec(spec):
        assert (code, message) == (0, ""), spec
    else:
        assert code == 3 and message.startswith("parse error: "), spec


# ---------------------------------------------------------------------------
# the row readers against the entry-by-entry reference

def _outcome(read, *args):
    """What read(*args) returns, or the text of the ParseError it raises."""
    try:
        return read(*args)
    except ParseError as exc:
        return f"parse error: {exc}"


@st.composite
def spelled_rows(draw, canonical, odd, rows, width):
    """rows x width tokens: each canonical(row, column) or, at a rate
    drawn once per block, a token drawn from odd."""
    rate = draw(st.sampled_from([0, 0, 1, 3]))
    return [[draw(odd) if draw(st.integers(0, 9)) < rate
             else draw(canonical(r, c)) for c in range(width)]
            for r in range(rows)]


def _odd_labels(n):
    # padded spellings of a label are read as the label; the rest are
    # out of range or not integers
    return st.one_of(
        st.integers(1, n).map(lambda v: f"0{v}"),
        st.integers(1, n).map(lambda v: f"00{v}"),
        st.sampled_from(["007", "-0", "-3", "0", str(n + 1), "x", "1,0",
                         "1.0", "-"]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_table_rows_are_read_as_entry_by_entry(data):
    n = data.draw(st.integers(1, 6))
    rows = data.draw(spelled_rows(
        lambda r, c: st.integers(1, n).map(str), _odd_labels(n), n, n))
    lines = [["quandle", str(n)]] + rows

    def reference():
        table = [oracles.table_row_entrywise(row, n) for row in rows]
        return table, None, n + 1
    assert (_outcome(cli._parse_table_block, lines, 0)
            == _outcome(reference)), rows


@pytest.mark.parametrize("spec", ["Z2", "Z4", "Z2xZ2", "Z3xZ6"])
@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cocycle_rows_are_read_as_entry_by_entry(tmp_path, spec, data):
    # the diagonal is mostly the identity, so that most files parse
    coeff = cli.parse_abelian_spec(spec)
    texts = [",".join(map(str, label)) for label in coeff.labels]
    odd = st.sampled_from(["00", "-0", "-2", "4", "6", "007", "x", "1,0",
                           "0,0", "0,0,0", ",", "1,", ",1", "0,-1", "01,1"])

    def canonical(a, b):
        return st.sampled_from(texts[:1] if a == b else texts)
    rows = data.draw(spelled_rows(canonical, odd, D3.n, D3.n))
    path = tmp_path / "c.txt"
    path.write_text(f"cocycle 3 over {spec}\n"
                    + "".join(" ".join(row) + "\n" for row in rows))

    def read():
        return cli.parse_cocycle_file(str(path), D3)[0]

    def reference():
        values = tuple(tuple(oracles.cocycle_entry_entrywise(t, coeff)
                             for t in row) for row in rows)
        for a in range(D3.n):
            if values[a][a] != coeff.identity:
                raise ParseError(f"diagonal entry at {a + 1} is not the "
                                 f"identity")
        return values
    assert _outcome(read) == _outcome(reference), rows


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_action_rows_are_read_as_entry_by_entry(tmp_path, data):
    lines = BUNDLE.splitlines()
    first = lines.index("action 1") + 1
    perms = [line.split() for line in lines[first:]]
    n = len(perms[0])
    rows = data.draw(spelled_rows(lambda r, c: st.just(perms[r][c]),
                                  _odd_labels(n), len(perms), n))
    path = tmp_path / "b.txt"
    path.write_text("\n".join(lines[:first] + [" ".join(row) for row in rows])
                    + "\n")

    def read():
        return cli.parse_extension_bundle(str(path)).action

    def reference():
        action = []
        for row in rows:
            perm = oracles.action_row_entrywise(row)
            if sorted(perm) != list(range(n)):
                raise ParseError("action 1 line is not a permutation")
            action.append(perm)
        return (tuple(action),)
    assert _outcome(read) == _outcome(reference), rows


# ---------------------------------------------------------------------------
# command lines

def _options(files):
    """Options by the subcommand that takes them, each with its value if
    it takes one; under None, options that are misspelt, take no value
    or are missing theirs, and stray arguments."""
    budget = [["--budget", "3000"], ["--budget", "1"], ["--budget=2000"]]
    return {
        "validate": budget,
        "pi1": budget + [["--base", "2"], ["--base", "9"]],
        "h2": budget,
        "h2c": budget + [["--coeff", "Z2"], ["--coeff", files["group"]],
                         ["--coeff", files["missing"]]],
        "cover": budget + [
            ["--universal"], ["--enumerate"], ["--check", files["map"]],
            ["--check", files["missing"]], ["--target", files["d3"]],
            ["--target", files["missing"]]],
        "ext": budget + [
            ["--from-cocycle", files["cocycle"]],
            ["--from-cocycle", files["missing"]], ["--extract"],
            ["--equiv", files["bundle"]], ["--equiv", files["d3"]]],
        None: [["-h"], ["--help"], ["--nope"], ["-x"], ["--universa"],
               ["--budget"], ["--base"], ["--"], [files["d3"]]],
    }


@st.composite
def command_lines(draw, files, tmp_path, reorder=False):
    """A subcommand, or a stray word or option, then mostly an input
    path, then up to four options: its own, other subcommands' and
    none's.  With reorder, the path and the options come in a drawn
    order."""
    options = _options(files)
    command = draw(st.sampled_from(
        [c for c in options if c] * 3 + ["", "valid", "-h", "--budget"]))
    units = []
    if draw(st.integers(0, 9)):
        units.append([draw(st.sampled_from(
            [files["d3"], files["bundle"], files["map"], files["missing"],
             str(tmp_path)]))])
    own = st.sampled_from(options.get(command, options[None]))
    other = st.sampled_from(sum(options.values(), []))
    units += draw(st.lists(st.one_of(own, own, own, other), max_size=4))
    if reorder:
        units = draw(st.permutations(units))
    return [command] + sum(units, [])


@pytest.fixture
def line_files(files, tmp_path):
    """files, with a missing path and valid group and cocycle files."""
    files = dict(files, missing=str(tmp_path / "missing.txt"))
    for kind in ("group", "cocycle"):
        path = tmp_path / f"{kind}.txt"
        path.write_text(VALID[kind])
        files[kind] = str(path)
    return files


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_command_lines_end_in_an_exit_code(line_files, tmp_path, data):
    # subcommands with their own options, options of other subcommands
    # and of none, repeated or conflicting, -h, missing files and
    # --target without --check, their arguments in drawn orders: every
    # failure is one line on standard error
    argv = data.draw(command_lines(line_files, tmp_path,
                                   reorder=data.draw(st.booleans())))
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    message = err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert message.count("\n") <= 1, (argv, message)
    assert code != 3 or message, argv
    assert code != 0 or not message, (argv, message)


def _canonical(files):
    """Each subcommand as README.md and the benchmark write it: its name,
    its input file and its options, each a list of arguments."""
    d3, bundle = files["d3"], files["bundle"]
    return [[["validate"], [d3]], [["pi1"], [d3]],
            [["pi1"], [d3], ["--base", "2"]], [["h2"], [d3]],
            [["h2c"], [d3], ["--coeff", "Z2"]],
            [["cover"], [d3], ["--universal"]],
            [["cover"], [d3], ["--enumerate"]],
            [["cover"], [d3], ["--check", files["map"]], ["--target", d3]],
            [["ext"], [d3], ["--from-cocycle", files["cocycle"]]],
            [["ext"], [bundle], ["--extract"]],
            [["ext"], [bundle], ["--equiv", bundle]]]


def test_canonical_command_lines_are_read_directly(line_files):
    # each reads into its subcommand, its input file and its option
    # values, with None for the options it does not give, and succeeds
    for units in _canonical(line_files):
        for extra in ([], [["--budget", "5000"]]):
            (command,), (path,), *options = units + extra
            expected = {"command": command, "quandle": path}
            for option in cli.GRAMMAR[command][1]:
                expected[option.dest] = None
            for flag, *value in options:
                expected[flag[2:].replace("-", "_")] = (
                    int(value[0]) if value[0].isdigit() else value[0]
                ) if value else True
            line = sum(units + extra, [])
            assert vars(cli._direct_args(line)) == expected, line
            assert _outcome_of(line)[0] == 0, line


def _outcome_of(argv):
    out, err = io.StringIO(), io.StringIO()
    return cli.run(argv, out=out, err=err), out.getvalue(), err.getvalue()
