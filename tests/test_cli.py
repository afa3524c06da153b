import hashlib
import io
import random
import tracemalloc
from collections import Counter

import pytest

from quandelier import (cli, cohomology as coh, fpgroup, fundamental as fund,
                        quandle as qmod)
from quandelier.errors import NotACocycle
from conftest import (relabelled_coeff, symmetric_group,
                      transposition_quandle, transpositions_on_pairs)
from oracles import cohomology_classes, right_cosets


def write_quandle(tmp_path, name, quandle):
    path = tmp_path / name
    buf = io.StringIO()
    cli.emit_quandle(quandle, buf)
    path.write_text(buf.getvalue())
    return str(path)


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(tmp_path):
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    code, out, _ = run(["validate", path])
    assert code == 0
    assert out == "ok n=3 components=1 connected=true\n"


def test_validate_disconnected(tmp_path):
    path = write_quandle(tmp_path, "q.txt", qmod.q_mn(2, 2))
    code, out, _ = run(["validate", path])
    assert code == 0
    assert out == "ok n=4 components=2 connected=false\n"


def test_validate_axiom_violation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("quandle 2\n2 1\n2 2\n")
    code, out, _ = run(["validate", str(path)])
    assert code == 1
    assert out == "Q1 violated at a=1\n"


def test_validate_parse_error(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("quandel 3\n")
    code, _, err = run(["validate", str(path)])
    assert code == 3
    assert "parse error" in err


def test_missing_file_is_parse_error():
    code, _, err = run(["validate", "/nonexistent/q.txt"])
    assert code == 3


def test_non_ascii_file_is_parse_error(tmp_path):
    # a decoding error is a parse error, not a semantic failure
    path = tmp_path / "q.txt"
    path.write_bytes("quandle 1\n1\n# café\n".encode("utf-8"))
    code, out, err = run(["validate", str(path)])
    assert (code, out) == (3, "")
    assert err == f"parse error: {path} is not ASCII at byte 17\n"


# ---------------------------------------------------------------------------
# pi1 / h2 / h2c


def test_pi1_odd_dihedral(tmp_path):
    path = write_quandle(tmp_path, "d5.txt", qmod.dihedral(5))
    code, out, _ = run(["pi1", path])
    assert code == 0
    assert out == "pi1 order=1 ab=rank 0 torsion -\n"


def test_pi1_s4_quandle(tmp_path):
    path = write_quandle(tmp_path, "s4.txt", transposition_quandle(4))
    code, out, _ = run(["pi1", path])
    assert code == 0
    assert out == "pi1 order=2 ab=rank 0 torsion 2\n"


def test_pi1_budget_exit(tmp_path):
    path = write_quandle(tmp_path, "q22.txt", qmod.q_mn(2, 2))
    code, out, _ = run(["pi1", path, "--budget", "3000"])
    assert code == 2
    assert out == "pi1 order=unknown(budget) ab=rank 1 torsion 2\n"


def test_pi1_abelianises_without_rotation_classes(tmp_path, monkeypatch):
    # pi_1 is abelianised as pi1_presentation leaves it, and only its
    # enumeration canonicalises relators into rotation classes: a
    # disconnected input, never enumerated, canonicalises none
    least, calls = fpgroup.least_rotation, []
    monkeypatch.setattr(fpgroup, "least_rotation",
                        lambda w: calls.append(w) or least(w))
    path = write_quandle(tmp_path, "t2.txt", qmod.trivial(2))
    assert run(["pi1", path]) == (
        2, "pi1 order=unknown(budget) ab=rank 1 torsion -\n", "")
    assert calls == []
    path = write_quandle(tmp_path, "s4.txt", transposition_quandle(4))
    assert run(["pi1", path])[0] == 0 and len(calls) > 0


def test_disconnected_exits_at_once_at_default_budget(tmp_path):
    # certified infinite: no enumeration runs up the default budget
    path = write_quandle(tmp_path, "d4.txt", qmod.dihedral(4))
    code, out, err = run(["pi1", path])
    assert code == 2
    assert out.startswith("pi1 order=unknown(budget) ab=")
    assert err == ""
    code, out, err = run(["cover", path, "--universal"])
    assert code == 2
    assert out == ""
    assert err == ("budget exceeded: degree-zero adjoint subgroup is "
                   "infinite: the quandle has 2 connected components\n")


def test_parser_keeps_no_state_between_runs(tmp_path):
    path = write_quandle(tmp_path, "t1.txt", qmod.trivial(1))
    assert cli.build_parser() is cli.build_parser()
    code, _, err = run(["pi1", path, "--base", "2"])
    assert code == 3
    assert "basepoint 2" in err
    # the second run falls back to the default basepoint
    code, out, _ = run(["pi1", path])
    assert code == 0
    assert out == "pi1 order=1 ab=rank 0 torsion -\n"


def test_usage_error_goes_to_the_given_err_stream(capsys):
    assert run(["pi1"]) == (3, "", "parse error: pi1 needs an input file\n")
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_out_stream(capsys):
    code, out, err = run(["--help"])
    assert code == 0
    assert out.startswith("usage: quandelier")
    assert "universal cover, covering census" in out
    assert err == ""
    assert capsys.readouterr() == ("", "")


# each command line GRAMMAR does not read, with its one-line reason;
# D3 stands for a quandle file, MISSING for a path that does not exist
ONE_OF = {"cover": "--universal, --enumerate, --check",
          "ext": "--from-cocycle, --extract, --equiv"}
NOT_READ = [
    ([], "expected a command (validate, pi1, h2, h2c, cover, ext), got ''"),
    (["valid", "D3"], "expected a command (validate, pi1, h2, h2c, cover, "
                      "ext), got 'valid'"),
    (["D3", "validate"], "expected a command (validate, pi1, h2, h2c, "
                         "cover, ext), got 'D3'"),
    (["validate"], "validate needs an input file"),
    (["h2", "--budget", "5"], "h2 needs an input file"),
    (["validate", "MISSING"],
     "cannot read MISSING: No such file or directory"),
    (["validate", "D3", "D3"], "validate takes one input file: 'D3'"),
    (["pi1", "D3", "--nope"], "pi1 has no option '--nope'"),
    (["pi1", "D3", "-x"], "pi1 has no option '-x'"),
    (["cover", "D3", "--univ"], "cover has no option '--univ'"),
    (["pi1", "D3", "--budget=5"], "pi1 has no option '--budget=5'"),
    (["validate", "--", "D3"], "validate has no option '--'"),
    (["h2", "D3", "--coeff", "Z2"], "h2 has no option '--coeff'"),
    (["pi1", "D3", "--base", "1", "--base", "1"], "--base is given twice"),
    (["cover", "D3", "--universal", "--universal"],
     "--universal is given twice"),
    (["pi1", "D3", "--budget"], "--budget needs a value"),
    (["h2c", "D3", "--coeff", "--budget", "5"], "--coeff needs a value"),
    (["pi1", "D3", "--base", "\u0661"], "--base is not an integer: '\u0661'"),
    (["pi1", "D3", "--base", "+1"], "--base is not an integer: '+1'"),
    (["pi1", "D3", "--budget", "1_000"],
     "--budget is not an integer: '1_000'"),
    (["pi1", "D3", "--budget", " 7 "], "--budget is not an integer: ' 7 '"),
    (["h2c", "D3"], "h2c needs exactly one of --coeff"),
    (["cover", "D3"], f"cover needs exactly one of {ONE_OF['cover']}"),
    (["cover", "D3", "--universal", "--check", "D3"],
     f"cover needs exactly one of {ONE_OF['cover']}"),
    (["ext", "D3"], f"ext needs exactly one of {ONE_OF['ext']}"),
    (["ext", "D3", "--extract", "--equiv", "D3"],
     f"ext needs exactly one of {ONE_OF['ext']}"),
]
HELP = [[flag] for flag in ("-h", "--help")] + [
    [command, flag] for command in cli.GRAMMAR
    for flag in ("-h", "--help")]


@pytest.mark.parametrize("argv, message", NOT_READ + [
    (argv, None) for argv in HELP])
def test_each_command_line_ends_in_help_or_one_parse_error(tmp_path, argv,
                                                           message):
    # -h and --help print the help, which names every option, and exit 0;
    # anything else GRAMMAR does not read is one parse error line, exit 3
    names = {"D3": write_quandle(tmp_path, "d3.txt", qmod.dihedral(3)),
             "MISSING": str(tmp_path / "missing.txt")}
    code, out, err = run([names.get(arg, arg) for arg in argv])
    if message is None:
        assert (code, err) == (0, "")
        assert out.startswith("usage: quandelier COMMAND FILE")
        for _, options in cli.GRAMMAR.values():
            assert all(option.flag in out for option in options)
        return
    for name, path in names.items():
        message = message.replace(name, path)
    assert (code, out, err) == (3, "", f"parse error: {message}\n")


def test_default_streams_are_read_at_call_time(tmp_path, capsys):
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    assert cli.run(["validate", path]) == 0
    assert cli.run(["pi1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "ok n=3 components=1 connected=true\n"
    assert captured.err == "parse error: pi1 needs an input file\n"


def test_pi1_explicit_base(tmp_path):
    path = write_quandle(tmp_path, "q22.txt", qmod.q_mn(2, 2))
    code, out, _ = run(["pi1", path, "--base", "3", "--budget", "3000"])
    assert code == 2
    assert "rank 1 torsion 2" in out


def test_h2_per_component(tmp_path):
    path = write_quandle(tmp_path, "q22.txt", qmod.q_mn(2, 2))
    code, out, _ = run(["h2", path])
    assert code == 0
    assert out == ("component 1: rank 1 torsion 2\n"
                   "component 2: rank 1 torsion 2\n")


def test_h2_s4_quandle(tmp_path):
    path = write_quandle(tmp_path, "s4.txt", transposition_quandle(4))
    code, out, _ = run(["h2", path])
    assert code == 0
    assert out == "component 1: rank 0 torsion 2\n"


def test_h2c_connected(tmp_path):
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    code, out, _ = run(["h2c", path, "--coeff", "Z2"])
    assert code == 0
    assert out == "classes=1\n"


def test_h2c_disconnected(tmp_path):
    path = write_quandle(tmp_path, "q22.txt", qmod.q_mn(2, 2))
    code, out, _ = run(["h2c", path, "--coeff", "Z4"])
    assert code == 0
    assert out == ("component 1: classes=8\n"
                   "component 2: classes=8\n")


def test_h2c_group_file(tmp_path):
    # Z2 given as an explicit multiplication table file
    spec = tmp_path / "z2.txt"
    spec.write_text("group 2\n1 2\n2 1\nidentity 1\n")
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    code, out, _ = run(["h2c", path, "--coeff", str(spec)])
    assert code == 0
    assert out == "classes=1\n"


def write_group(tmp_path, name, coeff):
    path = tmp_path / name
    rows = "".join(" ".join(str(c + 1) for c in row) + "\n"
                   for row in coeff.table)
    path.write_text(f"group {coeff.order}\n{rows}"
                    f"identity {coeff.identity + 1}\n")
    return str(path)


def test_h2c_relabelled_group_files_match_their_specs(tmp_path):
    # dihedral(4) has H2 = Z + Z2 on each component, so Z4 and Z2xZ2
    # give different counts; the S4 quandle has H2 = Z2
    rng = random.Random(7)
    outs = {}
    for quandle, name in ((qmod.dihedral(4), "d4"),
                          (transposition_quandle(4), "s4")):
        path = write_quandle(tmp_path, f"{name}.txt", quandle)
        for spec in ("Z4", "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z2xZ2xZ16"):
            table = relabelled_coeff(cli.parse_group_spec(spec), rng)
            group = write_group(tmp_path, f"{spec}.txt", table)
            want = outs[name, spec] = run(["h2c", path, "--coeff", spec])
            assert want[0] == 0
            assert run(["h2c", path, "--coeff", group]) == want
    assert outs["d4", "Z4"] == (0, "component 1: classes=8\n"
                                   "component 2: classes=8\n", "")
    assert outs["d4", "Z2xZ2"] == (0, "component 1: classes=16\n"
                                      "component 2: classes=16\n", "")


def test_h2c_group_file_runs_one_snf_per_component(tmp_path, monkeypatch):
    # the class count reads the group's table; only H2 takes an SNF
    calls = []
    snf = fpgroup._snf_invariants_sparse

    def counted(entries):
        calls.append(len(entries))
        return snf(entries)

    monkeypatch.setattr(fpgroup, "_snf_invariants_sparse", counted)
    group = write_group(tmp_path, "z2xz4.txt",
                        coh.Coeff.from_invariants([2, 4]))
    for quandle, components in ((qmod.dihedral(4), 2),
                                (transposition_quandle(4), 1)):
        calls.clear()
        path = write_quandle(tmp_path, "q.txt", quandle)
        assert run(["h2c", path, "--coeff", group])[0] == 0
        assert len(calls) == components


def test_h2c_bad_spec(tmp_path):
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    code, _, err = run(["h2c", path, "--coeff", "Q8"])
    assert code == 3


@pytest.mark.parametrize("spec, message", [
    ("Z99999999999999", "group specs are limited to 64 elements"),
    ("Z4000", "group specs are limited to 64 elements"),
    ("Z65", "group specs are limited to 64 elements"),
    ("Z4xZ32", "group specs are limited to 64 elements"),
    ("Z2xZ3", "group spec 'Z2xZ3' is not a divisibility chain: "
              "each factor must divide the next"),
    ("Z4xZ2", "group spec 'Z4xZ2' is not a divisibility chain: "
              "each factor must divide the next"),
    ("Z+2", "expected group order, got '+2'"),
    ("Z 2", "expected group order, got ' 2'"),
    ("Z2_0", "expected group order, got '2_0'"),
    ("Z\u0663", "expected group order, got '\u0663'"),
])
def test_bad_coeff_specs_are_parse_errors(tmp_path, spec, message):
    # the order is checked before the group's table is built, and the
    # factors are ASCII digits forming a divisibility chain
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    assert run(["h2c", path, "--coeff", spec]) == (
        3, "", f"parse error: {message}\n")


@pytest.mark.parametrize("spec, classes", [("Z64", 1), ("Z2xZ32", 1)])
def test_coeff_specs_up_to_the_limit_are_read(tmp_path, spec, classes):
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    assert run(["h2c", path, "--coeff", spec]) == (
        0, f"classes={classes}\n", "")


def test_cocycle_file_specs_share_the_limit(tmp_path):
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    cocycle = tmp_path / "c.txt"
    cocycle.write_text("cocycle 3 over Z99999999999999\n"
                       "0 0 0\n0 0 0\n0 0 0\n")
    assert run(["ext", path, "--from-cocycle", str(cocycle)]) == (
        3, "", "parse error: group specs are limited to 64 elements\n")


# ---------------------------------------------------------------------------
# cover


def test_cover_universal_roundtrip(tmp_path):
    path = write_quandle(tmp_path, "s4.txt", transposition_quandle(4))
    code, out, _ = run(["cover", path, "--universal"])
    assert code == 0
    lines = cli._tokens(out)
    cover, pos = cli.parse_quandle_lines(lines, 0)
    mapping, pos = cli.parse_map_lines(lines, pos, cover.n)
    assert pos == len(lines)
    assert cover.n == 12
    projection = qmod.QuandleHom(cover, transposition_quandle(4), mapping)
    assert qmod.is_covering(projection)[0]


def test_cover_enumerate(tmp_path):
    path = write_quandle(tmp_path, "s4.txt", transposition_quandle(4))
    code, out, _ = run(["cover", path, "--enumerate"])
    assert code == 0
    assert out == ("covering 1: fibre=2 galois=true\n"
                   "covering 2: fibre=1 galois=true\n")


def test_cover_enumerate_s5(tmp_path):
    path = write_quandle(tmp_path, "s5.txt", transposition_quandle(5))
    code, out, _ = run(["cover", path, "--enumerate"])
    assert code == 0
    assert len(out.splitlines()) == 6
    # pi_1 = S3: the three index-3 subgroups are not normal
    assert out.count("galois=false") == 3


def test_cover_enumerate_enumerates_once(tmp_path, monkeypatch):
    # the census and its normality checks read one enumeration, pi_1's
    calls = []
    enumerate_ = fpgroup.todd_coxeter

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(fpgroup, "todd_coxeter", counted)
    path = write_quandle(tmp_path, "s5.txt", transposition_quandle(5))
    code, out, _ = run(["cover", path, "--enumerate"])
    assert code == 0
    assert len(out.splitlines()) == 6
    assert len(calls) == 1


def test_cover_enumerate_s6_is_pinned(tmp_path):
    # pi_1 of the S6 transposition quandle is S4: 30 subgroups (OEIS
    # A005432), 4 of them normal (1, V4, A4, S4); a fibre is an index
    path = write_quandle(tmp_path, "s6.txt", transposition_quandle(6))
    code, out, _ = run(["cover", path, "--enumerate"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 30
    fibres = Counter(int(line.split("fibre=")[1].split()[0])
                     for line in lines)
    assert fibres == {1: 1, 2: 1, 3: 3, 4: 4, 6: 7, 8: 4, 12: 9, 24: 1}
    assert out.count("galois=true") == 4


@pytest.mark.parametrize("name, argv, digest", [
    ("s6", ["cover", "--universal"],
     "9290dcf561b13a0aabcb45a0e2a22fa87524c2b5a886170c5070174ea9f892f8"),
    ("c5", ["cover", "--universal"],
     "56bfff7e4280f3694cfd2b27b1e9552f59bae467ea1cbe4505da735da2eda9f0"),
    ("s5", ["cover", "--enumerate"],
     "6bb4230e895eb242296a034e66b10f7189a6d778c7bc1201d7ca0ec629fd08dc"),
    ("c5", ["cover", "--enumerate"],
     "159c2671330f925f93afa6582cbaa6478d14487485644080c8567b3c9e076c6c"),
    ("s7", ["pi1"],
     "a4d432f64b93e08f6d5cb21ae24b5d64f376ad7595d972ec2d7d998ddda63612"),
], ids=["s6-cover-universal", "c5-cover-universal", "s5-cover-enumerate",
        "c5-cover-enumerate", "s7-pi1"])
def test_pi1_numbering_is_pinned_by_the_output_bytes(tmp_path, name, argv,
                                                     digest):
    # the SHA-256 of stdout: a change to pi_1's presentation, its rounds
    # or its coset numbering that reaches the output fails here; the ids
    # name the input and command, so re-recording a digest keeps them
    quandle = {"s5": lambda: transposition_quandle(5),
               "s6": lambda: transposition_quandle(6),
               "s7": lambda: transposition_quandle(7),
               "c5": lambda: qmod.conj_class(symmetric_group(5),
                                             (1, 2, 0, 3, 4))}[name]()
    path = write_quandle(tmp_path, f"{name}.txt", quandle)
    code, out, err = run(argv[:1] + [path] + argv[1:])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("quandle", [
    transposition_quandle(5), transposition_quandle(6),
    qmod.conj_class(symmetric_group(5), (1, 2, 0, 3, 4))],
    ids=["S5", "S6", "conj(S5,3-cycle)"])
def test_cover_enumerate_reads_fibre_sizes_off_the_orders(tmp_path,
                                                         monkeypatch,
                                                         quandle):
    # a covering of a connected quandle has [pi_1 : K] points in every
    # fibre, so the census prints each fibre's size, and whether K is
    # normal, without building a quotient or scanning a fibre
    expected = _census_by_quotients(quandle)
    path = write_quandle(tmp_path, "q.txt", quandle)
    _refuse_quotients(monkeypatch)
    assert run(["cover", path, "--enumerate"]) == (0, expected, "")


def _census_by_quotients(quandle):
    """The lines of `cover --enumerate`, each fibre counted on its
    covering's projection and normality read off the right cosets."""
    q = quandle.basepoints[0]
    pi1 = fund.fundamental_group(quandle, q)
    lines = []
    for j, covering in enumerate(fund.enumerate_connected_coverings(pi1)):
        fibre = len(covering.projection.fibre(q))
        normal = right_cosets(pi1.cayley, covering.subgroup)[1]
        lines.append(f"covering {j + 1}: fibre={fibre} "
                     f"galois={'true' if normal else 'false'}\n")
    return "".join(lines)


def _refuse_quotients(monkeypatch):
    """Patch the quotient builder and the fibre scan to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a quotient was built or a fibre scanned")
    monkeypatch.setattr(fund, "_quotient", refuse)
    monkeypatch.setattr(qmod.QuandleHom, "fibre", refuse)


def test_cover_enumerate_builds_no_quotient_on_the_corpus(tmp_path, corpus,
                                                          monkeypatch):
    # every connected corpus quandle prints the lines its quotients give
    expected = [(name, quandle, _census_by_quotients(quandle))
                for name, quandle in corpus if quandle.is_connected()]
    _refuse_quotients(monkeypatch)
    for name, quandle, lines in expected:
        path = write_quandle(tmp_path, "q.txt", quandle)
        assert run(["cover", path, "--enumerate"]) == (0, lines, ""), name
    assert len(expected) >= 30


def test_s8_census_builds_no_quotient_within_32_mib(tmp_path, monkeypatch):
    # 1455 coverings of the S8 transposition quandle, 3 of them Galois
    # (pi_1 = S6: 1, A6, S6), from pi_1 and its subgroups alone: about
    # 15 MiB, where the quotients would hold 4,668,608 elements
    path = write_quandle(tmp_path, "s8.txt", transpositions_on_pairs(8))
    _refuse_quotients(monkeypatch)
    tracemalloc.start()
    try:
        code, out, err = run(["cover", path, "--enumerate"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1455
    assert out.count("galois=true") == 3
    assert peak < 32 * 2**20, peak


def test_out_of_memory_ends_in_one_line(tmp_path, monkeypatch):
    # the census writes each line as it reaches its covering, so the
    # lines before the failing one stay; the error is one stderr line
    class ThirdLineFails(io.StringIO):
        def write(self, text):
            if text.startswith("covering 3:"):
                raise MemoryError
            return super().write(text)

    path = write_quandle(tmp_path, "s5.txt", transposition_quandle(5))
    out, err = ThirdLineFails(), io.StringIO()
    code = cli.run(["cover", path, "--enumerate"], out=out, err=err)
    assert code == cli.EXIT_BUDGET == 2
    assert out.getvalue() == ("covering 1: fibre=6 galois=true\n"
                              "covering 2: fibre=3 galois=false\n")
    assert err.getvalue() == "budget exceeded: out of memory\n"

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fund, "universal_cover", no_memory)
    assert run(["cover", path, "--universal"]) == (
        2, "", "budget exceeded: out of memory\n")


def test_cover_check_true_and_false(tmp_path):
    d8 = write_quandle(tmp_path, "d8.txt", qmod.dihedral(8))
    d4 = write_quandle(tmp_path, "d4.txt", qmod.dihedral(4))
    d2 = write_quandle(tmp_path, "d2.txt", qmod.dihedral(2))
    map84 = tmp_path / "m84.txt"
    map84.write_text("map 8\n" + " ".join(str(a % 4 + 1)
                                          for a in range(8)) + "\n")
    map82 = tmp_path / "m82.txt"
    map82.write_text("map 8\n" + " ".join(str(a % 2 + 1)
                                          for a in range(8)) + "\n")
    code, out, _ = run(["cover", d8, "--check", str(map84),
                        "--target", d4])
    assert code == 0
    assert out == "covering=true\n"
    code, out, _ = run(["cover", d8, "--check", str(map82),
                        "--target", d2])
    assert code == 1
    assert out.startswith("covering=false witness=")


def test_cover_check_not_surjective(tmp_path):
    d3 = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    d4 = write_quandle(tmp_path, "d4.txt", qmod.dihedral(4))
    # a constant map is a homomorphism that misses every other element
    const = tmp_path / "const.txt"
    const.write_text("map 3\n2 2 2\n")
    code, out, _ = run(["cover", d3, "--check", str(const), "--target", d4])
    assert code == 1
    assert out == "covering=false witness=not-surjective y=1\n"
    const.write_text("map 3\n1 1 1\n")
    code, out, _ = run(["cover", d3, "--check", str(const), "--target", d4])
    assert code == 1
    assert out == "covering=false witness=not-surjective y=2\n"


def test_cover_check_needs_target(tmp_path):
    d8 = write_quandle(tmp_path, "d8.txt", qmod.dihedral(8))
    code, _, err = run(["cover", d8, "--check", d8])
    assert code == 3


# ---------------------------------------------------------------------------
# ext


def _cocycle_file(tmp_path, quandle, f, coeffs, name="coc.txt"):
    buf = io.StringIO()
    cli.emit_cocycle(f, quandle, coeffs, buf)
    path = tmp_path / name
    path.write_text(buf.getvalue())
    return str(path)


def test_ext_from_cocycle_and_extract(tmp_path):
    quandle = transposition_quandle(4)
    base = write_quandle(tmp_path, "s4.txt", quandle)
    pi1 = fund.fundamental_group(quandle, 0)
    order = fund.universal_cover(pi1).pi1.order
    hom = [0 if k == 0 else 1 for k in range(order)]
    z2 = coh.Coeff.from_invariants([2])
    f = coh.cocycle_from_hom(pi1, z2, hom)
    coeffs = coh.graded_coefficients(quandle, z2)
    cpath = _cocycle_file(tmp_path, quandle, f, coeffs)

    code, out, _ = run(["ext", base, "--from-cocycle", cpath])
    assert code == 0
    bundle = tmp_path / "bundle.txt"
    bundle.write_text(out)
    ext = cli.parse_extension_bundle(str(bundle))
    assert ext.total.n == 12

    code, out2, _ = run(["ext", str(bundle), "--extract"])
    assert code == 0
    back = tmp_path / "back.txt"
    back.write_text(out2)
    f2, _ = cli.parse_cocycle_file(str(back), quandle)
    assert coh.are_cohomologous(f, f2, quandle, coeffs) is not None


def test_ext_equiv(tmp_path):
    quandle = qmod.dihedral(3)
    base = write_quandle(tmp_path, "d3.txt", quandle)
    z2 = coh.Coeff.from_invariants([2])
    coeffs = coh.graded_coefficients(quandle, z2)
    _, cocycles = cohomology_classes(quandle, z2)
    paths = []
    for i, f in enumerate(cocycles[:2]):
        cpath = _cocycle_file(tmp_path, quandle, f, coeffs, f"c{i}.txt")
        code, out, _ = run(["ext", base, "--from-cocycle", cpath])
        assert code == 0
        bpath = tmp_path / f"b{i}.txt"
        bpath.write_text(out)
        paths.append(str(bpath))
    code, out, _ = run(["ext", paths[0], "--equiv", paths[1]])
    assert code == 0
    assert out == "equivalent=true\n"


def test_ext_bad_cocycle_rejected(tmp_path, monkeypatch):
    # the cocycle is checked once, by extension_from_cocycle, whose
    # NotACocycle carries the witness the command prints
    base = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    bad = tmp_path / "bad.txt"
    bad.write_text("cocycle 3 over Z2\n0 1 0\n0 0 0\n0 0 0\n")
    f, coeffs = cli.parse_cocycle_file(str(bad), qmod.dihedral(3))
    ok, (a, b, c) = coh.is_cocycle(f, qmod.dihedral(3), coeffs)
    assert not ok
    with pytest.raises(NotACocycle) as caught:
        coh.extension_from_cocycle(qmod.dihedral(3), coeffs, f)
    assert caught.value.witness == (a, b, c)
    checks = []
    is_cocycle = coh.is_cocycle
    monkeypatch.setattr(coh, "is_cocycle",
                        lambda *args: checks.append(1) or is_cocycle(*args))
    code, out, err = run(["ext", base, "--from-cocycle", str(bad)])
    assert (code, out, err) == (
        1, f"cocycle=false witness=a={a + 1} b={b + 1} c={c + 1}\n", "")
    assert checks == [1]


def test_budget_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QUANDELIER_BUDGET", "3000")
    path = write_quandle(tmp_path, "q22.txt", qmod.q_mn(2, 2))
    code, out, _ = run(["pi1", path])
    assert code == 2
    assert "unknown(budget)" in out


def test_non_positive_budget_is_a_parse_error(tmp_path, monkeypatch):
    # one rule for --budget and QUANDELIER_BUDGET, whichever command
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    for command in ("pi1", "h2"):
        assert run([command, path, "--budget", "0"]) == (
            3, "", "parse error: budget must be positive, got 0\n")
    monkeypatch.setenv("QUANDELIER_BUDGET", "-2")
    assert run(["h2", path]) == (
        3, "", "parse error: budget must be positive, got -2\n")
    assert run(["h2", path, "--budget", "5"])[0] == 0


def test_integers_are_ascii_digits_with_an_optional_minus(tmp_path,
                                                         monkeypatch):
    # --base, --budget and QUANDELIER_BUDGET read integers as the input
    # files do: no '+', '_', surrounding space or non-ASCII digit (the
    # option values are pinned with the other command line errors above)
    path = write_quandle(tmp_path, "d3.txt", qmod.dihedral(3))
    assert run(["pi1", path, "--budget", "-5"]) == (
        3, "", "parse error: budget must be positive, got -5\n")
    for value in ("+3000", "1_000", "\u0663"):
        monkeypatch.setenv("QUANDELIER_BUDGET", value)
        assert run(["h2", path]) == (
            3, "", f"parse error: QUANDELIER_BUDGET is not an integer: "
                   f"{value!r}\n")
    monkeypatch.setenv("QUANDELIER_BUDGET", "3000")
    assert run(["pi1", path, "--base", "2"])[0] == 0


class _Discard(io.TextIOBase):
    """A text stream that keeps nothing written to it."""

    def write(self, text):
        return len(text)


def test_emit_quandle_holds_one_row_at_a_time():
    # the S7 transposition quandle's universal cover, N = 2520: its
    # table is about 28 MB of text, built and dropped row by row
    cover = fund.universal_cover(
        fund.fundamental_group(transposition_quandle(7), 0)).cover
    assert cover.n == 2520
    tracemalloc.start()
    try:
        cli.emit_quandle(cover, _Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_emitted_quandle_files_roundtrip(tmp_path, corpus):
    for name, quandle in corpus[:20]:
        buf = io.StringIO()
        cli.emit_quandle(quandle, buf)
        lines = cli._tokens(buf.getvalue())
        again, _ = cli.parse_quandle_lines(lines, 0)
        assert again.op == quandle.op
        assert again.basepoints == quandle.basepoints


def _emitted(emit, *args):
    buf = io.StringIO()
    emit(*args, buf)
    return buf.getvalue()


def _roundtrip_inputs(corpus):
    z2, z4 = (coh.Coeff.from_invariants([d]) for d in (2, 4))
    three_cycles = qmod.conj_class(symmetric_group(5), (1, 2, 0, 3, 4))
    return [(name, quandle, z2) for name, quandle in corpus[:20]] + [
        ("dihedral(45)", qmod.dihedral(45), z4),
        ("conj(S5,3-cycle)", three_cycles,
         coh.Coeff.from_invariants([2, 2]))]


def test_emitted_bundles_and_cocycles_roundtrip(tmp_path, corpus):
    # a coboundary of pseudo-random values, so that every row of the
    # cocycle and of the action holds several distinct entries
    for name, quandle, coeff in _roundtrip_inputs(corpus):
        coeffs = coh.graded_coefficients(quandle, coeff)
        f = coh.coboundary(quandle, coeffs, [(7 * a + 3) % coeff.order
                                             for a in range(quandle.n)])
        ext = coh.extension_from_cocycle(quandle, coeffs, f)
        bundle = _emitted(cli.emit_extension, ext)
        path = tmp_path / "bundle.txt"
        path.write_text(bundle)
        again = cli.parse_extension_bundle(str(path))
        assert again.total.op == ext.total.op, name
        assert again.projection.map == ext.projection.map, name
        assert again.action == ext.action, name
        assert again.coeffs == ext.coeffs, name
        assert _emitted(cli.emit_extension, again) == bundle, name
        text = _emitted(cli.emit_cocycle, f, quandle, coeffs)
        path = tmp_path / "cocycle.txt"
        path.write_text(text)
        back, back_coeffs = cli.parse_cocycle_file(str(path), quandle)
        assert back == f, name
        assert _emitted(cli.emit_cocycle, back, quandle, back_coeffs) == (
            text), name


def test_crlf_files_parse_as_their_lf_twins(tmp_path):
    # the files are read as bytes; a CR before each LF is a line end,
    # with or without a comment on the line
    d3 = qmod.dihedral(3)
    z2 = coh.Coeff.from_invariants([2])
    f = coh.coboundary(d3, z2, (0, 1, 1))
    texts = {
        "quandle": _emitted(cli.emit_quandle, d3),
        "cocycle": _emitted(cli.emit_cocycle, f, d3, (z2,)),
        "bundle": _emitted(cli.emit_extension,
                           coh.extension_from_cocycle(d3, z2, f)),
    }
    argv = {"quandle": [["validate", "{path}"], ["cover", "{path}",
                                                 "--universal"]],
            "cocycle": [["ext", "{d3}", "--from-cocycle", "{path}"]],
            "bundle": [["ext", "{path}", "--extract"],
                       ["ext", "{path}", "--equiv", "{path}"]]}
    d3_path = write_quandle(tmp_path, "d3.txt", d3)
    for kind, text in texts.items():
        for comment in ("", "# a comment\n"):
            lf = tmp_path / f"{kind}-lf.txt"
            crlf = tmp_path / f"{kind}-crlf.txt"
            lf.write_bytes((comment + text).encode("ascii"))
            crlf.write_bytes(
                (comment + text).replace("\n", "\r\n").encode("ascii"))
            assert b"\r\n" in crlf.read_bytes()
            assert (cli._tokens(cli._read(str(crlf)))
                    == cli._tokens(cli._read(str(lf)))), kind
            for args in argv[kind]:
                outs = [run([a.format(path=path, d3=d3_path) for a in args])
                        for path in (lf, crlf)]
                assert outs[0][0] == 0, (kind, args, outs[0])
                assert outs[0] == outs[1], (kind, args)


# ---------------------------------------------------------------------------
# indices outside the table in input files

D3_ROWS = "quandle 3\n1 3 2\n3 2 1\n2 1 3\n"


def _z2_bundle(tmp_path):
    quandle = qmod.dihedral(3)
    z2 = coh.Coeff.from_invariants([2])
    cpath = _cocycle_file(tmp_path, quandle, coh.trivial_cocycle(quandle, z2),
                          coh.graded_coefficients(quandle, z2))
    code, out, _ = run(["ext", write_quandle(tmp_path, "d3.txt", quandle),
                        "--from-cocycle", cpath])
    assert code == 0
    return out


@pytest.mark.parametrize("bad", ["7", "0"])
def test_basepoint_outside_the_table_is_a_parse_error(tmp_path, bad):
    # 7 lies past the table, and 0 must not be read as element -1
    path = tmp_path / "q.txt"
    path.write_text(D3_ROWS + f"basepoints {bad}\n")
    for argv in (["validate"], ["pi1"], ["h2"], ["cover", "--universal"]):
        code, out, err = run([argv[0], str(path)] + argv[1:])
        assert (code, out) == (3, ""), argv
        assert err == "parse error: basepoint outside 1..3\n", argv
    bundle = _z2_bundle(tmp_path)
    assert bundle.count("basepoints 1\n") == 2
    broken = tmp_path / "broken.txt"
    broken.write_text(bundle.replace("basepoints 1\n", f"basepoints {bad}\n",
                                     1))
    good = tmp_path / "good.txt"
    good.write_text(bundle)
    for first, second in ((broken, good), (good, broken)):
        code, out, err = run(["ext", str(first), "--equiv", str(second)])
        assert (code, out) == (3, "")
        assert err == "parse error: basepoint outside 1..3\n"


@pytest.mark.parametrize("bad", ["5", "0"])
def test_group_identity_outside_the_table_is_a_parse_error(tmp_path, bad):
    # Z2 with its identity second, so that 0 read as element -1 would
    # name the identity
    spec = tmp_path / "z2.txt"
    spec.write_text(f"group 2\n2 1\n1 2\nidentity {bad}\n")
    path = tmp_path / "d3.txt"
    path.write_text(D3_ROWS)
    code, out, err = run(["h2c", str(path), "--coeff", str(spec)])
    assert (code, out) == (3, "")
    assert err == "parse error: identity outside 1..2\n"


_INTEGER_FILES = {
    # kind: (valid text, command line with {path} and {d3})
    "quandle": (D3_ROWS, ["validate", "{path}"]),
    "map": ("map 3\n1 2 3\n",
            ["cover", "{d3}", "--check", "{path}", "--target", "{d3}"]),
    "group": ("group 2\n1 2\n2 1\nidentity 1\n",
              ["h2c", "{d3}", "--coeff", "{path}"]),
    "cocycle": ("cocycle 3 over Z2\n0 0 0\n0 0 0\n0 0 0\n",
                ["ext", "{d3}", "--from-cocycle", "{path}"]),
    "bundle": (None, ["ext", "{path}", "--extract"]),
}


@pytest.mark.parametrize("kind, old, new, message", [
    ("quandle", "quandle 3", "quandle 0_3", "line 1: no field takes '0_3'"),
    ("quandle", "1 3 2", "1 +3 2", "line 2: no field takes '+3'"),
    ("quandle", "3 2 1", "0_3 2 1", "line 3: no field takes '0_3'"),
    ("quandle", "2 1 3\n", "2 1 3\nbasepoints +1\n",
     "line 5: no field takes '+1'"),
    ("map", "map 3", "map +3", "line 1: no field takes '+3'"),
    ("map", "1 2 3", "+1 0_1 1", "line 2: no field takes '+1'"),
    ("group", "group 2", "group 0_2", "line 1: no field takes '0_2'"),
    ("group", "2 1\n", "+2 1\n", "line 3: no field takes '+2'"),
    ("group", "identity 1", "identity +1", "line 4: no field takes '+1'"),
    ("cocycle", "cocycle 3", "cocycle +3", "line 1: no field takes '+3'"),
    ("cocycle", "0 0 0\n0 0 0\n0 0 0", "0 0 0\n0 0 0\n0 0_0 0",
     "line 4: no field takes '0_0'"),
    ("bundle", "map 6", "map 0_6", "line 15: no field takes '0_6'"),
    ("bundle", "2 1 4 3 6 5", "2 1 4 3 6 +5",
     "line 20: no field takes '+5'"),
    # a '-' still reaches the range checks, and a comment is not read
    ("quandle", "1 3 2", "1 -3 2", "table entry -3 outside 1..3"),
    ("quandle", "2 1 3\n", "2 1 3 # 0_1 +1\n0\n",
     "trailing content after the quandle block"),
])
def test_integers_in_files_are_ascii_digits(tmp_path, kind, old, new,
                                            message):
    # int() alone reads '+3' and '0_3'; an integer in a file is an
    # optional '-' then ASCII digits, and no other field takes '+' or '_'
    d3 = tmp_path / "d3.txt"
    d3.write_text(D3_ROWS)
    text, argv = _INTEGER_FILES[kind]
    if text is None:
        text = _z2_bundle(tmp_path)
    path = tmp_path / "input.txt"
    argv = [a.format(path=path, d3=d3) for a in argv]
    path.write_text(text)
    assert run(argv)[0] == 0
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert run(argv) == (3, "", f"parse error: {message}\n")


def test_negative_cocycle_exponents_are_read_modulo_the_order(tmp_path):
    d3 = tmp_path / "d3.txt"
    d3.write_text(D3_ROWS)
    outs = []
    for row in ("0 0 0", "0 -2 0"):
        path = tmp_path / "c.txt"
        path.write_text(f"cocycle 3 over Z2\n{row}\n0 0 0\n0 0 0\n")
        outs.append(run(["ext", str(d3), "--from-cocycle", str(path)]))
    assert outs[0][0] == 0
    assert outs[0] == outs[1]
