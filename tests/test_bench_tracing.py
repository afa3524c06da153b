"""The traced benchmark run looks package functions up by name; these
checks fail when a rename or deletion in the package would break it."""

import importlib
import importlib.util
import io
from pathlib import Path

from quandelier import (cli, cohomology as coh, fundamental as fund,
                        quandle as qmod)
from conftest import transposition_quandle

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    for module, attr in _tracing().SPANS:
        target = importlib.import_module(f"quandelier.{module}")
        assert callable(getattr(target, attr, None)), (module, attr)


def test_traced_commands_match_the_command_table():
    assert set(_tracing().COMMAND_SPANS) == set(cli.COMMANDS)


def _traced_run(tmp_path, command, quandle, *flags):
    """Layer metrics of one traced command on a quandle file."""
    path = tmp_path / "quandle.txt"
    text = io.StringIO()
    cli.emit_quandle(quandle, text)
    path.write_text(text.getvalue())
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = cli.run([command, str(path), *flags], out=io.StringIO(),
                       err=io.StringIO())
    finally:
        tracer.remove()
    assert code == 0
    return tracer.layer_metrics()


def test_traced_counters_read_the_snf_arguments(tmp_path):
    # the tracer's counters read the first argument of the sparse and
    # the dense SNF: the (i, j) -> value dict and the list of rows
    metrics = _traced_run(tmp_path, "h2", transposition_quandle(4))
    assert metrics["fpgroup.snf_nnz"] > 0
    assert metrics["fpgroup.snf_dense_cells"] > 0


def test_traced_counters_read_the_pi1_presentation(tmp_path):
    # the pi1_presentation span counts the generator_count and the
    # relators of the presentation it returns, the simplified one
    quandle = transposition_quandle(5)
    metrics = _traced_run(tmp_path, "pi1", quandle)
    pres = fund.pi1_presentation(quandle, 0)
    assert metrics["fundamental.pi1_generators"] == pres.generator_count == 3
    assert metrics["fundamental.pi1_relators"] == len(pres.relators) > 0


def test_traced_counters_read_the_covering_results(tmp_path):
    # the cover_elements counter reads result.cover.n of universal_cover
    # and subgroup_count the length of permgroup.subgroups' list
    quandle = transposition_quandle(5)
    metrics = _traced_run(tmp_path, "cover", quandle, "--universal")
    assert metrics["fundamental.cover_elements"] == 60
    metrics = _traced_run(tmp_path, "cover", quandle, "--enumerate")
    assert metrics["permgroup.subgroup_count"] == 6


def test_theorem_built_tables_make_no_validate_call(monkeypatch):
    # covers, census quotients, extension totals, pullbacks and unions
    # are quandles by the covering and extension theorems, and are
    # assembled by quandle.from_columns without revalidation
    def refuse(*args, **kwargs):
        raise AssertionError("validate called on a theorem-built table")

    base = transposition_quandle(4)
    z2 = coh.Coeff.from_invariants([2])
    monkeypatch.setattr(qmod, "validate", refuse)
    pi1 = fund.fundamental_group(base, 0)
    universal = fund.universal_cover(pi1).projection
    census = [covering.projection
              for covering in fund.enumerate_connected_coverings(pi1)]
    coh.extension_from_cocycle(base, z2, coh.trivial_cocycle(base, z2))
    qmod.pullback(census[-1], universal)
    qmod.union_coverings(census)


def test_input_tables_hand_validate_a_sized_table(tmp_path, monkeypatch):
    # the tracer counts Q3 triples from len(args[0]) of every validate
    # call, so the command line's readers of quandle files and extension
    # bundles must hand validate a sequence of rows, never an iterator
    counts = _tracing()._counts
    validate = qmod.validate
    sizes = []

    def counted(*args, **kwargs):
        sizes.append(counts("quandle.validate", args, None, None))
        return validate(*args, **kwargs)

    base = transposition_quandle(4)
    z2 = coh.Coeff.from_invariants([2])
    ext = coh.extension_from_cocycle(base, z2, coh.trivial_cocycle(base, z2))
    text = io.StringIO()
    cli.emit_extension(ext, text)
    path = tmp_path / "bundle.txt"
    path.write_text(text.getvalue())
    text = io.StringIO()
    cli.emit_quandle(base, text)
    monkeypatch.setattr(qmod, "validate", counted)
    cli.parse_quandle_lines(cli._tokens(text.getvalue()))
    cli.parse_extension_bundle(path)
    assert [c["quandle.q3_triples"] for c in sizes] == [
        6 ** 3, 6 ** 3, 12 ** 3]
