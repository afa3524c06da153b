"""The traced benchmark run looks package functions up by name; these
checks fail when a rename or deletion in the package would break it."""

import importlib
import importlib.util
from pathlib import Path

from quandelier import cli

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
