"""The traced benchmark run wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    for short, names in traced_cli.TRACED.items():
        module = importlib.import_module(f"gyrogroups.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gyrogroups.{short}.{name}"
