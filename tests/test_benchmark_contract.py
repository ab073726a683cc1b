"""The names the benchmark's tracer wraps must exist in the library.

``perfbench/tracing.py`` wraps redmpc functions and plant methods by name; a
name that disappears would only fail a traced benchmark run. The module is
loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from redmpc.plant import ActuatedPendulum

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in TRACING_MODULE.TIMED], ids=[f"{m}.{a}" for m, a, _ in TRACING_MODULE.TIMED]
)
def test_timed_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("method", TRACING_MODULE.PLANT_METHODS)
def test_plant_method_exists(method):
    assert callable(getattr(ActuatedPendulum, method))
