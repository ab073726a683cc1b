"""The names the benchmark calls and wraps must exist in the library, and its outputs must pass its checks.

``perfbench/tracing.py`` wraps redmpc functions and plant methods by name, and
``perfbench/workloads.py`` builds and runs its workloads through the config
loader, the ``Config`` methods, ``simulate``, ``full_certificate`` and the CLI;
a name that disappears would only fail a benchmark run. One round of each
workload is run here and its outputs checked with the benchmark's own checks,
so a change that would make a benchmark run report incorrect outputs fails
here first. The benchmark's modules are loaded from their files and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from redmpc.config import load_config
from redmpc.plant import ActuatedPendulum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_perfbench("tracing")


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in TRACING_MODULE.TIMED], ids=[f"{m}.{a}" for m, a, _ in TRACING_MODULE.TIMED]
)
def test_timed_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("method", TRACING_MODULE.PLANT_METHODS)
def test_plant_method_exists(method):
    assert callable(getattr(ActuatedPendulum, method))


# What ``perfbench/workloads.py`` calls to build and run its workloads.
WORKLOAD_CALLS = [
    ("redmpc.config", "load_config"),
    ("redmpc.simulate", "simulate"),
    ("redmpc.certify", "full_certificate"),
    ("redmpc.cli", "main"),
]
CONFIG_METHODS = ("sim_model", "model", "ocp_spec", "solver_config", "sim_config", "sampling_plan")


@pytest.mark.parametrize("module, attr", WORKLOAD_CALLS, ids=[f"{m}.{a}" for m, a in WORKLOAD_CALLS])
def test_workload_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("method", CONFIG_METHODS)
def test_config_method_is_callable(method):
    assert callable(getattr(load_config(), method))


@pytest.mark.parametrize("name", load_perfbench("run").WORKLOADS)
def test_workload_round_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports checks.py by its bare name
    workload = load_perfbench("workloads").WORKLOADS[name](1, str(tmp_path))
    try:
        workload.setup()
        _, units = workload.run_round(0)
        assert units > 0
        assert workload.check() == []
    finally:
        workload.close()
