"""The benchmark's tracer (perfbench/tracing.py) wraps capbound functions
by module and attribute name; a rename in the package would leave its
spans silently empty."""

import importlib
import importlib.util
import inspect
import pathlib
import sys

from capbound import project

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_targets_resolve_and_dykstra_keeps_its_signature(monkeypatch):
    # load without leaving a bytecode cache in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _, _ in tracing.TARGETS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)
    # the tracer reads the constraint set and the report of each call
    params = inspect.signature(project.dykstra).parameters
    assert list(params) == ["kernel", "cs", "iterations", "tol"]
    assert params["iterations"].default == project.DEFAULT_BUDGETS["dykstra"]
    assert params["tol"].default == project.DEFAULT_TOL
