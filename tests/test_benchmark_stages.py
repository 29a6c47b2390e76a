"""The benchmark's traced stages must exist in the package, and its
workloads' gates must pass.

``perfbench/tracer.py`` skips a stage it cannot find, so a renamed or
deleted function would silently drop out of the per-layer metrics; a
workload op whose gate fails, or that calls a function the package no
longer has, counts as a failed op.  The tracer and the workloads are
loaded by path, as plain modules, without changing them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer")


def test_every_traced_stage_resolves():
    missing = []
    for layer, paths in load_tracer().LAYERS.items():
        module = importlib.import_module(f"korteweg.{layer}")
        for path in paths:
            obj = module
            for part in path.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{layer}.{path}")
    assert not missing


@pytest.mark.parametrize("name,ops", [("rbound16", None),
                                      ("pipeline256", None),
                                      ("symbols_scan", 1)])
def test_workload_gates_pass(name, ops):
    # at benchmark sizes and workload seed 1: every op (the first
    # parameter set of symbols_scan) with its check, then the post-check
    workload = load("workloads").WORKLOADS[name]()
    inputs = workload.setup(1)
    problems = []
    for i in range(len(inputs.cases))[:ops]:
        result = workload.run_op(inputs, i)
        problems += workload.check(inputs, i, result).problems
    problems += workload.post_check(inputs)[0]
    assert not problems
