"""The benchmark's traced stages must exist in the package.

``perfbench/tracer.py`` skips a stage it cannot find, so a renamed or
deleted function would silently drop out of the per-layer metrics.  The
tracer is loaded by path, as a plain module, without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
