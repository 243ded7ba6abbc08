"""The benchmark's traced mode wraps lgsim entry points by name; a rename in
the package must fail here rather than in every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    for _layer, _counter, module_name, attr in load_tracer().ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # classes are patched through their own __dict__, so inherited names do not count
        found = name in owner.__dict__ if isinstance(owner, type) else hasattr(owner, name)
        assert found, f"{module_name}.{attr}"
