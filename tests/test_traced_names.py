"""The benchmark's tracer wraps the program's functions at the names their
callers look them up by; every such name must exist, or a traced benchmark
run fails at install time."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    for owner, attr, span in traced:
        # classes are patched through their own __dict__, modules by attribute
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{owner.__name__}.{attr} (span {span}) does not exist"
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr} is not callable"
