"""The benchmark's trace targets (``perfbench/tracing.py``) name live
attributes of the package, so a rename fails here instead of silently
dropping the benchmark's per-layer metrics. Nothing is wrapped.
"""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("target", [target for target, _, _ in tracing.TARGETS])
def test_trace_target_resolves(target):
    owner_name, _, attr = target.rpartition(".")
    owner = tracing._resolve(owner_name)
    assert owner is not None, f"{owner_name} does not resolve"
    value = getattr(owner, attr, None)
    assert callable(value), f"{target} is missing"
    if not isinstance(owner, type):
        # a module-level target that is a class would be rebound as a whole
        assert not isinstance(value, type), f"{target} is a class, not a function"
