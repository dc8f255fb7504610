"""The benchmark under perfbench/ wraps cellload functions by module attribute;
every attribute it names must still exist, or the traced benchmark breaks
while the library tests pass."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_WRAPS


@pytest.mark.parametrize("mod, attr", [(m, a) for m, a, _ in _layer_wraps()])
def test_wrapped_name_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"cellload.{mod}"), attr, None))
