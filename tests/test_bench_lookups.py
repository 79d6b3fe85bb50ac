"""The benchmark's tracer patches functions by (module, attribute) name, so
every name it looks up must exist in the package."""

import importlib
import importlib.util
import os

import pytest

TRACED = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "traced.py")


def _lookups():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced.LOOKUPS


@pytest.mark.parametrize("module, attribute, span", _lookups())
def test_lookup_exists(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None))
