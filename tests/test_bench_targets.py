"""The traced benchmark skips a layer whose target attribute is missing, so
its metrics would silently read 0 after a rename.  Every target must resolve."""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import layers  # noqa: E402


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _, _ in layers.TARGETS}))
def test_bench_layer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
