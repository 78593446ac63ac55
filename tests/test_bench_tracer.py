"""The benchmark's span tracer (bench/spans.py) names only what symcone defines.

The tracer looks every name up when a traced run installs it, so a rename in
symcone would otherwise surface only when the benchmark runs with tracing on.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_its_module(spans):
    for module, names in spans.FUNCTIONS.items():
        home = importlib.import_module(f"symcone.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"symcone.{module}.{name}"


def test_every_traced_class_defines_the_wrapped_methods(spans):
    gauge_maps = importlib.import_module("symcone.gauge_maps")
    for cls_name in spans.MAP_CLASSES:
        methods = vars(getattr(gauge_maps, cls_name))
        assert "apply" in methods and "apply_inverse" in methods, cls_name
    reconstruction = importlib.import_module("symcone.reconstruction")
    assert "__call__" in vars(reconstruction.QuadraticRep)
