import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# per-layer metrics <layer>.<function>.<stat> that the tracer measures by
# wrapping emtshape.<layer>.<function>; a name that no longer resolves is skipped
SPAN_NAMES = sorted({metric["name"].rsplit(".", 1)[0]
                     for metric in json.loads(BENCHMARK.read_text())["per_layer"]
                     if metric["name"].endswith((".self_s", ".calls", ".fields"))})


def test_benchmark_lists_traced_spans():
    assert SPAN_NAMES


@pytest.mark.parametrize("span", SPAN_NAMES)
def test_traced_name_resolves_to_a_function(span):
    layer, function = span.split(".")
    module = importlib.import_module(f"emtshape.{layer}")
    assert inspect.isfunction(getattr(module, function, None)), f"emtshape.{span}"
