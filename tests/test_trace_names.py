import importlib
import inspect
import json
import sys
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


def test_every_traced_span_runs_in_a_roundtrip(tmp_path, monkeypatch):
    # a stage the pipeline stops calling fails no other test: its per-layer
    # metric just reads 0.  Like the tracer, count calls under every name
    # that binds the function in a loaded emtshape module.
    from emtshape import cli

    modules = [module for key, module in list(sys.modules.items())
               if key == "emtshape" or key.startswith("emtshape.")]
    calls = dict.fromkeys(SPAN_NAMES, 0)
    for span in SPAN_NAMES:
        layer, function = span.split(".")
        fn = getattr(importlib.import_module(f"emtshape.{layer}"), function)

        def counted(*args, _fn=fn, _span=span, **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    config = {
        "materials": {"background": {"lambda": 1.5, "mu": 1.2},
                      "inclusion": {"lambda": 0.6, "mu": 0.4}},
        "shape": {"kind": "starfish", "center": [0.3, -0.2],
                  "modeAmplitude": 0.1, "modeIndex": 3},
        "order": 4,
        "nodes": 64,
        "noise": {"sigma2": 1e-4, "seed": 3},
        "outputDir": str(tmp_path / "out"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["roundtrip", str(tmp_path / "config.json")]) == 0
    assert [span for span, count in calls.items() if count == 0] == []
