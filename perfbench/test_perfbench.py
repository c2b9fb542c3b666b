"""Tests of the benchmark's own logic: tail rule, self time, seeded inputs,
output checks and a tiny end-to-end run."""

from __future__ import annotations

import functools
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness
from perfbench.tracing import Tracer
from perfbench.workloads import (
    WORKLOADS,
    CheckFailed,
    ForwardContrast,
    InverseNoise,
    RoundtripCli,
)

REPO = Path(__file__).resolve().parents[1]
TINY = {
    "forward_contrast": functools.partial(ForwardContrast, nodes=64, order=3, pool=4),
    "inverse_noise": functools.partial(InverseNoise, nodes=128, orders=(2, 3)),
    "roundtrip_cli": functools.partial(RoundtripCli, nodes=64, order=3, pool=2),
}


@pytest.fixture
def api():
    """emtshape imported afresh, with the modules other tests hold restored after."""
    saved = {k: m for k, m in sys.modules.items() if k == "emtshape" or k.startswith("emtshape.")}
    yield harness.import_api()
    for key in [k for k in sys.modules if k == "emtshape" or k.startswith("emtshape.")]:
        del sys.modules[key]
    sys.modules.update(saved)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(1000) == 99
    assert harness.tail_percentile(10) == 0
    for count in range(11, 400):
        samples = list(range(count))
        pct = harness.tail_percentile(count)
        beyond = sum(s > harness.nearest_rank(samples, pct) for s in samples)
        assert beyond >= 10
        assert sum(s > harness.nearest_rank(samples, pct + 1) for s in samples) < 10


def test_self_time_subtracts_union_of_children():
    tracer = Tracer()
    root = tracer.record("root", 0.0, 10.0)
    child = tracer.record("a", 1.0, 3.0, parent=root)
    tracer.record("b", 2.0, 4.0, parent=root)  # overlaps a: union 1..4
    tracer.record("c", 8.0, 12.0, parent=root)  # clipped to the parent: 8..10
    tracer.record("d", 1.5, 2.5, parent=child)
    assert tracer.self_times() == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_wrappers_nest_and_attribute_ops():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("m.outer", lambda: [inner() for _ in range(3)])
    tracer.op_id = 7
    outer()
    assert list(tracer.parent) == [-1, 0, 0, 0]
    stats = tracer.per_op()[7]
    assert stats["m.inner"]["calls"] == 3
    outer_span = tracer.end[0] - tracer.start[0]
    inner_total = sum(tracer.end[i] - tracer.start[i] for i in (1, 2, 3))
    assert stats["m.outer"]["self_s"] == pytest.approx(outer_span - inner_total)


def test_install_wraps_named_functions_at_every_binding(api):
    tracer = Tracer()
    original = api.emt.solve_densities
    background = api.transmission.evaluate_background
    tracer.install(["transmission.solve_densities", "disk.disk_modified_emt",
                    "transmission.solve_densities", "transmission.no_such_function"])
    try:
        assert api.emt.solve_densities is not original
        assert api.transmission.solve_densities is api.emt.solve_densities
        assert api.emt.solve_densities.__wrapped__ is original
        assert api.reconstruct.disk_modified_emt is api.disk.disk_modified_emt
        assert api.disk.disk_modified_emt.__wrapped__ is not None
        assert api.transmission.evaluate_background is background
        assert tracer.skipped == ["transmission.no_such_function"]
    finally:
        tracer.uninstall()
    assert api.emt.solve_densities is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed(name, api, tmp_path):
    def inputs(seed):
        workload = TINY[name](seed)
        workload.setup(api, tmp_path / f"w{seed}")
        return json.dumps(workload.inputs)

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


class CorruptedForward(ForwardContrast):
    """forward_contrast whose first table has one entry off by 1e-6 relative."""

    def op(self, i):
        latency, tables = super().op(i)
        values = np.array(tables[0].values)
        values[0, 1, 0, 0] += 1e-6 * np.abs(values).max()
        return latency, [self.api.emt.EmtTable(tables[0].order, values), tables[1]]


def test_corrupted_table_entry_is_a_failed_op(api, tmp_path):
    clean = TINY["forward_contrast"](1)
    clean.setup(api, tmp_path)
    clean.check(0, clean.op(0)[1])
    workload = CorruptedForward(1, nodes=64, order=3, pool=4)
    workload.setup(api, tmp_path)
    with pytest.raises(CheckFailed):
        workload.check(0, workload.op(0)[1])
    loop = harness.run_ops(workload, 0.05, 0)
    assert loop["failed"] == len(loop["ops"]) >= 1
    assert loop["latencies"] == []


def _bench_root(tmp_path: Path, with_sources: bool) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(REPO / "BENCHMARK.json", root)
    if with_sources:
        (root / "src").symlink_to(REPO / "src")
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace, api, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "WORKLOADS", TINY)
    monkeypatch.setattr(harness, "SETUP_ROUND_SECONDS", 0.0)
    root = _bench_root(tmp_path, with_sources=True)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert harness.main(argv, root=root) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_with_every_op_failing_still_prints_a_result(api, tmp_path, monkeypatch, capsys):
    corrupted = functools.partial(CorruptedForward, nodes=64, order=3, pool=4)
    monkeypatch.setattr(harness, "WORKLOADS", {"forward_contrast": corrupted})
    monkeypatch.setattr(harness, "SETUP_ROUND_SECONDS", 0.0)
    root = _bench_root(tmp_path, with_sources=True)
    argv = ["--workload", "forward_contrast", "--seed", "3", "--seconds", "0.2", "--trace", "0"]
    assert harness.main(argv, root=root) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_run_without_sources_fails(tmp_path, capsys):
    root = _bench_root(tmp_path, with_sources=False)
    argv = ["--workload", "roundtrip_cli", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert harness.main(argv, root=root) != 0
    assert capsys.readouterr().out == ""
