"""The functions the benchmark's traced runs bind still exist and still take
the arguments it passes.

``perfbench/traced.py`` looks its stages up by name and calls the step
functions with fixed arguments; a stage that is missing or re-signed does not
fail a traced run, it only turns its metrics null. These tests fail instead.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest
from test_cli import small_config

import xdata.cli  # noqa: F401 - loads every module the CLI binds

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_stage_binds_and_is_restored(traced):
    before = {(m, a): getattr(importlib.import_module(m), a) for _, m, a, _ in traced.STAGES}
    tracer = traced.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        for (m, a), fn in before.items():
            assert getattr(importlib.import_module(m), a) is not fn, f"{m}.{a} not wrapped"
    finally:
        tracer.uninstall()
    assert all(getattr(importlib.import_module(m), a) is fn
               for (m, a), fn in before.items())


@pytest.mark.parametrize("head_layers", [[], [3]])
def test_micro_calls_each_step_function(traced, tmp_path, monkeypatch, head_layers):
    calls = []

    def once(fn):  # one call of the case, not a timing
        fn()
        calls.append(1)
        return 1.0

    monkeypatch.setattr(traced, "_median_call_us", once)
    spec = {"feature_dim": 5, "classes": ["a", "b", "c", "d"],
            "regression_tasks": ["r1", "r2"], "shared_layers": [4],
            "head_layers": head_layers, "dropout": 0.1, "activation": "tanh",
            "batch_size": 8, "mc_passes": 2, "seed": 3}
    out = tmp_path / "micro.json"
    assert traced.micro(str(out), spec) == 0
    result = json.loads(out.read_text())
    assert len(calls) == 4
    assert all(isinstance(v, float) and math.isfinite(v) for v in result.values()), result


def test_traced_cli_run_reads_every_probe(traced, tmp_path):
    cfg = small_config(tmp_path, tmp_path / "out")
    spans_path = tmp_path / "spans.json"
    assert traced.traced_cli(str(spans_path), ["--config", str(cfg), "--quiet"]) == 0
    trace = json.loads(spans_path.read_text())
    assert trace["absent"] == []
    probed = {stage for stage, _, _, probe in traced.STAGES if probe}
    seen = {span[0] for span in trace["spans"]}
    assert probed <= seen
    assert all(span[4] is not None for span in trace["spans"] if span[0] in probed)
