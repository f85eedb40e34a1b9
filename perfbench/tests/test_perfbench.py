"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import driver, inputs, layers, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT_SECONDS = 1.0


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert _declared("end_to_end") == workloads.E2E_UNITS
    assert _declared("per_layer") == {name: unit for name, unit, _ in layers.PER_LAYER}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_short_run_reports_every_end_to_end_metric(workload):
    result = run.measure(workload, seed=1, seconds=SHORT_SECONDS, trace=False)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_and_restores_wrappers(workload):
    before = tracing.originals()
    result = run.measure(workload, seed=1, seconds=SHORT_SECONDS, trace=True)
    after = tracing.originals()
    assert all(a is b for a, b in zip(before, after))
    assert result["correct"], result
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    self_ms = sum(metrics[f"self_ms.{layer}"]["value"] for layer in tracing.LAYERS)
    outer = metrics["trace.outer_ms"]["value"]
    assert self_ms + metrics["trace.unattributed_ms"]["value"] == pytest.approx(outer)
    assert 0 <= metrics["trace.unattributed_ms"]["value"] < 0.2 * outer


def test_wrappers_are_restored_when_the_traced_pass_raises(tmp_path):
    before = tracing.originals()
    log = tracing.SpanLog()
    patches = tracing.install(log)
    try:
        assert not all(a is b for a, b in zip(before, tracing.originals()))
        with pytest.raises(KeyError):
            workloads.run_pass("no-such-workload", 1, 0.1, tmp_path, log=log)
    finally:
        patches.restore()
    assert all(a is b for a, b in zip(before, tracing.originals()))


def test_checking_work_counts_as_driver_time():
    log = tracing.SpanLog()
    with log.span("driver.setup"):
        with log.span("core.init"):
            pass
    with log.span("driver.check"):
        with log.span("core.explain"):
            with log.span("explain.shap"):
                pass
    calls = log.layer_calls()
    assert (calls["core"], calls["explain"], calls["driver"]) == (1, 0, 4)
    assert sum(log.layer_self_ms().values()) == pytest.approx(log.root_ms())


@pytest.mark.parametrize(
    ("workload", "engine"),
    [("mixed-explain", "repro.core.native.NativeEngine"),
     ("sim-higgs", "repro.core.engine.TahoeEngine")],
)
def test_a_wrong_prediction_trips_the_gate(workload, engine, monkeypatch, capsys):
    import importlib

    module, name = engine.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    honest = cls.predict

    def corrupted(self, X, **kwargs):
        result = honest(self, X, **kwargs)
        result.predictions[0] += 1e-6
        return result

    monkeypatch.setattr(cls, "predict", corrupted)
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", str(SHORT_SECONDS)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_a_wrong_attribution_trips_the_gate(monkeypatch, capsys):
    from repro.core.native import NativeEngine

    honest = NativeEngine.explain

    def corrupted(self, X, **kwargs):
        result = honest(self, X, **kwargs)
        result.attributions[:, 0] += 1e-3
        return result

    # The offline reference is corrupted the same way, so only the
    # efficiency-axiom half of the gate can catch this.
    monkeypatch.setattr(NativeEngine, "explain", corrupted)
    code = run.main(["--workload", "mixed-explain", "--seed", "1", "--seconds",
                     str(SHORT_SECONDS)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_calls_are_divided_by_the_reference_of_their_window():
    ref = driver.HostReference()
    ref.starts_s = [0.1, 0.2, 1.1]
    ref.samples_s = [1e-3, 3e-3, 4e-3]
    # Windows 0 and 1 have their own medians (2 ms, 4 ms); window 5 has
    # no sample and falls back to the phase median (3 ms).
    got = ref.in_reference_units([0.5, 1.5, 5.5], [2e-3, 8e-3, 6e-3])
    assert got == pytest.approx(1.0 + 2.0 + 2.0)


def test_inputs_follow_the_seed():
    a = inputs.dataset_rows("letter", 64, seed=3)
    b = inputs.dataset_rows("letter", 64, seed=3)
    c = inputs.dataset_rows("letter", 64, seed=4)
    assert inputs.digest(a) == inputs.digest(b) != inputs.digest(c)
    s1 = inputs.poisson_schedule(3, 1, rate=500, duration=1.0, pool_rows=64, explain_share=0.2)
    s2 = inputs.poisson_schedule(3, 1, rate=500, duration=1.0, pool_rows=64, explain_share=0.2)
    s3 = inputs.poisson_schedule(3, 2, rate=500, duration=1.0, pool_rows=64, explain_share=0.2)
    assert inputs.digest(s1.times, s1.rows, s1.explain) == inputs.digest(s2.times, s2.rows,
                                                                         s2.explain)
    assert not np.array_equal(s1.times[:10], s3.times[:10])
    assert np.all(np.diff(s1.times) > 0) and s1.times[-1] < 1.0
    assert 0.1 < s1.explain.mean() < 0.3


def test_simulated_counts_repeat_exactly(tmp_path):
    first = workloads.run_pass("sim-higgs", 2, 0.1, tmp_path).facts["sim"]
    second = workloads.run_pass("sim-higgs", 2, 0.1, tmp_path).facts["sim"]
    assert first == second
    assert first["sim_seconds"] > 0 and first["chosen"] > 0


def test_pinned_spec_matches_the_figure_benchmarks():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import common
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    assert common.shared_capacity_scale() == inputs.P100_SHARED_CAPACITY_SCALE
    assert inputs.bench_spec() == common.bench_spec("P100")


class _FakeServer:
    """Answers each request once its max-wait flush is due."""

    def __init__(self, max_wait: float) -> None:
        self.max_wait = max_wait
        self.queue: list = []
        self.calls: list[tuple[int, float | None]] = []

    def run(self, batch, until=None):
        batch = list(batch or [])
        self.calls.append((len(batch), until))
        self.queue += batch
        due = [r for r in self.queue if until is None or r.arrival_time + self.max_wait <= until]
        self.queue = [r for r in self.queue if r not in due]
        return SimpleNamespace(
            responses=[SimpleNamespace(request_id=r.request_id, ok=True) for r in due]
        )


def test_open_loop_calls_run_only_on_arrivals_and_due_flushes():
    import time

    times = np.arange(1, 11) * 0.01
    requests = [SimpleNamespace(request_id=100 + i, arrival_time=5.0 + t)
                for i, t in enumerate(times)]
    server = _FakeServer(max_wait=0.004)
    phase = driver.drive_open_loop(server, requests, times, origin=time.perf_counter(),
                                   clock_base=5.0, max_wait=0.004,
                                   ref=driver.HostReference())
    assert phase.sent == 10 and all(r is not None for r in phase.responses)
    # One call per arrival plus one per due flush; no polling between.
    assert len(phase.call_walls_s) <= 20
    assert sum(n for n, _ in server.calls) == 10
    assert np.all(phase.latency_s >= 0.004)
    assert phase.backlog_end <= 1


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-higgs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
