"""Self-tests of the repository benchmark, each workload at a tiny size.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.calibrate import ReferenceClock
from perfbench.measure import END_TO_END, reason_class, run_benchmark, run_trial
from perfbench.tracing import COUNTED, ENCODERS, LAYERS, LayerTracer, layer_modules
from perfbench.workloads import WORKLOADS, trial_seed

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    """The workload at its own shape, shrunk to one short trial."""
    workload = WORKLOADS[name]
    changes = {"paper-batch": dict(txns_per_trial=100, system={**workload.system,
                                                              "items_per_shard": 200}),
               "signed-single": dict(txns_per_trial=3),
               "scaleout-sharded": dict(txns_per_trial=40)}[name]
    return dataclasses.replace(workload, trials=1, **changes)


def bindings():
    """Every module global and class attribute of the loaded ``repro`` modules."""
    found = {}
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro.") or module is None:
            continue
        for name, value in vars(module).items():
            found[(module_name, name)] = value
            if inspect.isclass(value):
                for attr, raw in vars(value).items():
                    found[(module_name, f"{name}.{attr}")] = raw
    return found


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    layer_rows = [f"{layer}.self_cpu_ms_per_txn" for layer in LAYERS]
    assert layer_rows == [m["name"] for m in SPEC["per_layer"]][: len(layer_rows)]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name):
    result = run_benchmark(tiny(name), seed=5, seconds=0, trace=False)
    assert result.correct, result.lines
    assert [(n, u) for n, (_, u) in result.metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(math.isfinite(v) and v > 0 for v, _ in result.metrics.values())
    assert result.failed == 0 and result.attempted == tiny(name).txns_per_trial


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_rows_sum_to_its_total(name):
    before = bindings()
    result = run_benchmark(tiny(name), seed=5, seconds=0, trace=True)
    assert result.correct, result.lines  # includes traced == untraced virtual numbers
    assert [(n, u) for n, (_, u) in result.metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    rows = sum(result.metrics[f"{layer}.self_cpu_ms_per_txn"][0] for layer in LAYERS)
    assert rows == pytest.approx(result.metrics["trace.cpu_ms_per_txn"][0], rel=1e-9)
    after = bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_tracer_installs_restores_and_counts_entry_points():
    tracer = LayerTracer()
    tracer.install()
    assert tracer.installed > 0
    tracer.restore()
    assert tracer.installed == 0
    workload = tiny("signed-single")
    trial = run_trial(workload, trial_seed(5, 0), tracer=LayerTracer())
    counts = trial.tracer.counts
    for counter in set(COUNTED.values()):
        assert counts[counter] > 0, counter
    assert counts["common.encoding.canonical_encode.calls"] > 0


def test_wrapped_entry_points_exist():
    layer_modules()
    for module_name, qualname in list(COUNTED) + list(ENCODERS):
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, qualname)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_counts_and_virtual_metrics(name):
    workload = tiny(name)
    first = run_trial(workload, trial_seed(6, 0))
    second = run_trial(workload, trial_seed(6, 0))
    assert first.virtual() == second.virtual()
    assert not first.problems and not second.problems


def test_reference_clock_scales_sections_and_disarms():
    handler = signal.getsignal(signal.SIGPROF)
    clock = ReferenceClock()
    with clock.measure() as section:
        while len(section.kernels) < 4:
            sum(range(10_000))
    assert len(section.kernels) >= 5  # start, three timer samples, end
    assert section.cpu_s > 0 and section.reference_s > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler


def test_reason_classes():
    assert reason_class("s0: stale-read on item-1: transaction at ts-4@c3") == "stale-read"
    assert reason_class("ww-conflict on a; stale-read on b") == "ww-conflict"
    assert reason_class("stale commit timestamp") == "stale-timestamp"
    assert reason_class("never flushed") == "other"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, *SPEC["command"][1:], "--workload", "paper-batch",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
