"""Event-driven pipelining sweep (DESIGN.md section 7).

Runs the same workload at several pipeline depths against the sequential
depth-1 schedule on the shared discrete-event timeline.  The claims under
test: depth 1 reproduces the sequential model exactly (speedup 1.0), depth
>= 2 overlaps consecutive rounds and beats it, and the audit stays clean --
pipelining changes when phases happen, never what the protocol decides.
These runs use the deterministic fixed-compute model, so the asserted
numbers are exact, not wall-clock-noisy.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench.experiments import pipeline


def bench_pipeline_sweep(benchmark):
    """Sweep pipeline depth x deployment x batch size."""
    rows = run_once(
        benchmark,
        pipeline,
        depths=(1, 2),
        deployments=("classic", "scaled"),
        batch_sizes=(4,),
        num_requests=24,
    )
    assert len(rows) == 4
    by_label = {row["label"]: row for row in rows}
    # Depth-1 anchors: the pipelined schedule IS the sequential schedule.
    assert by_label["pipeline-classic-d1-b4"]["speedup"] == 1.0
    assert by_label["pipeline-scaled-d1-b4"]["speedup"] == 1.0
    # Depth 2 must beat sequential on simulated throughput in both
    # deployments, with every transaction still committing auditor-clean.
    for label in ("pipeline-classic-d2-b4", "pipeline-scaled-d2-b4"):
        row = by_label[label]
        assert row["committed"] == 24
        assert row["speedup"] > 1.1
        assert row["audit clean"]
