"""Trials, the per-run correctness gate, and the metrics computed from them.

One *trial* builds a deployment from one seed, runs every spec through
``run_workload`` (the timed call), reads the metrics registry, and audits
the whole history.  A run repeats trials until its time budget is spent
(see :mod:`perfbench.workloads` for which seeds it uses) and reports:

- with tracing off, the end-to-end metrics of :data:`END_TO_END`;
- with tracing on, the per-layer metrics of :func:`per_layer`, from pairs
  of an untraced and a traced trial on the same seed.

End-to-end host times are CPU seconds at a reference core speed (see
:mod:`perfbench.calibrate`); the traced run's per-layer rows are raw process
CPU time.  Virtual times come off the simulated timeline under
``FixedCompute``, so for one seed they repeat exactly.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.api import Auditor
from repro.bench.harness import percentile
from repro.core.tfcommit import STALE_TIMESTAMP_REASON
from repro.txn.occ import ConflictKind

from perfbench.calibrate import ReferenceClock, Section
from perfbench.tracing import LAYERS, LayerTracer, timed_methods
from perfbench.workloads import Workload, trial_seed

#: ``(name, unit)`` of the end-to-end metrics, in print order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("host_tps", "txn/CPU-s"),
    ("audit_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virtual_tps", "txn/s"),
    ("virtual_block_p50_ms", "ms"),
    ("virtual_block_tail_ms", "ms"),
    ("txn_commit_frac", "ratio"),
)

#: Every phase a block's virtual timing can carry (classic and scaled).
PHASES = ("get_vote", "aggregate", "challenge", "decision", "finalize", "order")

#: Public ``Auditor`` methods timed one by one for the ``audit.*_s`` rows.
AUDIT_PHASES = ("check_logs", "check_transactions", "check_datastores", "check_epoch_anchors")

#: A trial audits its history again until the audits have used this much
#: CPU, and reports their mean: a short history audits in ~20 ms, too
#: brief to time once on a noisy host.
AUDIT_MIN_CPU_S = 0.25

#: Reason classes of transactions that did not commit.
REASONS = tuple(kind.value for kind in ConflictKind) + ("stale-timestamp", "other")


def reason_class(reason: str) -> str:
    """The first recognised cause named in an outcome's ``reason`` string."""
    found = [(reason.find(kind), kind) for kind in REASONS[:-2] if kind in reason]
    if found:
        return min(found)[1]
    return "stale-timestamp" if STALE_TIMESTAMP_REASON in reason else "other"


@dataclass
class Trial:
    """Measurements and gate verdicts of one trial."""

    seed: int
    setup_s: float = 0.0
    run_cpu_s: float = 0.0
    #: Raw over reference CPU seconds of the run (1.0 without a clock).
    slowdown: float = 1.0
    audit_s: float = 0.0
    audits: int = 0
    attempted: int = 0
    committed: int = 0
    aborted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    makespan: float = 0.0
    block_latencies: List[float] = field(default_factory=list)
    phases: Dict[str, float] = field(default_factory=dict)
    #: The registry's counters after the run, wall-clock ``*.s`` ones dropped.
    counters: Dict[str, float] = field(default_factory=dict)
    events: int = 0
    busy_max: float = 0.0
    epochs: int = 0
    problems: List[str] = field(default_factory=list)
    tracer: Optional[LayerTracer] = None

    @property
    def blocks(self) -> int:
        return len(self.block_latencies)

    def virtual(self) -> tuple:
        """Everything that must repeat exactly for the same seed."""
        return (
            self.attempted,
            self.committed,
            self.aborted,
            self.failed,
            self.makespan,
            tuple(self.block_latencies),
            tuple(sorted(self.phases.items())),
            tuple(sorted(self.counters.items())),
            self.events,
            self.epochs,
        )


def _section_timer(clock: Optional[ReferenceClock]):
    """``clock.measure``, or a raw process-CPU stand-in for it."""
    if clock is not None:
        return clock.measure

    @contextmanager
    def raw() -> Iterator[Section]:
        section = Section()
        started = time.process_time()
        try:
            yield section
        finally:
            section.cpu_s = section.reference_s = time.process_time() - started

    return raw


def run_trial(
    workload: Workload,
    seed: int,
    tracer: Optional[LayerTracer] = None,
    audit_phases: Optional[Dict[str, float]] = None,
    clock: Optional[ReferenceClock] = None,
) -> Trial:
    """Build, run and audit one deployment; ``tracer`` traces only the run.

    With a ``clock``, ``setup_s``, ``run_cpu_s`` and ``audit_s`` are CPU
    seconds at its reference speed; without one, raw process CPU seconds.
    """
    trial = Trial(seed=seed)
    timer = _section_timer(clock)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        with timer() as setup:
            system, specs = workload.build(seed, workload.txns_per_trial)
        trial.setup_s = setup.reference_s
        gc.collect()
        if tracer is not None:
            tracer.begin()
        with timer() as run:
            outcome = system.run_workload(specs, num_clients=workload.num_clients)
        trial.run_cpu_s = run.reference_s
        trial.slowdown = run.cpu_s / run.reference_s
        if tracer is not None:
            tracer.end()
    finally:
        if tracer is not None:
            tracer.restore()
    trial.tracer = tracer

    trial.attempted = len(specs)
    trial.committed, trial.aborted, trial.failed = (
        outcome.committed,
        outcome.aborted,
        outcome.failed,
    )
    trial.reasons = Counter(
        reason_class(o.reason) for o in outcome.outcomes if o.status in ("aborted", "failed")
    )
    decided = [r for r in outcome.block_results if r.status in ("committed", "aborted")]
    trial.block_latencies = [r.timing.total for r in decided]
    for r in decided:
        for phase, seconds in r.timing.phases.items():
            trial.phases[phase] = trial.phases.get(phase, 0.0) + seconds
    trial.makespan = system.sim.makespan
    trial.events = len(system.sim.loop.timeline)
    busy = system.sim.scheduler.delivery_busy()
    trial.busy_max = max(busy.values()) / trial.makespan if busy and trial.makespan else 0.0
    trial.epochs = len(getattr(getattr(system, "ordering", None), "epoch_anchors", ()))
    trial.counters = {
        name: value
        for name, value in system.sim.obs.metrics.snapshot()["counters"].items()
        if not (name.endswith(".s") or name.endswith("_s"))
    }

    gc.collect()
    timing = nullcontext() if audit_phases is None else timed_methods(
        Auditor, AUDIT_PHASES, audit_phases
    )
    with timing, timer() as audits:
        started = time.process_time()
        while trial.audits == 0 or time.process_time() - started < AUDIT_MIN_CPU_S:
            report = system.audit()
            trial.audits += 1
            if not report.ok:
                kinds = Counter(v.kind.value for v in report.violations)
                trial.problems.append(f"audit verdict not ok: {dict(kinds)}")
                break
    trial.audit_s = audits.reference_s / trial.audits

    # -- the correctness gate (the audit verdict is checked above) -------------
    heads = {
        (server.log.height, server.log.head_hash)
        for server in system.servers.values()
        if not server.crashed
    }
    if len(heads) != 1:
        trial.problems.append(f"live servers disagree on log height/head: {len(heads)} variants")
    if trial.committed + trial.aborted + trial.failed != trial.attempted:
        trial.problems.append(
            f"committed {trial.committed} + aborted {trial.aborted} + failed {trial.failed}"
            f" != attempted {trial.attempted}"
        )
    return trial


def block_latency_stats(latencies: List[float]) -> Dict[str, float]:
    """Median and tail of block latencies (seconds in, milliseconds out).

    The tail is the highest percentile with at least ten samples beyond it;
    with fewer than eleven samples it falls back to the maximum.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    tail_rank = count - 10 if count > 10 else count
    return {
        "p50_ms": percentile(ordered, 0.5) * 1000.0,
        "tail_ms": ordered[tail_rank - 1] * 1000.0,
        "tail_percentile": 100.0 * tail_rank / count,
        "samples": count,
    }


def seed_mean(trials: List[Trial], value: Callable[[Trial], float]) -> float:
    """Mean over the run's trial seeds of each seed's median over its trials.

    The median damps a trial the host disturbed; the mean weighs every
    input once (host cost differs by up to ~30% between trial seeds, so a
    median across seeds jumps between them).
    """
    by_seed: Dict[int, List[float]] = {}
    for trial in trials:
        by_seed.setdefault(trial.seed, []).append(value(trial))
    return statistics.mean(statistics.median(values) for values in by_seed.values())


def end_to_end(
    workload: Workload, trials: List[Trial]
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, float]]:
    """End-to-end metrics (host ones by :func:`seed_mean`, virtual ones pooled
    over the fixed trials) and the block-latency statistics behind the latter."""
    fixed = trials[: workload.trials]
    latency = block_latency_stats([x for t in fixed for x in t.block_latencies])
    values = {
        "setup_s": seed_mean(trials, lambda t: t.setup_s),
        "host_tps": seed_mean(trials, lambda t: t.committed / t.run_cpu_s),
        "audit_s": seed_mean(trials, lambda t: t.audit_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virtual_tps": sum(t.committed for t in fixed) / sum(t.makespan for t in fixed),
        "virtual_block_p50_ms": latency["p50_ms"],
        "virtual_block_tail_ms": latency["tail_ms"],
        "txn_commit_frac": sum(t.committed for t in fixed) / sum(t.attempted for t in fixed),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, latency


def per_layer(
    workload: Workload, pairs: List[Tuple[Trial, Trial]], audit_phases: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: self times summed over every traced trial; counts from the first pair."""
    metrics: Dict[str, Tuple[float, str]] = {}
    traced_txns = sum(traced.committed for _, traced in pairs)
    for layer in LAYERS:
        ns = sum(traced.tracer.self_ns[layer] for _, traced in pairs)
        metrics[f"{layer}.self_cpu_ms_per_txn"] = (ns / 1e6 / traced_txns, "ms/txn")
    total_ns = sum(traced.tracer.total_ns for _, traced in pairs)
    metrics["trace.cpu_ms_per_txn"] = (total_ns / 1e6 / traced_txns, "ms/txn")
    metrics["trace.overhead_frac"] = (
        total_ns / 1e9 / sum(untraced.run_cpu_s for untraced, _ in pairs) - 1.0,
        "ratio",
    )

    untraced, traced = pairs[0]
    txns, blocks = untraced.committed, untraced.blocks
    counts, counters = traced.tracer.counts, untraced.counters
    metrics.update(
        {
            "common.encoding.calls_per_txn": (
                counts["common.encoding.canonical_encode.calls"] / txns, "count/txn"),
            "common.encoding.bytes_per_txn": (counts["common.encoding.bytes"] / txns, "bytes/txn"),
            "crypto.group.scalar_mults_per_txn": (
                counts["crypto.group.scalar_mults"] / txns, "count/txn"),
            "crypto.signing.signs_per_txn": (counts["crypto.signing.signs"] / txns, "count/txn"),
            "crypto.signing.verifies_per_txn": (
                counts["crypto.signing.verifies"] / txns, "count/txn"),
            "crypto.cosi.verifies_per_block": (
                counts["crypto.cosi.verifies"] / blocks, "count/block"),
            "net.messages_per_txn": (counters.get("net.messages", 0.0) / txns, "count/txn"),
            "net.bytes_per_txn": (counters.get("net.bytes_total", 0.0) / txns, "bytes/txn"),
            "net.ordered_block_bytes_per_txn": (
                counters.get("net.bytes.ordered_block", 0.0) / txns, "bytes/txn"),
            "sim.events_per_txn": (untraced.events / txns, "count/txn"),
            "recovery.wal_appends_per_block": (
                counters.get("recovery.wal_appends", 0.0) / blocks, "count/block"),
            "crypto.merkle.hashes_per_block": (
                counters.get("storage.mht_hashes", 0.0) / blocks, "count/block"),
            "core.sequencing.busy_frac_max": (untraced.busy_max, "ratio"),
            "core.sequencing.epochs_per_block": (untraced.epochs / blocks, "count/block"),
            "core.txns_per_block_fill": (
                txns / blocks / workload.system["txns_per_block"], "ratio"),
            "txn_fail_frac": (
                (untraced.aborted + untraced.failed) / untraced.attempted, "ratio"),
        }
    )
    for phase in PHASES:
        metrics[f"phase.{phase}.virtual_ms_per_block"] = (
            untraced.phases.get(phase, 0.0) * 1000.0 / blocks, "ms/block")
    for reason in REASONS:
        metrics[f"txn.aborts.{reason}"] = (untraced.reasons[reason] / untraced.attempted, "ratio")
    for phase in AUDIT_PHASES:
        audits = sum(untraced.audits for untraced, _ in pairs)
        metrics[f"audit.{phase}_s"] = (audit_phases.get(phase, 0.0) / audits, "s")
    return metrics


@dataclass
class RunResult:
    """What one benchmark invocation prints."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    lines: List[str]

    def as_json(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()
            },
        }


def _gate_lines(trials: List[Trial]) -> List[str]:
    return [f"FAIL seed {t.seed}: {problem}" for t in trials for problem in t.problems]


def _outcome_line(trials: List[Trial]) -> str:
    reasons = sum((t.reasons for t in trials), Counter())
    return (
        f"outcomes over {len(trials)} trial(s): attempted {sum(t.attempted for t in trials)},"
        f" committed {sum(t.committed for t in trials)},"
        f" aborted {sum(t.aborted for t in trials)}, failed {sum(t.failed for t in trials)};"
        f" not committed by reason: {dict(sorted(reasons.items())) or '{}'}"
    )


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
) -> RunResult:
    """One invocation: trials until ``seconds`` of wall time are spent, then metrics."""
    deadline = time.monotonic() + seconds
    trials: List[Trial] = []
    lines: List[str] = []
    warm_up = run_trial(workload.warm_up(), trial_seed(seed, workload.trials))
    lines.append(f"warm-up trial: {warm_up.attempted} txns, not measured")
    if not trace:
        clock = ReferenceClock()
        while len(trials) < workload.trials or time.monotonic() < deadline:
            index = len(trials)
            first = trials[index % workload.trials] if index >= workload.trials else None
            trial = run_trial(workload, trial_seed(seed, index % workload.trials), clock=clock)
            if first is not None and trial.virtual() != first.virtual():
                trial.problems.append("virtual metrics differ from the same seed's first trial")
            trials.append(trial)
        metrics, latency = end_to_end(workload, trials)
        slowdowns = [t.slowdown for t in trials]
        lines.append(
            "core slowdown against the reference speed (raw / reference CPU s):"
            f" median {statistics.median(slowdowns):.3f}, range {min(slowdowns):.3f}"
            f" to {max(slowdowns):.3f} over {len(trials)} trials"
        )
        lines.append(
            f"virtual_block_tail_ms is p{latency['tail_percentile']:.1f} of"
            f" {latency['samples']} blocks"
        )
    else:
        pairs: List[Tuple[Trial, Trial]] = []
        audit_phases: Dict[str, float] = {}
        while not pairs or time.monotonic() < deadline:
            pair_seed = trial_seed(seed, len(pairs) % workload.trials)
            untraced = run_trial(workload, pair_seed, audit_phases=audit_phases)
            traced = run_trial(workload, pair_seed, tracer=LayerTracer())
            if traced.virtual() != untraced.virtual():
                traced.problems.append("traced virtual metrics differ from the untraced run's")
            pairs.append((untraced, traced))
            trials.extend((untraced, traced))
        metrics = per_layer(workload, pairs, audit_phases)
        lines.append(f"traced pairs: {len(pairs)}")
    lines.append(_outcome_line(trials))
    lines.extend(_gate_lines([warm_up] + trials))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<44} {value:>16.6f} {unit}")
    return RunResult(
        correct=not any(t.problems for t in [warm_up] + trials),
        attempted=sum(t.attempted for t in trials),
        failed=sum(t.failed for t in trials),
        metrics=metrics,
        lines=lines,
    )
