"""Single-experiment runner and the simulated-time performance model.

The paper measures two quantities (Section 6): *commit latency* -- the time
to terminate a transaction once the client sends ``end_transaction`` -- and
*throughput* -- committed transactions per second.  On the paper's testbed
those come from wall clocks on EC2 VMs; here they come from the
simulated-time model described in DESIGN.md:

* every TFCommit / 2PC phase costs one outbound network delay + the slowest
  participant's *measured* compute + one inbound delay (participants work in
  parallel on real hardware, so the max is the right aggregate);
* blocks are produced sequentially (as in the paper's implementation), so the
  total run time is the sum of per-block latencies and the throughput is
  ``committed transactions / total simulated time``.

Commit latency per transaction is the block latency amortised over the
transactions batched in the block -- this is what Figure 13 reports when it
shows latency dropping as the batch grows.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.config import SystemConfig
from repro.core.fides import PROTOCOL_TFCOMMIT, FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer
from repro.net.latency import LatencyModel, lan_latency
from repro.sim.context import FixedCompute
from repro.workload.ycsb import PartitionedWorkload, YcsbWorkload


@dataclass(frozen=True)
class ExperimentConfig:
    """One point in an evaluation sweep.

    Defaults mirror the paper's setup: 5 servers, 10 000 items per shard,
    5 operations per transaction, 100 transactions per block, 1000 client
    requests, and the Transactional-YCSB-like workload.  ``num_requests`` is
    deliberately configurable because the pure-Python crypto makes the full
    1000-request sweeps slow in CI; the benchmark defaults use a few hundred
    requests, and ``python -m repro.bench`` can run the full size.
    """

    label: str = "experiment"
    protocol: str = PROTOCOL_TFCOMMIT
    num_servers: int = 5
    items_per_shard: int = 10_000
    txns_per_block: int = 100
    ops_per_txn: int = 5
    num_requests: int = 1000
    num_clients: int = 1
    message_signing: str = "hash"
    multi_versioned: bool = False
    pipeline_depth: int = 1
    #: Per-phase compute charge in milliseconds; ``None`` (the default) uses
    #: the measured wall-clock compute of the hybrid simulated-time model.
    #: CI's baseline-gated sweeps set it so their throughput is
    #: deterministic across machines (DESIGN.md section 7).
    fixed_compute_ms: Optional[float] = None
    seed: int = 2020
    #: ``"classic"`` (one coordinator) or ``"scaled"`` (dynamic groups +
    #: ordering service).  :func:`repro.bench.experiments.run` dispatches on
    #: this instead of callers picking a runner function by name.
    deployment: str = "classic"
    # -- scaled-deployment knobs (ignored by the classic deployment) --------
    #: Servers per workload home partition (group formation granularity).
    group_size: int = 2
    #: Probability a transaction stays within its home partition.
    locality: float = 1.0
    #: Zipfian skew over home partitions (0.0 = uniform round-robin).
    home_skew_theta: float = 0.0
    #: Sequencer lanes; 1 is the paper's single OrdServ (DESIGN.md §13).
    ordering_shards: int = 1
    #: Per-lane buffer bound of the sharded sequencer.
    epoch_max_blocks: int = 32

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            num_servers=self.num_servers,
            items_per_shard=self.items_per_shard,
            txns_per_block=self.txns_per_block,
            ops_per_txn=self.ops_per_txn,
            multi_versioned=self.multi_versioned,
            message_signing=self.message_signing,
            pipeline_depth=self.pipeline_depth,
            seed=self.seed,
        )


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 for an empty list).

    The canonical benchmark schema reports p50/p95/p99 commit latencies; the
    nearest-rank definition keeps the value an actual observed sample, which
    makes baseline comparisons stable at small smoke-sweep sizes.
    """
    if not samples:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError("percentile fraction must be in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * fraction))
    return ordered[rank - 1]


@dataclass
class ExperimentResult:
    """Measurements for one experiment configuration.

    ``total_time_s`` is the run's *makespan* on the simulated event timeline
    (the end of the last scheduled activity).  With ``pipeline_depth=1`` the
    blocks are produced sequentially and the makespan equals the sum of the
    per-block latencies (the pre-event-loop accounting); with deeper
    pipelines overlapping rounds shrink it, which is exactly the throughput
    gain the ``pipeline`` sweep quantifies.
    """

    config: ExperimentConfig
    committed_txns: int = 0
    aborted_txns: int = 0
    blocks: int = 0
    total_time_s: float = 0.0
    throughput_tps: float = 0.0
    block_latency_ms: float = 0.0
    txn_latency_ms: float = 0.0
    txn_latency_p50_ms: float = 0.0
    txn_latency_p95_ms: float = 0.0
    txn_latency_p99_ms: float = 0.0
    mht_update_ms: float = 0.0
    mht_hashes_per_block: float = 0.0
    network_ms_per_block: float = 0.0
    compute_ms_per_block: float = 0.0
    #: Wall-clock spent in crypto (sign/verify/aggregate) amortised per
    #: block, read from the run's ``crypto.*.s`` metrics counters -- the
    #: isolated micro-timer, not a share of the coarse phase compute.
    crypto_ms_per_block: float = 0.0
    phase_ms: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Flatten into a table row for reporting."""
        return {
            "label": self.config.label,
            "protocol": self.config.protocol,
            "servers": self.config.num_servers,
            "items/shard": self.config.items_per_shard,
            "txns/block": self.config.txns_per_block,
            "requests": self.config.num_requests,
            "clients": self.config.num_clients,
            "committed": self.committed_txns,
            "throughput (txns/s)": round(self.throughput_tps, 1),
            "txn latency (ms)": round(self.txn_latency_ms, 3),
            "txn p50 (ms)": round(self.txn_latency_p50_ms, 3),
            "txn p95 (ms)": round(self.txn_latency_p95_ms, 3),
            "txn p99 (ms)": round(self.txn_latency_p99_ms, 3),
            "block latency (ms)": round(self.block_latency_ms, 3),
            "MHT update (ms)": round(self.mht_update_ms, 3),
            "MHT hashes/block": round(self.mht_hashes_per_block, 1),
            "crypto (ms)": round(self.crypto_ms_per_block, 3),
        }


def run_experiment(
    config: ExperimentConfig, latency: Optional[LatencyModel] = None
) -> ExperimentResult:
    """Execute one experiment configuration and return its measurements."""
    system = FidesSystem(
        config=config.system_config(),
        protocol=config.protocol,
        latency=latency or lan_latency(seed=config.seed),
        compute_model=(
            FixedCompute(config.fixed_compute_ms / 1000.0)
            if config.fixed_compute_ms is not None
            else None
        ),
    )
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(),
        ops_per_txn=config.ops_per_txn,
        conflict_free_window=config.txns_per_block,
        seed=config.seed,
    )
    specs = workload.generate(config.num_requests)
    outcome = system.run_workload(specs, num_clients=config.num_clients)

    result = ExperimentResult(config=config)
    result.committed_txns = outcome.committed
    result.aborted_txns = outcome.aborted
    block_results = [r for r in outcome.block_results if r.status in ("committed", "aborted")]
    result.blocks = len(block_results)
    if not block_results:
        return result

    block_latencies = [r.timing.total for r in block_results]
    txn_latencies = [r.timing.per_txn_latency for r in block_results]
    #: Every transaction in a block shares the block's amortised latency;
    #: weighting by block size makes the percentiles per-transaction ones.
    per_txn_samples = [
        r.timing.per_txn_latency for r in block_results for _ in range(max(1, r.timing.num_txns))
    ]
    result.total_time_s = system.sim.makespan
    result.block_latency_ms = statistics.mean(block_latencies) * 1000.0
    result.txn_latency_ms = statistics.mean(txn_latencies) * 1000.0
    result.txn_latency_p50_ms = percentile(per_txn_samples, 0.50) * 1000.0
    result.txn_latency_p95_ms = percentile(per_txn_samples, 0.95) * 1000.0
    result.txn_latency_p99_ms = percentile(per_txn_samples, 0.99) * 1000.0
    result.mht_update_ms = statistics.mean(r.timing.mht_time for r in block_results) * 1000.0
    result.mht_hashes_per_block = statistics.mean(
        r.timing.mht_hashes for r in block_results
    )
    result.network_ms_per_block = (
        statistics.mean(r.timing.network_time for r in block_results) * 1000.0
    )
    result.compute_ms_per_block = (
        statistics.mean(r.timing.compute_time for r in block_results) * 1000.0
    )
    # Crypto wall time comes from the isolated micro-timers around every
    # sign/verify/aggregate call (``crypto.*.s`` counters), not from a share
    # of the coarse phase compute -- the row previously omitted it entirely.
    crypto_s = sum(
        value
        for name, value in system.sim.obs.metrics.counters_matching("crypto.").items()
        if name.endswith(".s")
    )
    result.crypto_ms_per_block = crypto_s / result.blocks * 1000.0
    if result.total_time_s > 0:
        result.throughput_tps = result.committed_txns / result.total_time_s

    phase_names = {name for r in block_results for name in r.timing.phases}
    for name in sorted(phase_names):
        samples = [r.timing.phases.get(name, 0.0) for r in block_results]
        result.phase_ms[name] = statistics.mean(samples) * 1000.0
    return result


@dataclass
class ScaledExperimentResult:
    """Measurements of one scaled-deployment point vs its single-group baseline.

    Both durations come off the shared event timeline: group coordinators
    are distinct machines whose rounds genuinely interleave (subject to the
    scheduler's cross-group and ordering-service rules, DESIGN.md section 7),
    so the scaled run's duration is its makespan -- with one coordinator it
    degenerates to the baseline's sequential sum.  Ordered delivery is part
    of each block's timing (the ``order`` phase) and serializes on the
    shared ordering-service resource.
    """

    label: str = ""
    num_servers: int = 0
    group_size: int = 0
    locality: float = 1.0
    txns_per_block: int = 1
    committed_txns: int = 0
    aborted_txns: int = 0
    blocks: int = 0
    group_coordinators: int = 0
    distinct_groups: int = 0
    scaled_time_s: float = 0.0
    scaled_tps: float = 0.0
    baseline_tps: float = 0.0
    speedup: float = 0.0
    txn_latency_ms: float = 0.0
    #: Ordering shards the run used (1 = the paper's single OrdServ).
    ordering_shards: int = 1
    #: Busiest ordering lane's busy time over the makespan -- how saturated
    #: the ordering layer is (the scale-out sweep's headline bottleneck metric).
    ordering_busy_frac: float = 0.0
    #: Epoch anchors sealed (0 under a one-lane sequencer).
    epochs: int = 0

    def as_row(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "servers": self.num_servers,
            "group size": self.group_size,
            "locality": self.locality,
            "txns/block": self.txns_per_block,
            "committed": self.committed_txns,
            "coordinators": self.group_coordinators,
            "groups": self.distinct_groups,
            "scaled tps": round(self.scaled_tps, 1),
            "baseline tps": round(self.baseline_tps, 1),
            "speedup": round(self.speedup, 2),
            "txn latency (ms)": round(self.txn_latency_ms, 3),
        }


def locality_partitions(system, group_size: int) -> List[List[str]]:
    """Split a system's item universe into per-``group_size``-servers pools."""
    server_ids = list(system.config.server_ids)
    partitions: List[List[str]] = []
    for start in range(0, len(server_ids), group_size):
        chunk = server_ids[start : start + group_size]
        items: List[str] = []
        for server_id in chunk:
            items.extend(system.shard_map.items_of(server_id))
        partitions.append(items)
    return partitions


def run_scaled_from_config(
    config: ExperimentConfig,
    latency: Optional[LatencyModel] = None,
    baseline: bool = True,
) -> ScaledExperimentResult:
    """Run one scaled-deployment point described by an :class:`ExperimentConfig`.

    ``config.ordering_shards`` sets the sequencer's lane count (1 is the
    paper's single OrdServ).  With ``baseline=True`` the same
    locality-partitioned workload also runs on a classic single-coordinator
    :class:`FidesSystem` -- each with its own seed-matched latency model,
    since sharing one instance would let the first run advance the RNG
    stream the second samples from.  The scale-out
    sweep passes ``baseline=False``: dragging 100+ servers through a
    single-coordinator round per block is not a useful baseline there (the
    1-shard scaled run is).
    """
    system_config = config.system_config()
    compute_model = (
        FixedCompute(config.fixed_compute_ms / 1000.0)
        if config.fixed_compute_ms is not None
        else None
    )
    scaled = ScaledFidesSystem(
        system_config,
        latency=latency or lan_latency(seed=config.seed),
        compute_model=compute_model,
        sequencer=sharded_sequencer(
            config.ordering_shards, epoch_max_blocks=config.epoch_max_blocks
        ),
    )
    workload = PartitionedWorkload(
        partitions=locality_partitions(scaled, config.group_size),
        ops_per_txn=config.ops_per_txn,
        locality=config.locality,
        conflict_free_window=config.txns_per_block,
        seed=config.seed,
        home_skew_theta=config.home_skew_theta,
    )
    specs = workload.generate(config.num_requests)
    outcome = scaled.run_workload(specs, num_clients=config.num_clients)

    result = ScaledExperimentResult(
        label=config.label,
        num_servers=config.num_servers,
        group_size=config.group_size,
        locality=config.locality,
        txns_per_block=config.txns_per_block,
        ordering_shards=config.ordering_shards,
    )
    result.committed_txns = outcome.committed
    result.aborted_txns = outcome.aborted
    result.group_coordinators = len(scaled.active_group_coordinators)
    result.distinct_groups = len(scaled.groups_used())
    result.epochs = len(scaled.ordering.epoch_anchors)

    block_latencies = []
    txn_latencies = []
    for coordinator in scaled._coordinators():
        finished = [r for r in coordinator.results if r.status in ("committed", "aborted")]
        block_latencies.extend(r.timing.total for r in finished)
        txn_latencies.extend(r.timing.per_txn_latency for r in finished)
    result.blocks = len(block_latencies)
    result.scaled_time_s = scaled.sim.makespan
    if result.scaled_time_s > 0:
        result.scaled_tps = result.committed_txns / result.scaled_time_s
        busy = scaled.sim.scheduler.delivery_busy()
        if busy:
            result.ordering_busy_frac = max(busy.values()) / result.scaled_time_s
    if txn_latencies:
        result.txn_latency_ms = statistics.mean(txn_latencies) * 1000.0

    if not baseline:
        return result

    baseline_system = FidesSystem(
        config=system_config,
        protocol=PROTOCOL_TFCOMMIT,
        latency=lan_latency(seed=config.seed),
        compute_model=compute_model,
    )
    baseline_workload = PartitionedWorkload(
        partitions=locality_partitions(baseline_system, config.group_size),
        ops_per_txn=config.ops_per_txn,
        locality=config.locality,
        conflict_free_window=config.txns_per_block,
        seed=config.seed,
        home_skew_theta=config.home_skew_theta,
    )
    baseline_outcome = baseline_system.run_workload(
        baseline_workload.generate(config.num_requests), num_clients=config.num_clients
    )
    baseline_time = baseline_system.sim.makespan
    if baseline_time > 0:
        result.baseline_tps = baseline_outcome.committed / baseline_time
    if result.baseline_tps > 0:
        result.speedup = result.scaled_tps / result.baseline_tps
    return result


@dataclass
class PipelineExperimentResult:
    """One pipelined-vs-sequential comparison point.

    Both runs execute the *same* workload on the same deployment shape; only
    ``pipeline_depth`` differs.  ``speedup`` is pipelined over sequential
    throughput -- at depth 1 it is exactly 1.0 by construction (the depth-1
    schedule *is* the sequential schedule), and the dependency rules cap how
    far it can rise with depth.
    """

    label: str = ""
    num_servers: int = 0
    group_size: int = 0  # 0 = classic single-coordinator deployment
    pipeline_depth: int = 1
    txns_per_block: int = 1
    committed_txns: int = 0
    aborted_txns: int = 0
    blocks: int = 0
    pipelined_time_s: float = 0.0
    pipelined_tps: float = 0.0
    sequential_time_s: float = 0.0
    sequential_tps: float = 0.0
    speedup: float = 0.0
    auditor_clean: bool = False

    def as_row(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "servers": self.num_servers,
            "groups": "scaled" if self.group_size else "classic",
            "depth": self.pipeline_depth,
            "txns/block": self.txns_per_block,
            "committed": self.committed_txns,
            "blocks": self.blocks,
            "pipelined tps": round(self.pipelined_tps, 1),
            "sequential tps": round(self.sequential_tps, 1),
            "speedup": round(self.speedup, 3),
            "audit clean": self.auditor_clean,
        }


def run_pipelined_experiment(
    label: str,
    pipeline_depth: int = 2,
    num_servers: int = 4,
    group_size: int = 0,
    items_per_shard: int = 200,
    txns_per_block: int = 4,
    ops_per_txn: int = 2,
    num_requests: int = 48,
    num_clients: int = 1,
    seed: int = 2020,
    audit: bool = True,
    fixed_compute_ms: Optional[float] = 1.0,
    obs=None,
) -> PipelineExperimentResult:
    """Run one workload pipelined (depth >= 2) and sequentially (depth 1).

    ``group_size=0`` drives the classic single-coordinator deployment;
    a positive ``group_size`` drives a :class:`ScaledFidesSystem` with a
    fully partitioned workload, so pipelining composes with dynamic groups
    and the ordering service.  The workload's conflict-free window spans
    ``pipeline_depth`` consecutive batches in both runs: the comparison
    measures the scheduler, not workload-conflict luck.

    By default both runs use a :class:`~repro.sim.context.FixedCompute`
    model (``fixed_compute_ms`` per phase): the speedup then isolates the
    scheduling effect and is bit-identical across repeats and machines --
    which is what the CI baseline gate compares.  Pass ``None`` to use
    measured compute instead.

    ``obs`` is a shared :class:`~repro.obs.Observability` bundle (the traced
    bench CLI passes a tracing-enabled one); each inner run becomes its own
    trace process so the pipelined and sequential timelines stay separable
    in the exported trace.
    """
    window = max(1, pipeline_depth) * txns_per_block
    compute_model = (
        FixedCompute(fixed_compute_ms / 1000.0) if fixed_compute_ms is not None else None
    )

    def run_at(depth: int):
        config = SystemConfig(
            num_servers=num_servers,
            items_per_shard=items_per_shard,
            txns_per_block=txns_per_block,
            ops_per_txn=ops_per_txn,
            multi_versioned=False,
            message_signing="hash",
            pipeline_depth=depth,
            seed=seed,
        )
        if obs is not None:
            obs.tracer.begin_process(f"{label}/d{depth}")
        if group_size:
            system = ScaledFidesSystem(
                config,
                latency=lan_latency(seed=seed),
                compute_model=compute_model,
                obs=obs,
            )
            workload = PartitionedWorkload(
                partitions=locality_partitions(system, group_size),
                ops_per_txn=ops_per_txn,
                locality=1.0,
                conflict_free_window=window,
                seed=seed,
            )
        else:
            system = FidesSystem(
                config=config,
                protocol=PROTOCOL_TFCOMMIT,
                latency=lan_latency(seed=seed),
                compute_model=compute_model,
                obs=obs,
            )
            workload = YcsbWorkload(
                item_ids=system.shard_map.all_items(),
                ops_per_txn=ops_per_txn,
                conflict_free_window=window,
                seed=seed,
            )
        outcome = system.run_workload(workload.generate(num_requests), num_clients=num_clients)
        return system, outcome

    pipelined_system, pipelined_outcome = run_at(pipeline_depth)
    if pipeline_depth == 1:
        # The depth-1 schedule IS the sequential schedule; re-running the
        # identical configuration would only double the anchor point's cost.
        sequential_system, sequential_outcome = pipelined_system, pipelined_outcome
    else:
        sequential_system, sequential_outcome = run_at(1)

    result = PipelineExperimentResult(
        label=label,
        num_servers=num_servers,
        group_size=group_size,
        pipeline_depth=pipeline_depth,
        txns_per_block=txns_per_block,
    )
    result.committed_txns = pipelined_outcome.committed
    result.aborted_txns = pipelined_outcome.aborted
    result.blocks = sum(
        1 for r in pipelined_outcome.block_results if r.status in ("committed", "aborted")
    )
    result.pipelined_time_s = pipelined_system.sim.makespan
    result.sequential_time_s = sequential_system.sim.makespan
    if result.pipelined_time_s > 0:
        result.pipelined_tps = pipelined_outcome.committed / result.pipelined_time_s
    if result.sequential_time_s > 0:
        result.sequential_tps = sequential_outcome.committed / result.sequential_time_s
    if result.sequential_tps > 0:
        result.speedup = result.pipelined_tps / result.sequential_tps
    if audit:
        result.auditor_clean = pipelined_system.audit().ok and (
            sequential_system is pipelined_system or sequential_system.audit().ok
        )
    return result


def run_average(config: ExperimentConfig, repeats: int = 1) -> ExperimentResult:
    """Run ``repeats`` independent runs (different seeds) and average the metrics.

    The paper averages 3 runs per data point; tests and quick benchmarks use
    1 to stay fast.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    runs: List[ExperimentResult] = []
    for repeat in range(repeats):
        cfg = ExperimentConfig(
            **{**config.__dict__, "seed": config.seed + repeat}
        )
        runs.append(run_experiment(cfg))
    if len(runs) == 1:
        return runs[0]
    merged = ExperimentResult(config=config)
    merged.committed_txns = round(statistics.mean(r.committed_txns for r in runs))
    merged.aborted_txns = round(statistics.mean(r.aborted_txns for r in runs))
    merged.blocks = round(statistics.mean(r.blocks for r in runs))
    merged.total_time_s = statistics.mean(r.total_time_s for r in runs)
    merged.throughput_tps = statistics.mean(r.throughput_tps for r in runs)
    merged.block_latency_ms = statistics.mean(r.block_latency_ms for r in runs)
    merged.txn_latency_ms = statistics.mean(r.txn_latency_ms for r in runs)
    merged.txn_latency_p50_ms = statistics.mean(r.txn_latency_p50_ms for r in runs)
    merged.txn_latency_p95_ms = statistics.mean(r.txn_latency_p95_ms for r in runs)
    merged.txn_latency_p99_ms = statistics.mean(r.txn_latency_p99_ms for r in runs)
    merged.mht_update_ms = statistics.mean(r.mht_update_ms for r in runs)
    merged.mht_hashes_per_block = statistics.mean(r.mht_hashes_per_block for r in runs)
    merged.network_ms_per_block = statistics.mean(r.network_ms_per_block for r in runs)
    merged.compute_ms_per_block = statistics.mean(r.compute_ms_per_block for r in runs)
    merged.crypto_ms_per_block = statistics.mean(r.crypto_ms_per_block for r in runs)
    # Merge the per-phase means as well: a run missing a phase (e.g. a
    # repeat whose every block failed before "finalize") contributes 0.
    phase_names = {name for r in runs for name in r.phase_ms}
    for name in sorted(phase_names):
        merged.phase_ms[name] = statistics.mean(r.phase_ms.get(name, 0.0) for r in runs)
    return merged
