"""The experiment runner and the simulated-time performance model.

The paper measures two quantities (Section 6): *commit latency* -- the time
to terminate a transaction once the client sends ``end_transaction`` -- and
*throughput* -- committed transactions per second.  On the paper's testbed
those come from wall clocks on EC2 VMs; here they come from the
simulated-time model described in DESIGN.md:

* every TFCommit / 2PC phase costs one outbound network delay + the slowest
  participant's *measured* compute + one inbound delay (participants work in
  parallel on real hardware, so the max is the right aggregate);
* every round is scheduled on one shared discrete-event timeline, so the
  total run time is the timeline's makespan and the throughput is
  ``committed transactions / makespan``.

Commit latency per transaction is the block latency amortised over the
transactions batched in the block -- this is what Figure 13 reports when it
shows latency dropping as the batch grows.

:func:`run` is the one runner: it measures one :class:`ExperimentConfig`
point, classic or scaled, and returns one :class:`ExperimentResult`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.core.fides import PROTOCOL_TFCOMMIT, FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer
from repro.net.latency import LatencyModel, lan_latency
from repro.sim.context import FixedCompute
from repro.workload.ycsb import PartitionedWorkload, TransactionSpec, YcsbWorkload


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
    #: ordering service); :func:`run` builds the deployment it names.
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
    (the end of the last scheduled activity).  With ``pipeline_depth=1`` and
    one coordinator the blocks are produced sequentially and the makespan
    equals the sum of the per-block latencies; deeper pipelines and
    concurrent group coordinators overlap rounds and shrink it, which is the
    throughput gain the ``pipeline`` and ``scaledgroups`` sweeps quantify.
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
    #: block, read from this run's ``crypto.*.s`` metrics counters -- the
    #: isolated micro-timer, not a share of the coarse phase compute.
    crypto_ms_per_block: float = 0.0
    phase_ms: Dict[str, float] = field(default_factory=dict)
    #: Coordinators that terminated at least one block (1 when classic).
    group_coordinators: int = 0
    #: Distinct dynamic groups that produced an ordered block (the classic
    #: deployment's one group is the whole cluster).
    distinct_groups: int = 0
    #: Busiest ordering lane's busy time over the makespan -- how saturated
    #: the ordering layer is (0.0 when classic: no ordering service).
    ordering_busy_frac: float = 0.0
    #: Epoch anchors sealed (0 under a one-lane sequencer or when classic).
    epochs: int = 0

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


def _build(
    config: ExperimentConfig,
    latency: Optional[LatencyModel] = None,
    obs=None,
    state_store_factory=None,
):
    """Build the system and workload generator ``config`` describes.

    ``config.deployment`` picks a classic single-coordinator
    :class:`FidesSystem` over a YCSB workload, or a
    :class:`ScaledFidesSystem` ordering through ``ordering_shards`` sequencer
    lanes over a locality-partitioned workload.  The workload's conflict-free
    window spans ``pipeline_depth`` consecutive batches, so a pipelined run
    measures the scheduler, not workload-conflict luck.  Each system gets its
    own seed-matched latency model unless ``latency`` is given: sharing one
    instance would let one run advance the RNG stream the next samples from.
    """
    if config.deployment not in ("classic", "scaled"):
        raise ConfigurationError(
            f"unknown deployment {config.deployment!r} (expected 'classic' or 'scaled')"
        )
    common = dict(
        latency=latency or lan_latency(seed=config.seed),
        compute_model=(
            FixedCompute(config.fixed_compute_ms / 1000.0)
            if config.fixed_compute_ms is not None
            else None
        ),
        state_store_factory=state_store_factory,
        obs=obs,
    )
    window = config.pipeline_depth * config.txns_per_block
    if config.deployment == "classic":
        system = FidesSystem(config.system_config(), protocol=config.protocol, **common)
        workload = YcsbWorkload(
            item_ids=system.shard_map.all_items(),
            ops_per_txn=config.ops_per_txn,
            conflict_free_window=window,
            seed=config.seed,
        )
        return system, workload
    system = ScaledFidesSystem(
        config.system_config(),
        sequencer=sharded_sequencer(
            config.ordering_shards, epoch_max_blocks=config.epoch_max_blocks
        ),
        **common,
    )
    workload = PartitionedWorkload(
        partitions=locality_partitions(system, config.group_size),
        ops_per_txn=config.ops_per_txn,
        locality=config.locality,
        conflict_free_window=window,
        seed=config.seed,
        home_skew_theta=config.home_skew_theta,
    )
    return system, workload


def _execute(
    config: ExperimentConfig,
    latency: Optional[LatencyModel] = None,
    obs=None,
    specs: Optional[Sequence[TransactionSpec]] = None,
) -> Tuple[FidesSystem, Sequence[TransactionSpec], ExperimentResult]:
    """Run ``config`` -- on ``specs`` when given -- and measure it.

    Returns the system (for sweeps that audit it), the specs it ran (for
    sweeps that replay them on a comparison deployment) and the result.
    """
    crypto_before = 0.0
    if obs is not None:
        # Each run is its own trace process, so several runs sharing one
        # bundle stay separable in the exported trace.
        obs.tracer.begin_process(f"{config.label}/d{config.pipeline_depth}")
        crypto_before = obs.crypto_seconds()
    system, workload = _build(config, latency=latency, obs=obs)
    if specs is None:
        specs = workload.generate(config.num_requests)
    outcome = system.run_workload(specs, num_clients=config.num_clients)

    result = ExperimentResult(config=config)
    result.committed_txns = outcome.committed
    result.aborted_txns = outcome.aborted
    result.group_coordinators = sum(1 for c in system._coordinators() if c.results)
    if isinstance(system, ScaledFidesSystem):
        result.distinct_groups = len(system.groups_used())
        result.epochs = len(system.ordering.epoch_anchors)
    else:
        result.distinct_groups = min(1, result.group_coordinators)
    block_results = [r for r in outcome.block_results if r.status in ("committed", "aborted")]
    result.blocks = len(block_results)
    if not block_results:
        return system, specs, result

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
    # of the coarse phase compute.  A shared bundle carries earlier runs'
    # totals, so only this run's increment counts.
    crypto_s = system.sim.obs.crypto_seconds() - crypto_before
    result.crypto_ms_per_block = crypto_s / result.blocks * 1000.0
    if result.total_time_s > 0:
        result.throughput_tps = result.committed_txns / result.total_time_s
        busy = system.sim.scheduler.delivery_busy()
        if busy:
            result.ordering_busy_frac = max(busy.values()) / result.total_time_s

    phase_names = {name for r in block_results for name in r.timing.phases}
    for name in sorted(phase_names):
        samples = [r.timing.phases.get(name, 0.0) for r in block_results]
        result.phase_ms[name] = statistics.mean(samples) * 1000.0
    return system, specs, result


def run(
    config: ExperimentConfig,
    latency: Optional[LatencyModel] = None,
    obs=None,
) -> ExperimentResult:
    """Execute one experiment configuration and return its measurements.

    ``config.deployment`` selects the deployment (see :func:`_build`).
    ``latency`` overrides the seed-matched LAN model; ``obs`` is a shared
    :class:`~repro.obs.Observability` bundle (the traced bench CLI passes a
    tracing-enabled one), in which the run opens its own trace process
    ``<label>/d<pipeline_depth>``.
    """
    return _execute(config, latency=latency, obs=obs)[2]
