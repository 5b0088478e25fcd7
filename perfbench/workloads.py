"""The benchmark's workloads: one deployment shape and one transaction mix each.

Every workload is a closed loop with a saturating backlog: all specs are
generated up front and ``num_clients`` client sessions issue them
round-robin through ``run_workload``.  The simulator has no arrival
process, so the benchmark reports work per second at the stated input size
(``txns_per_trial``).  Virtual time runs under ``FixedCompute(1 ms)``, which
makes every virtual number a pure function of the seed.

A run first executes one small untimed warm-up trial (:meth:`Workload.warm_up`),
which pays the process's one-time costs.  It then executes ``trials`` trials
with the fixed seeds ``trial_seed(seed, 0..trials-1)`` and keeps going on
the same seeds, cyclically, until its time budget is spent; virtual metrics
pool the fixed trials, host metrics average the seeds' medians.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.api import FidesSystem, ScaledFidesSystem, SystemConfig, sharded_sequencer
from repro.bench.harness import locality_partitions
from repro.net.latency import lan_latency
from repro.sim.context import FixedCompute
from repro.workload.ycsb import PartitionedWorkload, TransactionSpec, YcsbWorkload

#: Per-phase compute charge on the virtual timeline, in seconds.
FIXED_COMPUTE_S = 0.001


def trial_seed(seed: int, trial: int) -> int:
    """The seed of one trial of a run started with ``--seed seed``."""
    return seed * 1000 + trial


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``SystemConfig`` fields (the seed is added per trial).
    system: Dict[str, object]
    #: Workload-generator fields (the seed is added per trial).
    generator: Dict[str, object]
    num_clients: int
    txns_per_trial: int
    trials: int
    #: ``"classic"`` (:class:`FidesSystem`) or ``"scaled"`` (:class:`ScaledFidesSystem`).
    deployment: str = "classic"
    #: Scaled-deployment knobs: ``group_size``, ``ordering_shards``, ``epoch_max_blocks``.
    extra: Dict[str, object] = field(default_factory=dict)

    def build(self, seed: int, txns: int) -> Tuple[object, List[TransactionSpec]]:
        """Build the deployment and generate ``txns`` specs, all from ``seed``."""
        if self.deployment == "scaled":
            return _build_scaled(self, seed, txns)
        return _build_classic(self, seed, txns)

    def warm_up(self) -> "Workload":
        """The same shape shrunk to one block per client: every code path of
        a trial runs once, at a fraction of its cost."""
        per_block = self.system["txns_per_block"]
        return replace(
            self,
            system={**self.system, "items_per_shard": min(self.system["items_per_shard"], 1_000)},
            txns_per_trial=min(self.txns_per_trial, per_block * self.num_clients),
            trials=1,
        )

    def provenance(self) -> Dict[str, object]:
        """Everything needed to re-create the workload's inputs, for the run log."""
        return {
            "workload": self.name,
            "deployment": self.deployment,
            "why": self.why,
            "shape": (
                f"closed loop, {self.num_clients} client session(s), all "
                f"{self.txns_per_trial} specs offered up front"
            ),
            "system": self.system,
            "generator": self.generator,
            "fixed_compute_s": FIXED_COMPUTE_S,
            "trials": self.trials,
            "trial_seeds": "seed * 1000 + trial",
            **self.extra,
        }


def _build_classic(workload: Workload, seed: int, txns: int):
    system = FidesSystem(
        SystemConfig(seed=seed, **workload.system),
        latency=lan_latency(seed=seed),
        compute_model=FixedCompute(FIXED_COMPUTE_S),
    )
    generator = YcsbWorkload(system.shard_map.all_items(), seed=seed, **workload.generator)
    return system, generator.generate(txns)


def _build_scaled(workload: Workload, seed: int, txns: int):
    system = ScaledFidesSystem(
        SystemConfig(seed=seed, **workload.system),
        latency=lan_latency(seed=seed),
        compute_model=FixedCompute(FIXED_COMPUTE_S),
        sequencer=sharded_sequencer(
            workload.extra["ordering_shards"],
            epoch_max_blocks=workload.extra["epoch_max_blocks"],
        ),
    )
    generator = PartitionedWorkload(
        partitions=locality_partitions(system, workload.extra["group_size"]),
        seed=seed,
        **workload.generator,
    )
    return system, generator.generate(txns)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-batch",
            why=(
                "The paper's default point (Figs 13-15): 100-txn blocks amortise crypto, "
                "so encoding, txn, Merkle/storage and the quadratic audit dominate"
            ),
            system=dict(
                num_servers=5,
                items_per_shard=10_000,
                txns_per_block=100,
                ops_per_txn=5,
                multi_versioned=True,
                message_signing="hash",
            ),
            generator=dict(ops_per_txn=5, read_modify_write=True, conflict_free_window=100),
            num_clients=1,
            txns_per_trial=300,
            trials=8,
        ),
        Workload(
            name="signed-single",
            why=(
                "The Fig 12 shape: 1 txn per block with Schnorr-signed envelopes, so "
                "per-round fixed costs and EC arithmetic dominate"
            ),
            system=dict(
                num_servers=5,
                items_per_shard=1_000,
                txns_per_block=1,
                ops_per_txn=5,
                multi_versioned=True,
                message_signing="schnorr",
            ),
            generator=dict(
                ops_per_txn=5,
                read_modify_write=False,
                write_fraction=0.2,
                conflict_free_window=1,
            ),
            num_clients=2,
            txns_per_trial=20,
            trials=12,
        ),
        Workload(
            name="scaleout-sharded",
            why=(
                "128 single-server groups over a 16-lane sharded sequencer: 128-way "
                "ordered-block fan-out stresses net, encoding, cosi and sequencing"
            ),
            system=dict(
                num_servers=128,
                items_per_shard=64,
                txns_per_block=16,
                ops_per_txn=2,
                multi_versioned=False,
                message_signing="hash",
            ),
            generator=dict(
                ops_per_txn=2,
                locality=0.9,
                conflict_free_window=16,
                home_skew_theta=0.6,
            ),
            num_clients=4,
            txns_per_trial=250,
            trials=8,
            deployment="scaled",
            extra=dict(group_size=1, ordering_shards=16, epoch_max_blocks=32),
        ),
    )
}
