#!/usr/bin/env python3
"""A guided tour of the evaluation harness (Section 6 of the paper).

Runs reduced-size versions of every figure in the paper's evaluation and
prints the same series the paper plots:

* Figure 12 -- 2PC vs TFCommit (the cost of trust-freedom);
* Figure 13 -- batching transactions into blocks;
* Figure 14 -- scaling the number of servers / shards;
* Figure 15 -- growing the number of items per shard.

The full, paper-sized sweeps are available through
``python -m repro.bench <figure> --requests 1000``.

Run with::

    python examples/benchmark_tour.py
"""

from __future__ import annotations

from repro.api import ExperimentConfig, run
from repro.bench.experiments import (
    figure12_2pc_vs_tfcommit,
    figure13_txns_per_block,
    figure14_number_of_servers,
    figure15_items_per_shard,
)
from repro.bench.reporting import format_table


def main() -> None:
    print(format_table(
        figure12_2pc_vs_tfcommit(server_counts=(3, 5, 7), num_requests=20, items_per_shard=500),
        title="Figure 12: 2PC vs TFCommit (1 txn per block)",
    ))
    print()
    print(format_table(
        figure13_txns_per_block(batch_sizes=(2, 20, 40, 80, 120), num_requests=240,
                                items_per_shard=1000),
        title="Figure 13: transactions per block (5 servers)",
    ))
    print()
    print(format_table(
        figure14_number_of_servers(server_counts=(3, 5, 7, 9), num_requests=200,
                                   items_per_shard=1000),
        title="Figure 14: number of servers (100 txns per block)",
    ))
    print()
    print(format_table(
        figure15_items_per_shard(shard_sizes=(1000, 4000, 7000, 10000), num_requests=100),
        title="Figure 15: items per shard (5 servers, 100 txns per block)",
    ))
    # Beyond the paper: one scale-out point through the unified run()
    # facade -- dynamic groups over a 4-shard ordering service (§4.6 plus
    # the sharded sequencer of DESIGN.md §13).
    scaled = run(ExperimentConfig(
        deployment="scaled",
        num_servers=16,
        group_size=1,
        items_per_shard=64,
        txns_per_block=4,
        num_requests=64,
        num_clients=2,
        locality=0.9,
        ordering_shards=4,
        message_signing="hash",
        fixed_compute_ms=1.0,
    ))
    print()
    print(
        f"Scale-out point: {scaled.committed_txns} txns committed through "
        f"{scaled.distinct_groups} dynamic groups over 4 ordering shards "
        f"({scaled.throughput_tps:.1f} txns/s simulated)"
    )


if __name__ == "__main__":
    main()
