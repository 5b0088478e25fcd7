"""Shared fixtures for the test suite.

The fixtures build small clusters (few servers, few items) so the whole suite
runs quickly; the paper-scale parameters are exercised by the benchmark
harness instead.
"""

from __future__ import annotations

import pytest

from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.crypto.keys import keypair_for
from repro.net.latency import ConstantLatency
from repro.workload.ycsb import YcsbWorkload


@pytest.fixture
def small_config() -> SystemConfig:
    """Three servers, forty items each, one transaction per block."""
    return SystemConfig(
        num_servers=3,
        items_per_shard=40,
        txns_per_block=1,
        ops_per_txn=2,
        multi_versioned=True,
        message_signing="schnorr",
        seed=7,
    )


@pytest.fixture
def batched_config() -> SystemConfig:
    """Three servers with four transactions batched per block."""
    return SystemConfig(
        num_servers=3,
        items_per_shard=60,
        txns_per_block=4,
        ops_per_txn=2,
        multi_versioned=True,
        message_signing="hash",
        seed=11,
    )


@pytest.fixture
def small_system(small_config) -> FidesSystem:
    """A ready-to-use TFCommit deployment on the small config."""
    return FidesSystem(small_config, latency=ConstantLatency(0.0002))


@pytest.fixture
def batched_system(batched_config) -> FidesSystem:
    """A ready-to-use TFCommit deployment with batching enabled."""
    return FidesSystem(batched_config, latency=ConstantLatency(0.0002))


@pytest.fixture
def twopc_system(small_config) -> FidesSystem:
    """A 2PC baseline deployment on the small config."""
    return FidesSystem(small_config, protocol="2pc", latency=ConstantLatency(0.0002))


@pytest.fixture
def make_system():
    """Factory for one-off deployments with non-default parameters.

    Replaces the copy-pasted ``SystemConfig(...)`` + ``FidesSystem(...)``
    setup blocks that used to live in individual test modules; every keyword
    mirrors a :class:`SystemConfig` field.
    """

    def build(
        num_servers: int = 3,
        items_per_shard: int = 60,
        txns_per_block: int = 4,
        ops_per_txn: int = 2,
        multi_versioned: bool = True,
        message_signing: str = "hash",
        seed: int = 11,
        protocol: str = "tfcommit",
        latency_s: float = 0.0002,
    ) -> FidesSystem:
        config = SystemConfig(
            num_servers=num_servers,
            items_per_shard=items_per_shard,
            txns_per_block=txns_per_block,
            ops_per_txn=ops_per_txn,
            multi_versioned=multi_versioned,
            message_signing=message_signing,
            seed=seed,
        )
        return FidesSystem(config, protocol=protocol, latency=ConstantLatency(latency_s))

    return build


@pytest.fixture
def make_scaled_system():
    """Factory for scaled multi-coordinator deployments (Section 4.6)."""

    def build(
        num_servers: int = 4,
        items_per_shard: int = 40,
        txns_per_block: int = 2,
        ops_per_txn: int = 2,
        message_signing: str = "hash",
        seed: int = 11,
        latency_s: float = 0.0002,
        sequencer=None,
    ) -> ScaledFidesSystem:
        config = SystemConfig(
            num_servers=num_servers,
            items_per_shard=items_per_shard,
            txns_per_block=txns_per_block,
            ops_per_txn=ops_per_txn,
            multi_versioned=True,
            message_signing=message_signing,
            seed=seed,
        )
        return ScaledFidesSystem(
            config,
            latency=ConstantLatency(latency_s),
            sequencer=sequencer,
        )

    return build


@pytest.fixture
def run_history(workload_factory):
    """Drive ``count`` committed transactions through a system.

    The audit test modules all need "some committed history" before they
    tamper with state; this shared helper replaces their per-module copies.
    """

    def run(system: FidesSystem, count: int = 5, seed: int = 51, ops_per_txn: int = 2):
        workload = workload_factory(system, ops_per_txn=ops_per_txn, seed=seed)
        result = system.run_workload(workload.generate(count))
        assert result.committed == count
        return result

    return run


@pytest.fixture
def workload_factory():
    """Factory building conflict-free YCSB workloads for a given system."""

    def build(system: FidesSystem, ops_per_txn: int = 2, window: int = 0, seed: int = 3):
        return YcsbWorkload(
            item_ids=system.shard_map.all_items(),
            ops_per_txn=ops_per_txn,
            conflict_free_window=window,
            seed=seed,
        )

    return build


@pytest.fixture
def server_keypairs():
    """Deterministic key pairs for five named servers."""
    return {f"s{i}": keypair_for(f"s{i}", seed=99) for i in range(5)}


@pytest.fixture
def random_payload():
    """Seed-deterministic nested payloads of the types protocol messages carry.

    Shared by the encoding and envelope round-trip suites; pass a seeded
    ``random.Random`` so runs stay reproducible.
    """

    def build(rng, depth: int = 0, max_depth: int = 3):
        if depth >= max_depth or rng.random() < 0.5:
            return rng.choice(
                [
                    None,
                    rng.random() < 0.5,
                    rng.randint(-(2**64), 2**64),
                    rng.random(),
                    "".join(rng.choice("abcxyz-_0123") for _ in range(rng.randint(0, 12))),
                    bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 16))),
                ]
            )
        if rng.random() < 0.5:
            return [build(rng, depth + 1, max_depth) for _ in range(rng.randint(0, 4))]
        return {
            f"k{rng.randint(0, 30)}": build(rng, depth + 1, max_depth)
            for _ in range(rng.randint(0, 4))
        }

    return build
