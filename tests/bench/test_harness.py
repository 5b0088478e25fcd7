"""Tests for the benchmark harness (tiny experiment sizes)."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig, percentile, run
from repro.core.fides import PROTOCOL_2PC, PROTOCOL_TFCOMMIT


def tiny_config(**overrides):
    base = dict(
        label="tiny",
        protocol=PROTOCOL_TFCOMMIT,
        num_servers=3,
        items_per_shard=60,
        txns_per_block=2,
        ops_per_txn=2,
        num_requests=4,
        message_signing="hash",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentRunner:
    def test_all_requests_commit(self):
        result = run(tiny_config())
        assert result.committed_txns == 4
        assert result.aborted_txns == 0
        assert result.blocks == 2

    def test_metrics_are_positive_and_consistent(self):
        result = run(tiny_config())
        assert result.throughput_tps > 0
        assert result.block_latency_ms > 0
        assert result.txn_latency_ms <= result.block_latency_ms
        assert result.total_time_s == pytest.approx(
            result.blocks * result.block_latency_ms / 1000.0, rel=0.05
        )

    def test_as_row_has_report_columns(self):
        row = run(tiny_config()).as_row()
        for column in ("protocol", "servers", "throughput (txns/s)", "txn latency (ms)"):
            assert column in row

    def test_2pc_runs_too(self):
        result = run(tiny_config(protocol=PROTOCOL_2PC, label="tiny-2pc"))
        assert result.committed_txns == 4
        assert result.mht_update_ms == 0.0

    def test_tfcommit_slower_than_2pc_at_batch_one(self):
        tfc = run(tiny_config(txns_per_block=1))
        twopc = run(tiny_config(protocol=PROTOCOL_2PC, txns_per_block=1))
        assert tfc.txn_latency_ms > twopc.txn_latency_ms
        assert twopc.throughput_tps > tfc.throughput_tps

    def test_phase_breakdown_and_blocks_hold_across_seeds(self):
        # Regression: a run's per-phase means and block count must not
        # depend on which seed drew the workload.
        results = [run(tiny_config(seed=2020 + i)) for i in range(2)]
        assert [result.blocks for result in results] == [2, 2]
        assert results[0].phase_ms
        assert set(results[0].phase_ms) == set(results[1].phase_ms)
        for result in results:
            assert all(value > 0 for value in result.phase_ms.values())

    def test_fixed_compute_runs_are_deterministic(self):
        first = run(tiny_config(fixed_compute_ms=1.0))
        second = run(tiny_config(fixed_compute_ms=1.0))
        assert first.total_time_s == second.total_time_s > 0
        assert first.throughput_tps == second.throughput_tps
        assert first.block_latency_ms == second.block_latency_ms
        assert first.mht_hashes_per_block == second.mht_hashes_per_block

    def test_latency_percentiles_are_ordered(self):
        result = run(tiny_config(num_requests=8, txns_per_block=3))
        assert 0 < result.txn_latency_p50_ms <= result.txn_latency_p95_ms
        assert result.txn_latency_p95_ms <= result.txn_latency_p99_ms

    def test_percentile_is_nearest_rank(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert percentile(samples, 0.5) == 2.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(samples, 0.0)

    def test_phase5_work_lands_in_finalize_phase(self):
        result = run(tiny_config())
        assert "finalize" in result.phase_ms
        assert result.phase_ms["finalize"] > 0

    def test_multi_client_commits_match_single_client(self):
        # Acceptance criterion: num_clients >= 4 commits the same transaction
        # count as the single-client baseline under a conflict-free workload.
        baseline = run(tiny_config(num_requests=8))
        multi = run(tiny_config(num_requests=8, num_clients=4))
        assert multi.committed_txns == baseline.committed_txns == 8
        assert multi.aborted_txns == 0
        assert multi.blocks == baseline.blocks

    def test_as_row_reports_client_count(self):
        row = run(tiny_config(num_clients=2, num_requests=4)).as_row()
        assert row["clients"] == 2

    def test_system_config_derivation(self):
        config = tiny_config(num_servers=4, items_per_shard=7)
        system_config = config.system_config()
        assert system_config.num_servers == 4
        assert system_config.items_per_shard == 7
