"""Smoke tests for the figure sweeps at very small sizes.

The full-shape assertions live in ``benchmarks/``; here we only check that
each sweep runs, produces one row per parameter point, and exposes the
columns the reporting layer expects.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    EXPERIMENT_REGISTRY,
    ablation_signing_scheme,
    figure12_2pc_vs_tfcommit,
    figure13_txns_per_block,
    figure14_number_of_servers,
    figure15_items_per_shard,
)


class TestFigureSweeps:
    def test_figure12_rows(self):
        rows = figure12_2pc_vs_tfcommit(server_counts=(3,), num_requests=3, items_per_shard=60)
        assert len(rows) == 2  # one per protocol
        assert {row["protocol"] for row in rows} == {"2pc", "tfcommit"}

    def test_figure13_rows(self):
        rows = figure13_txns_per_block(batch_sizes=(2, 4), num_requests=8, items_per_shard=120)
        assert [row["txns/block"] for row in rows] == [2, 4]
        assert all(row["committed"] == 8 for row in rows)

    def test_figure14_rows(self):
        rows = figure14_number_of_servers(
            server_counts=(3, 4), num_requests=4, items_per_shard=60, txns_per_block=2
        )
        assert [row["servers"] for row in rows] == [3, 4]

    def test_figure15_rows(self):
        rows = figure15_items_per_shard(shard_sizes=(50, 100), num_requests=4, txns_per_block=2)
        assert [row["items/shard"] for row in rows] == [50, 100]

    def test_ablation_signing_scheme_rows(self):
        rows = ablation_signing_scheme(num_requests=2)
        assert len(rows) == 2

    def test_faultmatrix_smoke_rows(self):
        from repro.bench.experiments import faultmatrix

        rows = faultmatrix(num_requests=2, smoke=True)
        assert len(rows) == 19  # one per fault kind, always-trigger grid
        for row in rows:
            assert {"scenario", "detected", "blocks-to-detect", "audit overhead (x)"} <= set(row)

    def test_scaledgroups_smoke_rows(self):
        from repro.bench.experiments import scaledgroups

        results, rows = scaledgroups(num_requests=8, smoke=True, return_results=True)
        assert len(rows) == 1  # one point per axis in smoke mode
        row = rows[0]
        assert {"servers", "locality", "scaled tps", "baseline tps", "speedup"} <= set(row)
        assert results[0].group_coordinators >= 2
        assert row["scaled tps"] > 0
        assert row["baseline tps"] > 0
        assert row["aborted"] == results[0].aborted_txns

    def test_scaleout_tiny_rows(self):
        from repro.bench.experiments import scaleout

        results, rows = scaleout(
            shard_counts=(1, 2),
            cross_shard_ratios=(0.1,),
            num_servers=8,
            num_requests=32,
            fixed_compute_ms=1.0,
            return_results=True,
        )
        assert [row["shards"] for row in rows] == [1, 2]
        for row in rows:
            assert {"scaled tps", "ordserv busy", "speedup vs 1 shard", "epochs"} <= set(row)
        assert [row["aborted"] for row in rows] == [r.aborted_txns for r in results]
        # The 1-shard point anchors the per-ratio speedup column at 1.0.
        assert rows[0]["speedup vs 1 shard"] == 1.0
        assert all(result.committed_txns > 0 for result in results)

    def test_registry_covers_every_figure(self):
        assert {
            "figure12",
            "figure13",
            "figure14",
            "figure15",
            "faultmatrix",
            "scaledgroups",
            "scaleout",
            "pipeline",
            "recovery",
            "failover",
        } <= set(EXPERIMENT_REGISTRY)


#: Per-deployment knobs of the facade tests' tiny run.
FACADE_KNOBS = {
    "classic": dict(num_servers=3, items_per_shard=100, txns_per_block=2, ops_per_txn=2),
    "scaled": dict(
        num_servers=4, group_size=1, items_per_shard=60, locality=1.0, ordering_shards=2
    ),
}


def facade_config(deployment: str, **overrides):
    from repro.api import ExperimentConfig

    knobs = dict(
        deployment=deployment,
        num_requests=4,
        message_signing="hash",
        fixed_compute_ms=1.0,
        **FACADE_KNOBS[deployment],
    )
    knobs.update(overrides)
    return ExperimentConfig(**knobs)


class TestRunFacade:
    @pytest.mark.parametrize("deployment", sorted(FACADE_KNOBS))
    def test_dispatch_returns_one_result_type(self, deployment):
        from repro.api import ExperimentResult, run

        result = run(facade_config(deployment))
        assert type(result) is ExperimentResult
        assert result.committed_txns == 4
        assert result.config.deployment == deployment
        if deployment == "classic":
            assert result.group_coordinators == 1
            assert result.epochs == 0
            assert result.ordering_busy_frac == 0.0
        else:
            assert result.config.ordering_shards == 2
            assert result.group_coordinators >= 1
            assert result.distinct_groups >= 1

    def test_shared_obs_reports_each_runs_own_crypto(self):
        from repro.api import run
        from repro.obs import Observability

        obs = Observability()
        first = run(facade_config("classic", label="first"), obs=obs)
        after_first = obs.crypto_seconds()
        second = run(facade_config("classic", label="second"), obs=obs)
        after_second = obs.crypto_seconds()
        assert after_first > 0
        assert first.crypto_ms_per_block == pytest.approx(
            after_first / first.blocks * 1000.0
        )
        # The bundle's running total includes the first run; the second
        # run's figure must come from its own increment only.
        assert second.crypto_ms_per_block == pytest.approx(
            (after_second - after_first) / second.blocks * 1000.0
        )

    def test_unknown_deployment_rejected(self):
        from repro.api import ExperimentConfig, run
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(ExperimentConfig(deployment="galactic"))


class TestCli:
    def test_list_option(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "figure12" in captured.out

    def test_run_tiny_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["ablation-signing", "--requests", "2", "--csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].startswith("label,")

    def test_faultmatrix_json_artifact(self, capsys, tmp_path):
        import json

        from repro.bench.__main__ import main

        out = tmp_path / "faultmatrix.json"
        assert main(["faultmatrix", "--requests", "2", "--smoke", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["schema_version"] == 1
        assert data["sweep"] == "faultmatrix"
        assert data["commit"]
        assert data["config"] == {"num_requests": 2, "smoke": True}
        assert len(data["rows"]) == 19
        assert all(row["detected"] for row in data["rows"])
        # Fault-matrix rows carry no throughput, so nothing is gateable.
        assert data["metrics"]["labels"] == {}
