"""Integration of the Section 4.6 scale-out path: per-group TFCommit + OrdServ.

The paper sketches (Figure 9) how transactions touching disjoint groups of
servers can be terminated by per-group coordinators, with an ordering service
merging the per-group blocks into the single replicated log.  This test wires
those pieces together: two groups run TFCommit rounds independently, publish
their blocks to the ordering service, and every server's log ends up with the
same dependency-respecting chain.
"""

from __future__ import annotations

import pytest

from repro.common.timestamps import Timestamp
from repro.core.grouping import group_for_transaction
from repro.core.sequencing import OrderingService, OrderingShardMap
from repro.crypto.cosi import CoSiWitness, cosi_verify, run_cosi_round
from repro.crypto.keys import keypair_for
from repro.ledger.block import BlockDecision, make_partial_block
from repro.ledger.log import TransactionLog
from repro.storage.shard import ShardMap
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


SERVERS = ["s0", "s1", "s2", "s3"]
SHARD_MAP = ShardMap(
    {
        "a0": "s0",
        "a1": "s1",
        "b0": "s2",
        "b1": "s3",
        "x": "s1",
    }
)
KEYPAIRS = {sid: keypair_for(sid, seed=77) for sid in SERVERS}
PUBLIC_KEYS = {sid: kp.public for sid, kp in KEYPAIRS.items()}


def make_txn(txn_id, items, counter):
    zero = Timestamp.zero()
    return Transaction(
        txn_id=txn_id,
        client_id="c0",
        commit_ts=Timestamp(counter, "c0"),
        read_set=[ReadSetEntry(i, 0, zero, zero) for i in items],
        write_set=[WriteSetEntry(i, counter) for i in items],
    )


def group_commit(txn):
    """Run a miniature per-group TFCommit: the group members co-sign the block."""
    group = group_for_transaction(txn, SHARD_MAP)
    block = make_partial_block(0, [txn], b"\x00" * 32).with_decision(
        BlockDecision.COMMIT, {sid: b"\x01" * 32 for sid in group.members}
    )
    witnesses = [CoSiWitness(sid, KEYPAIRS[sid]) for sid in sorted(group.members)]
    cosign = run_cosi_round(block.body_digest(), witnesses)
    return block.with_cosign(cosign), group


def make_service(lanes: int) -> OrderingService:
    return OrderingService(OrderingShardMap.for_servers(SERVERS, lanes))


class TestScaledTfcommit:
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_disjoint_groups_merge_into_one_consistent_log(self, lanes):
        service = make_service(lanes)
        logs = {sid: TransactionLog() for sid in SERVERS}
        for sid in SERVERS:
            service.subscribe(lambda ob, log=logs[sid]: log.append(ob.block, verify_link=False))

        txn_a = make_txn("ta", ["a0", "a1"], 1)  # group {s0, s1}
        txn_b = make_txn("tb", ["b0", "b1"], 2)  # group {s2, s3}
        for txn in (txn_a, txn_b):
            block, group = group_commit(txn)
            service.publish(block, group)
        service.flush()

        chains = {sid: tuple(b.block_hash() for b in log) for sid, log in logs.items()}
        assert len(set(chains.values())) == 1
        assert all(len(log) == 2 for log in logs.values())
        assert service.verify_dependency_order()

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_overlapping_groups_preserve_dependency_order(self, lanes):
        service = make_service(lanes)
        txn_first = make_txn("t-first", ["x"], 1)  # group {s1}
        txn_second = make_txn("t-second", ["x", "b0"], 2)  # group {s1, s2}, depends on t-first
        for txn in (txn_first, txn_second):
            block, group = group_commit(txn)
            service.publish(block, group)
        service.flush()
        ordered_ids = [ob.block.transactions[0].txn_id for ob in service.ordered_blocks]
        assert ordered_ids == ["t-first", "t-second"]
        assert service.verify_dependency_order()

    def test_per_group_cosigns_verify_with_group_keys_only(self):
        txn = make_txn("ta", ["a0", "a1"], 3)
        block, group = group_commit(txn)
        group_keys = {sid: PUBLIC_KEYS[sid] for sid in group.members}
        assert cosi_verify(block.cosign, block.body_digest(), group_keys)
        # Servers outside the group never signed it.
        assert set(block.cosign.signer_ids) == set(group.members)
