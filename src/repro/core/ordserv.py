"""OrdServ: the block ordering service for scaled TFCommit (Section 4.6, Figure 9).

When different server groups terminate transactions concurrently, someone has
to merge their per-group blocks into the single, consistently ordered,
globally replicated log.  The paper abstracts this as an ordering service
("OrdServ") that atomically broadcasts a single stream of blocks and fills in
the hash-of-previous-block pointers; it can be realised with PBFT among the
coordinators, with Kafka (as in Veritas), or with a dependency-tracking
scheme such as ParBlockchain.

The service itself is :class:`~repro.core.sequencing.OrderingService` (see
the DESIGN.md substitution table): it accepts blocks published by group
coordinators together with the group that produced them, preserves
submission order between blocks of *overlapping* groups while freely
ordering blocks of disjoint groups, assigns global heights, chains the
blocks with hash pointers, and delivers the finalised stream to every
subscribed server.  This module holds the stream types it shares with the
deployment layer and the test suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.core.grouping import ServerGroup, dependency_between
from repro.ledger.block import Block


@dataclass(frozen=True)
class OrderedBlock:
    """A block as finalised by the ordering service.

    ``shards`` names the ordering shards the block involved (empty for a
    one-lane service, where the stream has no shard structure); the
    deployment layer uses it to charge the delivery to per-shard timeline
    resources.
    """

    global_height: int
    block: Block
    group: ServerGroup
    shards: Tuple[int, ...] = field(default=())

    @property
    def block_hash(self) -> bytes:
        return self.block.block_hash()


def stream_respects_dependencies(ordered: Sequence[OrderedBlock]) -> bool:
    """Check a finalised stream never reorders dependent blocks.

    For every pair of ordered blocks from overlapping groups, the data
    dependencies must point forward in the stream.  Shared by
    :meth:`~repro.core.sequencing.OrderingService.verify_dependency_order`
    and by the test suites.
    """
    for later_index, later in enumerate(ordered):
        for earlier in ordered[:later_index]:
            if earlier.group.overlaps(later.group):
                if dependency_between(
                    later.block.transactions, earlier.block.transactions
                ) and not dependency_between(
                    earlier.block.transactions, later.block.transactions
                ):
                    return False
    return True


@dataclass
class _PendingBlock:
    block: Block
    group: ServerGroup
    sequence: int


def round_identity(block: Block, group: ServerGroup):
    """What makes two published blocks "the same round".

    Group membership plus the transaction set -- the view is deliberately
    *excluded*: a successor coordinator re-proposes a stalled round at a
    higher view, and if the original publication is still buffered in a
    sequencer lane (the deposed coordinator died after publishing but before
    anyone saw the stream), both copies reach the service.  Only one may
    enter the global log.
    """
    return (
        tuple(sorted(group.members)),
        tuple(sorted(txn.txn_id for txn in block.transactions)),
    )
