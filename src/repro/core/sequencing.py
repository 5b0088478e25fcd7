"""The ordering service: one sequencer lane per ordering shard (DESIGN.md §13).

The paper's global ordering service is its own scalability ceiling: every
co-signed group block funnels through one sequencer, so throughput saturates
long before the per-group TFCommit coordinators do.  :class:`OrderingService`
moves the ceiling: one logical sequencer lane per *ordering shard* (a
contiguous range of servers, hence of key ranges), with single-shard blocks
ordered locally in their lane and only cross-shard blocks paying for a
global epoch merge.  With one lane it is the paper's single OrdServ: every
block lands on publish and no anchors are sealed.

Why lane-local ordering is dependency-safe: a block's group is exactly the
set of servers storing its items, and ordering shards partition the servers.
Two single-shard blocks of *different* lanes therefore have disjoint server
sets, hence disjoint item sets, hence no data dependency and no group
overlap -- any interleaving of lanes is equivalent under the existing
dependency rules (item-conflict, commit-frontier, chain-at-aggregate).
Within a lane, submission order is preserved, which is always
dependency-safe.  A cross-shard block acts as a barrier: every lane drains
(in a model-checker-choosable lane order) before it finalizes, so anything
it could depend on lands first, and everything published after it lands
after it.

Each merge point seals an :class:`~repro.ledger.anchor.EpochAnchor` binding
the per-shard hash chains to the global height range (see
:mod:`repro.ledger.anchor` for the trust argument).  The global stream
itself remains a single gapless hash chain -- heights are assigned in
finalize order -- so servers, the auditor, and the view-change machinery are
oblivious to how the stream was produced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.check.choices import choose
from repro.common.errors import ConfigurationError, ProtocolInvariantError
from repro.core.grouping import ServerGroup, dependency_between
from repro.core.ordserv import (
    OrderedBlock,
    _PendingBlock,
    round_identity,
    stream_respects_dependencies,
)
from repro.crypto.hashing import EMPTY_HASH
from repro.ledger.anchor import (
    GENESIS_ANCHOR_HASH,
    GENESIS_SHARD_HEAD,
    EpochAnchor,
    fold_shard_head,
)
from repro.ledger.block import Block


@dataclass(frozen=True)
class OrderingShardMap:
    """Key-range → ordering-shard mapping over the deployment's servers.

    Servers are sorted and cut into ``num_shards`` contiguous ranges; since
    the storage layer assigns each server a contiguous item key range, a
    contiguous server range *is* a key range, which is the mapping the
    tentpole asks for.  A group's ordering shards are the shards of its
    member servers.
    """

    shard_by_server: Mapping[str, int]
    num_shards: int

    @classmethod
    def for_servers(cls, server_ids: Iterable[str], num_shards: int) -> "OrderingShardMap":
        ordered = sorted(server_ids)
        if not ordered:
            raise ConfigurationError("ordering shard map needs at least one server")
        count = max(1, min(int(num_shards), len(ordered)))
        mapping = {
            server_id: (index * count) // len(ordered)
            for index, server_id in enumerate(ordered)
        }
        return cls(shard_by_server=mapping, num_shards=count)

    def shard_of(self, server_id: str) -> int:
        try:
            return self.shard_by_server[server_id]
        except KeyError:
            raise ConfigurationError(
                f"server {server_id!r} is not covered by the ordering shard map"
            ) from None

    def shards_of(self, members: Iterable[str]) -> Tuple[int, ...]:
        return tuple(sorted({self.shard_of(member) for member in members}))


class _ShardLane:
    """One shard's local sequencer lane: a submission-ordered buffer + chain."""

    __slots__ = ("index", "buffer", "height", "head")

    def __init__(self, index: int) -> None:
        self.index = index
        self.buffer: List[_PendingBlock] = []
        self.height = 0
        self.head: bytes = GENESIS_SHARD_HEAD


class OrderingService:
    """A dependency-preserving atomic broadcast of per-group blocks.

    One sequencer lane per ordering shard, merged at cross-shard epochs.
    Single-shard blocks buffer in their lane (ordering locally, bounded by
    ``epoch_max_blocks``); a cross-shard publication drains every lane --
    lane order is a model-checker choice point (feature ``"shard-merge"``)
    -- finalizes the cross-shard block, and seals an epoch anchor.
    ``flush()`` seals the final, possibly cross-shard-free epoch so the
    anchor chain always covers the whole stream.

    With one lane there is no merge point to batch for: a published block
    lands at once, its :attr:`OrderedBlock.shards` stays empty (the stream
    has no shard structure), and no anchor is sealed -- one would only
    restate the global hash chain.
    """

    def __init__(self, shard_map: OrderingShardMap, epoch_max_blocks: int = 32) -> None:
        self._map = shard_map
        self._lanes = [_ShardLane(index) for index in range(shard_map.num_shards)]
        self._epoch_max_blocks = max(1, int(epoch_max_blocks))
        self._ordered: List[OrderedBlock] = []
        self._subscribers: List[Callable[[OrderedBlock], None]] = []
        self._anchor_subscribers: List[Callable[[EpochAnchor], None]] = []
        self._anchors: List[EpochAnchor] = []
        self._identities: set = set()
        self._sequence = 0
        self._epoch_start_height = 0
        self._obs = None

    # -- introspection ---------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._map.num_shards

    @property
    def shard_map(self) -> OrderingShardMap:
        return self._map

    @property
    def epoch_anchors(self) -> List[EpochAnchor]:
        return list(self._anchors)

    @property
    def pending_count(self) -> int:
        return sum(len(lane.buffer) for lane in self._lanes)

    def shard_heads(self) -> Tuple[Tuple[int, ...], Tuple[bytes, ...]]:
        """Current per-shard (heights, chain heads) -- what the next anchor seals."""
        heights = tuple(lane.height for lane in self._lanes)
        heads = tuple(lane.head for lane in self._lanes)
        return heights, heads

    def shards_of_group(self, group: ServerGroup) -> Tuple[int, ...]:
        return self._map.shards_of(group.members)

    def attach_obs(self, obs) -> None:
        """Report publication/ordering/epoch metrics through ``obs``."""
        self._obs = obs

    # -- publication -----------------------------------------------------------------

    def seen(self, block: Block, group: ServerGroup) -> bool:
        """Whether a block with this round identity was already accepted."""
        return round_identity(block, group) in self._identities

    def publish(self, block: Block, group: ServerGroup) -> bool:
        """A group coordinator hands over a locally co-signed block.

        Returns ``False`` (publication ignored) when a block with the same
        round identity was already accepted -- the dedup that makes
        coordinator failover's re-proposal idempotent at the ordering layer.
        With one lane the block lands at once; otherwise a single-shard
        block buffers in its lane and a cross-shard block triggers the
        epoch merge.
        """
        identity = round_identity(block, group)
        if identity in self._identities:
            if self._obs is not None:
                self._obs.metrics.counter("ordserv.duplicates_suppressed")
            return False
        self._identities.add(identity)
        if self._obs is not None:
            self._obs.metrics.counter("ordserv.published")
        pending = _PendingBlock(block=block, group=group, sequence=self._sequence)
        self._sequence += 1
        if self.num_shards == 1:
            self._finalize(pending, ())
            return True
        shards = self.shards_of_group(group)
        if len(shards) == 1:
            lane = self._lanes[shards[0]]
            lane.buffer.append(pending)
            if len(lane.buffer) >= self._epoch_max_blocks:
                # Capacity drain: the lane lands its prefix without sealing
                # an epoch (anchors mark merge points, not buffer pressure).
                self._drain_lane(lane)
            return True
        self._merge_lanes()
        self._finalize(pending, shards)
        self._seal_epoch()
        return True

    def flush(self) -> None:
        """Finalise every buffered block and seal the trailing epoch."""
        self._merge_lanes()
        if self.num_shards > 1 and len(self._ordered) > self._epoch_start_height:
            self._seal_epoch()

    def flush_conflicting(self, group: ServerGroup) -> None:
        """Land all floating blocks overlapping ``group``, per shard.

        Only the lanes of ``group``'s own shards are touched: a buffered
        block can overlap ``group`` only if it shares a server with it,
        which pins it to one of those lanes.  Within each such lane the
        buffered *prefix* up to the last overlapping block lands (lane
        order is submission order, so the prefix contains every in-lane
        block the overlapping ones could depend on); later blocks and other
        lanes keep floating -- this is the per-shard flush the deposed
        coordinator's recovery path relies on.
        """
        for shard in self.shards_of_group(group):
            lane = self._lanes[shard]
            last_overlap = None
            for index, pending in enumerate(lane.buffer):
                if pending.group.overlaps(group):
                    last_overlap = index
            if last_overlap is not None:
                self._drain_lane(lane, count=last_overlap + 1)

    # -- the epoch merge -------------------------------------------------------------

    def _drain_lane(self, lane: _ShardLane, count: Optional[int] = None) -> None:
        take = len(lane.buffer) if count is None else min(count, len(lane.buffer))
        for _ in range(take):
            pending = lane.buffer.pop(0)
            self._finalize(pending, (lane.index,))

    def _merge_lanes(self) -> None:
        """Drain every lane; the lane interleaving is a checker choice point.

        Any interleaving is dependency-safe (disjoint lanes cannot hold
        dependent blocks), so the merge is deterministic in production
        (lowest lane first) and explorable under the model checker.
        """
        while True:
            nonempty = [lane for lane in self._lanes if lane.buffer]
            if not nonempty:
                return
            pick = 0
            if len(nonempty) > 1:
                pick = choose(
                    "ordserv/epoch-merge", len(nonempty), 0, feature="shard-merge"
                )
            self._drain_lane(nonempty[pick])

    def _finalize(self, pending: _PendingBlock, shards: Tuple[int, ...]) -> None:
        for lane in self._lanes:
            for prior in lane.buffer:
                if (
                    prior.sequence < pending.sequence
                    and prior.group.overlaps(pending.group)
                    and dependency_between(
                        prior.block.transactions, pending.block.transactions
                    )
                ):
                    raise ProtocolInvariantError(
                        "ordering service would finalise block "
                        f"seq={pending.sequence} before buffered dependency "
                        f"seq={prior.sequence} in lane {lane.index}"
                    )
        previous_hash = self._ordered[-1].block_hash if self._ordered else EMPTY_HASH
        chained = replace(
            pending.block, height=len(self._ordered), previous_hash=previous_hash
        )
        for shard in shards:
            lane = self._lanes[shard]
            lane.height += 1
            lane.head = fold_shard_head(lane.head, chained)
        ordered = OrderedBlock(
            global_height=len(self._ordered),
            block=chained,
            group=pending.group,
            shards=shards,
        )
        self._ordered.append(ordered)
        if self._obs is not None:
            self._obs.metrics.counter("ordserv.ordered")
            self._obs.metrics.gauge("ordserv.stream_length", float(len(self._ordered)))
        for subscriber in self._subscribers:
            subscriber(ordered)

    def _seal_epoch(self) -> None:
        previous = self._anchors[-1].anchor_hash() if self._anchors else GENESIS_ANCHOR_HASH
        heights, heads = self.shard_heads()
        anchor = EpochAnchor(
            epoch=len(self._anchors),
            start_height=self._epoch_start_height,
            end_height=len(self._ordered),
            shard_heights=heights,
            shard_heads=heads,
            previous=previous,
        )
        self._anchors.append(anchor)
        self._epoch_start_height = anchor.end_height
        if self._obs is not None:
            self._obs.metrics.counter("ordserv.epochs")
        for subscriber in self._anchor_subscribers:
            subscriber(anchor)

    # -- delivery --------------------------------------------------------------------

    def subscribe(self, callback: Callable[[OrderedBlock], None]) -> None:
        """Register a delivery callback (one per server, typically)."""
        self._subscribers.append(callback)

    def subscribe_anchors(self, callback: Callable[[EpochAnchor], None]) -> None:
        """Register a callback fired once per sealed epoch anchor."""
        self._anchor_subscribers.append(callback)

    @property
    def ordered_blocks(self) -> List[OrderedBlock]:
        return list(self._ordered)

    @property
    def stream_length(self) -> int:
        return len(self._ordered)

    def verify_dependency_order(self) -> bool:
        """See :func:`repro.core.ordserv.stream_respects_dependencies`."""
        return stream_respects_dependencies(self._ordered)

    def verify_shard_chains(self) -> bool:
        """Recompute every lane chain from the finalized stream and compare.

        Each block's shard stamp must match the shard map too (empty with
        one lane, whose stream carries no shard structure).
        """
        heights: Dict[int, int] = {lane.index: 0 for lane in self._lanes}
        heads: Dict[int, bytes] = {lane.index: GENESIS_SHARD_HEAD for lane in self._lanes}
        for ordered in self._ordered:
            expected = self.shards_of_group(ordered.group) if self.num_shards > 1 else ()
            if ordered.shards != expected:
                return False
            for shard in expected:
                heights[shard] += 1
                heads[shard] = fold_shard_head(heads[shard], ordered.block)
        return all(
            lane.height == heights[lane.index] and lane.head == heads[lane.index]
            for lane in self._lanes
        )


# -- factories -----------------------------------------------------------------------


#: A factory the deployment calls with its ``SystemConfig`` once the server
#: set is known; keeps ``ScaledFidesSystem`` ignorant of shard layouts.
SequencerFactory = Callable[[object], OrderingService]


def sharded_sequencer(num_shards: int, epoch_max_blocks: int = 32) -> SequencerFactory:
    """Factory for an :class:`OrderingService` over the config's servers.

    ``sharded_sequencer(1)`` is the paper's single OrdServ and the scaled
    deployment's default.
    """

    def build(config) -> OrderingService:
        shard_map = OrderingShardMap.for_servers(config.server_ids, num_shards)
        return OrderingService(shard_map, epoch_max_blocks=epoch_max_blocks)

    return build
