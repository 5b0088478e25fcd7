"""The scaled multi-coordinator deployment (Section 4.6, Figure 9).

The basic protocol drags every server into every TFCommit round through one
fixed coordinator.  To scale, "servers are divided into small dynamic groups.
The servers accessed by a transaction form one group, in which one server
acts as the coordinator to terminate that transaction"; the per-group blocks
are then merged into the single consistently ordered global log by an
ordering service (realisable with Kafka as in Veritas, or with
dependency-tracking as in ParBlockchain -- here
:class:`~repro.core.sequencing.OrderingService`).

:class:`ScaledFidesSystem` wires the pieces together:

* clients route each ``end_transaction`` to the coordinator of the
  transaction's dynamic group (:func:`~repro.core.grouping.group_for_transaction`);
* each group coordinator runs TFCommit over *only* the group's members
  (:class:`GroupTFCommitCoordinator`), producing a block co-signed by the
  group;
* instead of a per-coordinator decision broadcast, the co-signed group block
  is published to the ordering service, which assigns the global height and
  hash pointer and atomically broadcasts the chained stream to **every**
  server;
* every server applies the globally ordered stream, so all logs converge to
  the same dependency-respecting chain, which the auditor verifies -- hash
  pointers over the full body *and* the group co-sign over the chain-free
  group body digest (see :mod:`repro.ledger.block` on the identity split).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError, ProtocolInvariantError
from repro.common.types import ServerId, Value
from repro.core.fides import PROTOCOL_TFCOMMIT, FidesSystem
from repro.core.grouping import ServerGroup, group_for_batch, group_for_transaction
from repro.core.ordserv import OrderedBlock
from repro.core.sequencing import OrderingService, SequencerFactory, sharded_sequencer
from repro.core.tfcommit import TFCommitCoordinator, TimingBreakdown, timed_broadcast
from repro.core.viewchange import ViewChangeOutcome, elect_successor, run_view_change
from repro.crypto.keys import keypair_for
from repro.ledger.anchor import EpochAnchor
from repro.ledger.block import Block, make_group_partial_block
from repro.net.latency import LatencyModel
from repro.net.message import Envelope, MessageType
from repro.net.network import Network
from repro.sim.context import SimContext
from repro.sim.scheduler import ORDSERV_RESOURCE, BlockTask
from repro.storage.shard import ShardMap
from repro.txn.transaction import Transaction

#: Identity under which the ordering service broadcasts on the network.
ORDSERV_ID = "ordserv"


class GroupTFCommitCoordinator(TFCommitCoordinator):
    """A TFCommit coordinator terminating transactions for dynamic groups.

    One instance lives on every server that is the designated coordinator of
    at least one group (the member with the smallest id).  Per batch it forms
    the covering group (:func:`~repro.core.grouping.group_for_batch`), runs
    the five TFCommit phases over only the group's members, and publishes the
    co-signed block to the ordering service instead of broadcasting a
    decision itself.
    """

    def __init__(
        self,
        server,
        network: Network,
        shard_map: ShardMap,
        ordering: OrderingService,
        system: "ScaledFidesSystem",
        txns_per_block: int = 1,
        latency: Optional[LatencyModel] = None,
        sim: Optional[SimContext] = None,
    ) -> None:
        super().__init__(
            server=server,
            network=network,
            server_ids=[server.server_id],
            txns_per_block=txns_per_block,
            latency=latency,
            sim=sim,
        )
        self._shard_map = shard_map
        self._ordering = ordering
        self._system = system
        self._current_group: Optional[ServerGroup] = None

    def commit_batch(self, batch) -> object:
        """Run one TFCommit round over the batch's dynamic group."""
        group = group_for_batch(
            [txn for txn, _ in batch],
            self._shard_map,
            exclude=self._system.deposed_servers(),
        )
        if group.coordinator != self.coordinator_id:
            # The union of per-transaction groups always has this server as
            # its smallest member, because every transaction was routed here
            # for exactly that reason; a mismatch means the shard map and the
            # client router disagree.
            raise ProtocolInvariantError(
                f"batch group coordinator {group.coordinator} is not {self.coordinator_id}"
            )
        # Blocks of overlapping groups still buffered in a sequencer lane
        # must land first: the speculative roots this round is about to
        # compute have to reflect their writes.
        self._ordering.flush_conflicting(group)
        self._current_group = group
        self.server_ids = sorted(group.members)
        try:
            result = super().commit_batch(batch)
        finally:
            # A round that raised (or failed) must not leave this group's
            # membership behind: the next batch may form a *different* group,
            # and stale ``server_ids`` would drag the wrong cohort set into
            # its phases.
            self._current_group = None
            self.server_ids = [self.coordinator_id]
        if result.block is not None:
            # If the ordering service already finalised the block (always
            # true with one lane), the system restamps the result with the
            # chained block, the real global height, and any delivery
            # failures now; otherwise the result is registered and
            # restamped when the stream delivers it.  Until then outcomes
            # carry ``None`` rather than the misleading placeholder 0.
            result.outcomes = [
                replace(outcome, block_height=None) for outcome in result.outcomes
            ]
            self._system.attach_round_result(result.block.signing_digest(), result)
        return result

    # -- deployment hooks overridden for the scaled path ----------------------------

    def _make_partial_block(self, transactions: Sequence[Transaction]) -> Block:
        return make_group_partial_block(
            transactions,
            group_members=sorted(self._current_group.members),
            view=self.view,
        )

    def _sim_chained(self) -> bool:
        # Group blocks carry no chain metadata at proposal time (the
        # ordering service assigns height and hash pointer), so consecutive
        # rounds of one group coordinator have no chaining dependency.
        return False

    def _sim_group_members(self):
        if self._current_group is None:
            return None
        return frozenset(self._current_group.members)

    def _deliver_block(self, final_block: Block, timing: TimingBreakdown) -> List[Dict]:
        """Publish the co-signed group block; delivery happens via OrdServ.

        The ordering service may buffer the block in a sequencer lane, so the
        delivery cost is charged to this round's timing when the block is
        actually finalised (the system keeps the timing registered until
        then).  The round's timeline task is handed over with it: the
        ordering service's delivery is the round's terminal phase, scheduled
        on the shared ``ordserv`` resource when the block lands in the
        stream.
        """
        if self._ordering.seen(final_block, self._current_group):
            # The round was already published: the deposed coordinator died
            # *after* handing its block to the ordering service, and this is
            # a successor's re-proposal racing the original through a
            # sequencer lane.  The original publication carries the decision;
            # the duplicate must not enter the stream twice.
            return []
        self._system.register_inflight(
            final_block.signing_digest(), timing, self._sim_task, span=self._sim_span
        )
        # The round's trace span crosses the handoff with the task: it stays
        # open until the ordering service delivers the chained block.
        self._sim_task = None
        self._sim_span = None
        self._ordering.publish(final_block, self._current_group)
        return []


class GroupDispatcher:
    """Per-server termination role: route each request to its group coordinator.

    A server can coordinate many dynamic groups (every group whose smallest
    member it is).  The dispatcher keeps one
    :class:`GroupTFCommitCoordinator` per server and hands it every
    ``end_transaction`` that clients routed here.
    """

    def __init__(self, system: "ScaledFidesSystem", server_id: ServerId) -> None:
        self._system = system
        self._server_id = server_id

    def on_end_transaction(self, envelope: Envelope) -> Dict:
        return self._system.group_coordinator(self._server_id).on_end_transaction(envelope)

    @property
    def pending_count(self) -> int:
        coordinator = self._system._group_coordinators.get(self._server_id)
        return coordinator.pending_count if coordinator is not None else 0


class ScaledFidesSystem(FidesSystem):
    """A Fides deployment terminating transactions in dynamic server groups.

    Drop-in alternative to :class:`~repro.core.fides.FidesSystem` (TFCommit
    only -- the 2PC baseline has no co-signed blocks to order): same client
    API, same workload engine, same auditor, but transactions touching
    disjoint shard sets commit through distinct group coordinators and the
    global log is produced by the ordering service's atomic broadcast.

    The ordering layer is chosen through ``sequencer``, a
    :data:`~repro.core.sequencing.SequencerFactory` called with the system's
    config once the server set is known.  The default,
    ``sharded_sequencer(1)``, is the paper's single OrdServ: one lane that
    finalises every block on publish.  More lanes let blocks of disjoint
    shards order locally and merge at cross-shard epochs (DESIGN.md §13).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        latency: Optional[LatencyModel] = None,
        initial_value: Value = 0,
        state_store_factory=None,
        compute_model=None,
        obs=None,
        sequencer: Optional[SequencerFactory] = None,
    ) -> None:
        self._sequencer_factory = sequencer
        super().__init__(
            config=config,
            protocol=PROTOCOL_TFCOMMIT,
            latency=latency,
            initial_value=initial_value,
            state_store_factory=state_store_factory,
            compute_model=compute_model,
            obs=obs,
        )

    # -- wiring ---------------------------------------------------------------------

    def _wire_termination(self) -> None:
        factory = self._sequencer_factory or sharded_sequencer(1)
        self.ordering: OrderingService = factory(self.config)
        self.ordering.attach_obs(self.sim.obs)
        self._group_coordinators: Dict[ServerId, GroupTFCommitCoordinator] = {}
        #: signing digest -> the round timing awaiting its delivery charge.
        self._inflight_timings: Dict[bytes, TimingBreakdown] = {}
        #: signing digest -> the round's timeline task awaiting its terminal
        #: ``order`` phase (scheduled when the stream delivers the block).
        self._inflight_tasks: Dict[bytes, BlockTask] = {}
        #: signing digest -> the round's open trace span, closed at delivery.
        self._inflight_spans: Dict[bytes, int] = {}
        #: signing digest -> virtual time the ordered delivery completed.
        #: Bounded: a result is restamped at (or within the same round as)
        #: its block's delivery, so only a recent window is ever read.
        self._decided_at_by_digest: Dict[bytes, float] = {}
        #: signing digest -> the chained block as finalised by the ordering
        #: service (the group digest is untouched by re-chaining, so it is a
        #: stable key from publication through delivery).
        self._chained_by_digest: Dict[bytes, Block] = {}
        #: signing digest -> per-server delivery failure responses.
        self._failures_by_digest: Dict[bytes, List[Dict]] = {}
        #: signing digest -> round result awaiting delivery (lane buffer).
        self._pending_results: Dict[bytes, object] = {}
        #: Global height the next ordered delivery must carry (the stream is
        #: an atomic broadcast: no gaps, no replays).
        self._next_delivery_height = 0
        self.delivery_failures: List[Dict] = []
        self.network.register_observer(
            ORDSERV_ID, keypair_for(ORDSERV_ID, seed=self.config.seed)
        )
        self.ordering.subscribe(self._deliver_ordered)
        self.ordering.subscribe_anchors(self._broadcast_anchor)
        for server_id, server in self.servers.items():
            server.set_coordinator_role(GroupDispatcher(self, server_id))
        #: No single designated coordinator exists in the scaled deployment.
        self.coordinator = None
        #: The highest view any failover installed; newly created group
        #: coordinators start here so their proposals pass the cohorts'
        #: per-group view gates.
        self._current_view = 0

    def _coordinator_router(self):
        return lambda txn: group_for_transaction(
            txn, self.shard_map, exclude=self._deposed
        ).coordinator

    def group_coordinator(self, server_id: ServerId) -> GroupTFCommitCoordinator:
        """The (lazily created) coordinator for groups led by ``server_id``."""
        if server_id not in self._group_coordinators:
            coordinator = GroupTFCommitCoordinator(
                server=self.servers[server_id],
                network=self.network,
                shard_map=self.shard_map,
                ordering=self.ordering,
                system=self,
                txns_per_block=self.config.txns_per_block,
                latency=self.latency,
                sim=self.sim,
            )
            coordinator.view = self._current_view
            self._group_coordinators[server_id] = coordinator
        return self._group_coordinators[server_id]

    def fail_over(
        self, server_id: Optional[ServerId] = None, reason: str = ""
    ) -> ViewChangeOutcome:
        """Depose one group-leading server across *all* the groups it leads.

        Dynamic groups share coordinators by the min-member rule, so a single
        view change (``group=None`` = every group the deposed server drove)
        fences it everywhere at once; afterwards routing and group formation
        exclude it, and each stalled round is re-proposed -- at the new view
        -- by the coordinator of its re-formed group.
        """
        if server_id is None:
            raise ConfigurationError(
                "the scaled deployment has no designated coordinator; "
                "name the server to depose"
            )
        deposed = server_id
        self.sim.drain()
        excluded = self._deposed | {deposed} | set(self.crashed_servers())
        successor = elect_successor(self.config.server_ids, excluded)
        old = self._group_coordinators.get(deposed)
        current_view = max(
            (c.view for c in self._group_coordinators.values()), default=0
        )
        outcome = run_view_change(
            self.network,
            self.latency,
            successor,
            members=self.config.server_ids,
            deposed=deposed,
            group=None,
            current_view=current_view,
            successor_log=self.servers[successor].log,
            sim=self.sim,
            clock=self.sim.clock,
        )
        self._deposed.add(deposed)
        self._current_view = max(self._current_view, outcome.new_view)
        for coordinator in self._group_coordinators.values():
            coordinator.view = max(coordinator.view, outcome.new_view)
        if old is not None:
            # Transactions stranded in the deposed leader's queue re-route
            # through the post-failover group formation, one by one -- their
            # groups may now elect different coordinators.
            for txn, envelope in old.take_pending():
                target = group_for_transaction(
                    txn, self.shard_map, exclude=self._deposed
                ).coordinator
                self.group_coordinator(target).adopt_pending([(txn, envelope)])
        self.view_changes.append(outcome)
        for block, client_requests in outcome.stalled_rounds:
            batch = list(zip(block.transactions, client_requests))
            target = group_for_batch(
                [txn for txn, _ in batch], self.shard_map, exclude=self._deposed
            ).coordinator
            self.group_coordinator(target).commit_batch(batch)
        self.ordering.flush()
        self.sim.drain()
        return outcome

    # -- ordered-stream delivery ------------------------------------------------------

    def register_inflight(
        self,
        signing_digest: bytes,
        timing: TimingBreakdown,
        task: Optional[BlockTask] = None,
        span: Optional[int] = None,
    ) -> None:
        """Remember a published block's timing (and its timeline task and
        trace span) until the stream delivers it."""
        self._inflight_timings[signing_digest] = timing
        if task is not None:
            self._inflight_tasks[signing_digest] = task
        if span is not None:
            self._inflight_spans[signing_digest] = span

    def chained_block(self, signing_digest: bytes) -> Optional[Block]:
        """The globally chained block for a group digest, once delivered."""
        return self._chained_by_digest.get(signing_digest)

    def attach_round_result(self, signing_digest: bytes, result) -> None:
        """Bind a round's result to its published block.

        If the block was already delivered (always, with one lane) the
        result is restamped immediately with the chained block, its global
        height, and any per-server delivery failures; otherwise the restamp
        happens when the ordering service delivers it.
        """
        chained = self._chained_by_digest.get(signing_digest)
        if chained is not None:
            self._restamp_result(result, chained)
        else:
            self._pending_results[signing_digest] = result

    def _restamp_result(self, result, chained: Block) -> None:
        result.block = chained
        decided_at = self._decided_at_by_digest.get(chained.signing_digest())
        result.outcomes = [
            replace(outcome, block_height=chained.height, decided_at=decided_at)
            for outcome in result.outcomes
        ]
        # A server that rejected the ordered block (diverged log, bad
        # signature under fault injection) surfaces exactly like a phase-5
        # decision failure does in the classic deployment.
        result.refusals = list(result.refusals) + self._failures_by_digest.pop(
            chained.signing_digest(), []
        )

    def _deliver_ordered(self, ordered: OrderedBlock) -> None:
        """Atomically broadcast one finalised block to every server.

        Simulated-time accounting mirrors a coordinator phase: one outbound
        delay, the slowest server's measured apply compute, one inbound
        delay; the cost is charged to the originating round's ``order`` phase.
        """
        block = ordered.block
        digest = block.signing_digest()
        if ordered.global_height != self._next_delivery_height:
            raise ProtocolInvariantError(
                f"ordered stream delivered height {ordered.global_height}, "
                f"expected {self._next_delivery_height} (gap or replay in the "
                "atomic broadcast)"
            )
        self._next_delivery_height += 1
        # The delivery is the round's terminal phase on the virtual timeline:
        # it serializes on the shared "ordserv" resource (the service emits
        # one stream) and cannot start before the publishing round's
        # co-signing finished.  Assigning the start before the sends lets
        # fault hooks inside the apply handlers fire at the delivery's time.
        task = self._inflight_tasks.pop(digest, None)
        span = self._inflight_spans.pop(digest, None)
        label = f"ordserv/deliver-{ordered.global_height}"
        # A multi-lane sequencer stamps the block's ordering shards: its
        # delivery occupies only those lanes' timeline resources, so
        # disjoint shards interleave and a cross-shard block barriers.  A
        # one-lane stream has no shard stamps and uses the single resource.
        resources = tuple(
            f"{ORDSERV_RESOURCE}/s{shard}" for shard in ordered.shards
        ) or (ORDSERV_RESOURCE,)
        start = self.sim.scheduler.begin_delivery(task, label, resources=resources)
        # A scratch breakdown lets the shared helper do the accounting even
        # when no round timing is registered (blocks published directly by
        # tests); the charge is transferred to the originating round's if any.
        scratch = TimingBreakdown()
        responses = timed_broadcast(
            self.network,
            self.latency,
            ORDSERV_ID,
            list(self.config.server_ids),
            MessageType.ORDERED_BLOCK,
            {"block": block},
            scratch,
            "order",
            sim=self.sim,
        )
        _, delivered_at = self.sim.scheduler.end_delivery(
            task,
            label,
            start,
            scratch.phases["order"],
            read_items=frozenset(
                entry.item_id for txn in block.transactions for entry in txn.read_set
            ),
            write_items=frozenset(
                entry.item_id for txn in block.transactions for entry in txn.write_set
            ),
            status="committed" if block.is_commit else "aborted",
            resources=resources,
        )
        status = "committed" if block.is_commit else "aborted"
        tracer = self.sim.obs.tracer
        span_actor = (
            f"{ORDSERV_ID}/s" + "+".join(str(shard) for shard in ordered.shards)
            if ordered.shards
            else ORDSERV_ID
        )
        tracer.add_span(
            "order",
            "delivery",
            span_actor,
            start,
            delivered_at,
            parent=span,
            global_height=ordered.global_height,
        )
        # Close the round span handed over at publication: the ordered
        # delivery is the round's terminal phase, so the round's causal
        # window ends here, not at the group co-sign.
        tracer.close_span(span, delivered_at, status=status)
        self.sim.obs.metrics.counter(f"rounds.delivered_{status}")
        self._decided_at_by_digest[digest] = delivered_at
        while len(self._decided_at_by_digest) > 256:
            self._decided_at_by_digest.pop(next(iter(self._decided_at_by_digest)))
        failures = [resp for resp in responses.values() if not resp.get("ok")]
        self.delivery_failures.extend(failures)
        if failures:
            self._failures_by_digest[digest] = failures
        self._chained_by_digest[digest] = block
        timing = self._inflight_timings.pop(digest, None)
        if timing is not None:
            timing.phases["order"] = scratch.phases["order"]
            timing.network_time += scratch.network_time
            timing.compute_time += scratch.compute_time
        result = self._pending_results.pop(digest, None)
        if result is not None:
            self._restamp_result(result, block)

    def _broadcast_anchor(self, anchor: EpochAnchor) -> None:
        """Publish one sealed epoch anchor to every server.

        Servers record the anchor chain so a later audit (or an external
        verifier holding only the thin chain) can check the per-shard
        ordering without trusting the sequencer; crashed servers are
        skipped -- anchor gaps are tolerated by the handler and the
        auditor verifies against the service's full chain.
        """
        responses = self.network.broadcast(
            ORDSERV_ID,
            list(self.config.server_ids),
            MessageType.EPOCH_ANCHOR,
            {"anchor": anchor},
            skip_unreachable=True,
        )
        self.delivery_failures.extend(
            response for response in responses.values() if not response.get("ok")
        )

    def audit(self):
        """Run the full offline audit, including epoch-anchor verification.

        With one lane (no anchors are sealed) this is exactly the base
        audit; a multi-lane sequencer additionally has its anchor chain
        replayed against the reference log (DESIGN.md §13).
        """
        anchors = self.ordering.epoch_anchors
        if not anchors:
            return super().audit()
        return self.auditor().run_audit(
            self.servers,
            epoch_anchors=anchors,
            ordering_shard_map=self.ordering.shard_map,
        )

    # -- workload-engine hooks ----------------------------------------------------------

    def _coordinators(self) -> List[GroupTFCommitCoordinator]:
        return list(self._group_coordinators.values())

    def _flush_pending(self) -> Dict:
        """Flush every group coordinator's partial batch and merge the responses.

        The merged frontier is the maximum across coordinators -- observing a
        larger committed timestamp is always safe for a retrying client.
        """
        merged: Dict[str, Dict] = {}
        frontier: Optional[Tuple[int, str]] = None
        for coordinator in self._coordinators():
            if not coordinator.available:
                # The coordinator's server is down; its queue waits for
                # recovery (clients routed here already saw failures).
                continue
            response = coordinator.flush()
            merged.update(response.get("results", {}))
            reported = response.get("latest_committed_ts")
            if reported is not None:
                reported = tuple(reported)
                if frontier is None or reported > frontier:
                    frontier = reported
        return {
            "status": "flushed",
            "results": merged,
            "latest_committed_ts": frontier,
        }

    def _finish_workload(self) -> None:
        self.ordering.flush()

    def flush(self) -> Dict:
        """Flush every coordinator and finalise the ordering service's stream."""
        response = self._flush_pending()
        self.ordering.flush()
        return response

    # -- introspection ---------------------------------------------------------------------

    @property
    def active_group_coordinators(self) -> List[ServerId]:
        """Servers that actually coordinated at least one block round."""
        return sorted(
            server_id
            for server_id, coordinator in self._group_coordinators.items()
            if coordinator.results
        )

    def groups_used(self) -> List[Tuple[ServerId, ...]]:
        """Every distinct dynamic group that produced an ordered block."""
        return sorted(
            {
                tuple(sorted(ordered.group.members))
                for ordered in self.ordering.ordered_blocks
            }
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScaledFidesSystem(servers={len(self.servers)}, "
            f"group_coordinators={len(self._group_coordinators)}, "
            f"txns_per_block={self.config.txns_per_block}, "
            f"ordered_blocks={self.ordering.stream_length})"
        )
