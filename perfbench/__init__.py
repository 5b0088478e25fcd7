"""The repository benchmark: host cost and virtual time of three workloads.

Run one workload from the repository root with::

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``BENCHMARK.json`` at the repository root lists both, and
``workloads.py`` holds each workload's parameters (every run also prints
them).  The package measures the program from outside: it drives the
public API of ``src/repro``, reads the always-on metrics registry and the
public result objects, and attributes host time to layers by wrapping
public functions for the duration of one traced run (``tracing.py``).

Which per-layer metric should move which end-to-end metric, and where:

- ``<layer>.self_cpu_ms_per_txn`` move ``host_tps``: ``common.encoding``
  and ``txn`` most on paper-batch and scaleout-sharded; ``crypto.group``
  and ``crypto.signing`` on signed-single; ``crypto.cosi``, ``net``,
  ``sim`` and ``core.sequencing`` on scaleout-sharded.
- Encoding, EC and signing counts move ``host_tps`` where their layer's
  self time does.  Registry counts (``net.*``, ``sim.events_per_txn``,
  ``recovery.wal_appends_per_block``) move it mostly on scaleout-sharded,
  ``crypto.merkle.hashes_per_block`` on paper-batch.
- ``phase.<name>.virtual_ms_per_block`` move ``virtual_block_p50_ms`` on
  paper-batch and signed-single.
- ``core.sequencing.busy_frac_max``, ``core.sequencing.epochs_per_block``
  and ``phase.order.virtual_ms_per_block`` move ``virtual_tps`` and
  ``virtual_block_tail_ms`` on scaleout-sharded only.
- ``txn.aborts.<reason>`` and ``txn_fail_frac`` move ``txn_commit_frac``
  on scaleout-sharded; ``core.txns_per_block_fill`` moves ``virtual_tps``.
- ``audit.<phase>_s`` move ``audit_s``; ``check_transactions`` is the
  quadratic term, ``check_epoch_anchors`` runs only on sharded deployments.
- ``trace.overhead_frac`` is the traced run's CPU time over the untraced
  run's, minus 1.

Interactions: the LAN latency model draws one sample per message, so a
change in message count shifts every later virtual sample even when the
change is host-only; and the virtual numbers of scaleout-sharded rest on a
sequencer timeline that does not yet charge lane buffering.
"""
