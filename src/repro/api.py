"""The supported public surface of the reproduction (DESIGN.md §13).

Everything an external caller -- a notebook, a script, the examples under
``examples/`` -- needs lives behind this one module, so internal layout can
keep moving without breaking users:

- **Deployments**: :class:`FidesSystem` (classic single-coordinator
  TFCommit, plus the 2PC baseline via ``protocol="2pc"``) and
  :class:`ScaledFidesSystem` (dynamic groups over a pluggable ordering
  layer), both configured with :class:`SystemConfig`.
- **Sequencing**: the :class:`OrderingService` -- one sequencer lane per
  ordering shard; one lane is the paper's single OrdServ -- with the
  :func:`sharded_sequencer` factory that
  ``ScaledFidesSystem(sequencer=...)`` accepts, and
  :class:`OrderingShardMap` for key-range -> shard placement.
- **Experiments**: :func:`run` executes one :class:`ExperimentConfig`
  point, building the deployment ``config.deployment`` names, and returns
  one :class:`ExperimentResult` for either deployment.

Quickstart::

    from repro.api import ExperimentConfig, run

    result = run(ExperimentConfig(num_servers=5, num_requests=50))
    print(result.throughput_tps)

Scale-out (paper §4.6 + the sharded sequencer)::

    from repro.api import ScaledFidesSystem, SystemConfig, sharded_sequencer

    system = ScaledFidesSystem(
        SystemConfig(num_servers=8, items_per_shard=100, txns_per_block=2),
        sequencer=sharded_sequencer(4),
    )
"""

from __future__ import annotations

from repro.audit.auditor import Auditor
from repro.audit.report import AuditReport
from repro.bench.harness import ExperimentConfig, ExperimentResult, run
from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.core.ordserv import OrderedBlock
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import (
    OrderingService,
    OrderingShardMap,
    SequencerFactory,
    sharded_sequencer,
)
from repro.ledger.anchor import EpochAnchor

__all__ = [
    "AuditReport",
    "Auditor",
    "EpochAnchor",
    "ExperimentConfig",
    "ExperimentResult",
    "FidesSystem",
    "OrderedBlock",
    "OrderingService",
    "OrderingShardMap",
    "ScaledFidesSystem",
    "SequencerFactory",
    "SystemConfig",
    "run",
    "sharded_sequencer",
]
