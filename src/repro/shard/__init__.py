"""Sharded kernel fabric: flow-hash dispatch across N Scout kernels.

Scout's path architecture makes per-flow state explicit — which is
exactly what makes kernels shardable: if every frame of a flow reaches
the same kernel, that kernel's flow cache, admission state, and
specialized paths need no cross-kernel coordination at all.  This
package puts N single-kernel reproductions behind one dispatcher to
test that observation (DESIGN.md §17):

* :mod:`~repro.shard.dispatch` — flow-hash dispatcher peeking the same
  header bytes :func:`repro.core.flowcache.flow_key` keys on;
* :mod:`~repro.shard.worker` — one whole ``ScoutKernel`` per shard,
  answering per-serial fates, with a shard-local shedder/watchdog
  control plane;
* :mod:`~repro.shard.books` — merged metrics + cross-shard drop-ledger
  reconciliation, exact to the serial;
* :mod:`~repro.shard.fabric` — :class:`ShardedKernel`, composing it
  all as one deterministic in-process machine, with dead-worker
  failover and a flow ``rebalance()`` hook.
"""

from .books import FabricBooks, ShardBooks, reconcile
from .dispatch import FlowDispatcher, shard_of
from .fabric import ShardedKernel
from .worker import SHARD_FAILOVER, ShardSpec, ShardWorker

__all__ = [
    "ShardedKernel",
    "FlowDispatcher", "shard_of",
    "ShardSpec", "ShardWorker", "SHARD_FAILOVER",
    "ShardBooks", "FabricBooks", "reconcile",
]
