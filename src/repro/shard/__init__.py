"""Sharded kernel fabric: flow-hash dispatch across N Scout kernels.

Scout's path architecture makes per-flow state explicit — which is
exactly what makes kernels shardable: if every frame of a flow reaches
the same kernel, that kernel's flow cache, admission state, and
specialized paths need no cross-kernel coordination at all.  This
package puts N single-kernel reproductions behind one dispatcher to
test that observation (DESIGN.md §17):

* :mod:`~repro.shard.dispatch` — flow-hash dispatcher peeking the same
  header bytes :func:`repro.core.flowcache.flow_key_frame` keys on;
* :mod:`~repro.shard.worker` — one whole ``ScoutKernel`` per shard,
  answering per-serial fates, with a shard-local shedder/watchdog
  control plane;
* :mod:`~repro.shard.fabric` — :class:`ShardedKernel`, composing it
  all as one deterministic in-process machine, with dead-worker
  failover, a flow ``rebalance()`` hook, and :class:`FabricBooks`: the
  merged drop ledger, cross-checked against every live shard kernel.
"""

from .dispatch import FlowDispatcher, shard_of
from .fabric import FabricBooks, ShardedKernel
from .worker import SHARD_FAILOVER, ShardWorker

__all__ = [
    "ShardedKernel", "FabricBooks",
    "FlowDispatcher", "shard_of",
    "ShardWorker", "SHARD_FAILOVER",
]
