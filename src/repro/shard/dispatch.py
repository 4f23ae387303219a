"""Flow-hash dispatch at the RX boundary of the shard fabric.

The dispatcher is the fabric's classifier-before-the-classifier: it
peeks exactly the header bytes :func:`repro.core.flowcache.flow_key`
keys on (ETH dst + IP proto + addresses + UDP ports) and maps each
frame to a shard, so every frame of a flow always lands on the same
:class:`~repro.kernel.ScoutKernel` instance and that kernel's flow
cache, admission state, and specialized paths stay private to it.

Placement is ``crc32(flow_key) % shards`` — a *stable* hash (Python's
builtin ``hash`` is salted per process, which would scatter the same
flow differently across fabric restarts and across the dispatcher and
any debugging tool).  Three things can override the hash:

* **pins** — an explicit flow→shard binding, installed by
  ``rebalance()`` or by failover.  Pins always win.
* **dead shards** — when a worker dies, its hash slots are re-aimed at
  the live set (``live[crc32 % len(live)]``) and each rerouted flow is
  pinned to its new home, so the mapping stays stable even as further
  shards die.
* **non-flow traffic** (ARP, ICMP, fragments — anything
  :func:`flow_key_frame` declines) — goes to the lowest-numbered live
  shard, keeping it deterministic without inventing a second hash.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.flowcache import flow_key_frame

__all__ = ["shard_of", "FlowDispatcher"]


def shard_of(key: bytes, shards: int) -> int:
    """Stable home shard for a flow key: ``crc32(key) % shards``."""
    return zlib.crc32(key) % shards


class FlowDispatcher:
    """Split frame runs across shards by flow hash, honouring pins."""

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        #: Explicit flow→shard overrides (failover and rebalance).
        self.pins: Dict[bytes, int] = {}
        #: Shards whose workers are known dead.
        self.dead: Set[int] = set()
        #: Every flow key each shard has ever been handed — the failover
        #: worklist: when a shard dies these are the flows to re-pin.
        self.flows_on_shard: Dict[int, Set[bytes]] = {
            shard: set() for shard in range(shards)}
        # accounting
        self.dispatched: Dict[int, int] = {
            shard: 0 for shard in range(shards)}
        self.non_flow_frames = 0
        self.failover_repins = 0

    # -- placement -------------------------------------------------------------

    def live_shards(self) -> List[int]:
        return [s for s in range(self.shards) if s not in self.dead]

    def shard_for_key(self, key: bytes) -> int:
        """Resolve one flow key to a live shard (pin > hash > failover)."""
        pinned = self.pins.get(key)
        if pinned is not None and pinned not in self.dead:
            return pinned
        home = shard_of(key, self.shards)
        if home not in self.dead and pinned is None:
            return home
        live = self.live_shards()
        if not live:
            raise RuntimeError("all shards are dead")
        target = live[zlib.crc32(key) % len(live)]
        # Pin the detour so the flow stays put even if the live set
        # shrinks again (re-hashing over a different-sized live list
        # would otherwise migrate flows whose shard never died).
        self.pins[key] = target
        self.failover_repins += 1
        return target

    def dispatch(self, frames: Sequence[bytes],
                 metas: Optional[Sequence[Optional[dict]]] = None,
                 ) -> Dict[int, Tuple[List[bytes], List[Optional[dict]]]]:
        """Partition a frame run into per-shard runs, order-preserving.

        Returns ``{shard: (frames, metas)}`` covering only shards that
        received at least one frame.  Relative order within a shard's
        run equals arrival order, so per-flow FIFO survives dispatch.
        """
        if metas is not None and len(metas) != len(frames):
            raise ValueError(f"{len(frames)} frames but {len(metas)} metas")
        out: Dict[int, Tuple[List[bytes], List[Optional[dict]]]] = {}
        for index, frame in enumerate(frames):
            key = flow_key_frame(bytes(frame))
            if key is None:
                live = self.live_shards()
                if not live:
                    raise RuntimeError("all shards are dead")
                target = live[0]
                self.non_flow_frames += 1
            else:
                target = self.shard_for_key(key)
                self.flows_on_shard[target].add(key)
            run = out.get(target)
            if run is None:
                run = ([], [])
                out[target] = run
            run[0].append(frame)
            run[1].append(metas[index] if metas is not None else None)
            self.dispatched[target] += 1
        return out

    # -- control plane ---------------------------------------------------------

    def mark_dead(self, shard: int) -> Set[bytes]:
        """Record a dead worker; returns the flows that must re-home.

        The returned keys are *not* re-pinned here — the fabric re-pins
        them via :meth:`shard_for_key` as their next frames arrive (or
        eagerly, for the chaos test's "every live flow re-pinned"
        check), after it has ledgered the shard's outstanding serials.
        """
        if shard >= self.shards:
            raise ValueError(f"no such shard {shard}")
        self.dead.add(shard)
        return set(self.flows_on_shard[shard])

    def repin(self, key: bytes, shard: int) -> None:
        """Explicitly bind a flow to a shard (the rebalance hook's move)."""
        if not 0 <= shard < self.shards:
            raise ValueError(f"no such shard {shard}")
        if shard in self.dead:
            raise ValueError(f"cannot pin flow to dead shard {shard}")
        self.pins[key] = shard
        self.flows_on_shard[shard].add(key)

    def __repr__(self) -> str:
        return (f"<FlowDispatcher shards={self.shards} "
                f"dead={sorted(self.dead)} pins={len(self.pins)}>")
