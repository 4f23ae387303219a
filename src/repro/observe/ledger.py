"""The fate ledger: every serial reaches exactly one terminal state.

Accounting is observation, not fault injection: the adversary's verdict
engine, the shard fabric's per-shard books and the experiments all close
their serials through the one :class:`DropLedger` here.  This module
depends on nothing else in the package, so any layer may import it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["DropLedger", "DELIVERED", "BACKPRESSURE_SHED"]

#: Ledger category for a successfully consumed message.
DELIVERED = "delivered"
#: Ledger category for a message shed by backpressure admission.
BACKPRESSURE_SHED = "backpressure_shed"


class DropLedger:
    """Exact message accounting: every serial reaches one terminal state.

    ``inject`` opens a serial; ``account`` closes it under a category
    (:data:`DELIVERED`, :data:`BACKPRESSURE_SHED`, a drop category...).
    Closing a serial twice is recorded as a double count, never silently
    merged; serials still open at reconciliation are leaks.  The verdict
    is only ``ok`` when both lists are empty and the category counts sum
    exactly to the injection count.
    """

    def __init__(self) -> None:
        # Serials are opaque hashables: plain ints for a single kernel,
        # ``(shard_id, serial)`` tuples in a merged fabric ledger.
        self._state: Dict[Any, Optional[str]] = {}
        self.double_counted: List[Tuple[Any, str, str]] = []

    def inject(self, serial) -> None:
        if serial in self._state:
            raise ValueError(f"serial {serial} injected twice")
        self._state[serial] = None

    def account(self, serial, category: str) -> None:
        previous = self._state.get(serial)
        if previous is not None:
            self.double_counted.append((serial, previous, category))
            return
        if serial not in self._state:
            raise ValueError(f"serial {serial} accounted before injection")
        self._state[serial] = category

    @property
    def injected(self) -> int:
        return len(self._state)

    def leaks(self) -> List[int]:
        return sorted(serial for serial, cat in self._state.items()
                      if cat is None)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for category in self._state.values():
            if category is not None:
                counts[category] = counts.get(category, 0) + 1
        return counts

    def count(self, category: str) -> int:
        return self.counts().get(category, 0)

    def fates(self) -> Dict[Any, Optional[str]]:
        """Snapshot of every serial's terminal state (``None`` = open)."""
        return dict(self._state)

    @classmethod
    def merge(cls, ledgers: Dict[Any, "DropLedger"]) -> "DropLedger":
        """Merge per-shard ledgers into one fabric-level ledger.

        Every serial is namespaced as ``(shard_id, serial)`` — two
        shards may both have a serial 7 and the merged ledger can never
        alias them into one another, so cross-shard reconciliation keeps
        the exactly-once guarantee the per-shard ledgers provide
        (DESIGN.md §17).  Leaks and double counts survive the merge under
        their namespaced serials; injected totals add exactly.
        """
        merged = cls()
        for shard_id in sorted(ledgers):
            ledger = ledgers[shard_id]
            for serial, category in ledger._state.items():
                merged._state[(shard_id, serial)] = category
            for serial, previous, category in ledger.double_counted:
                merged.double_counted.append(
                    ((shard_id, serial), previous, category))
        return merged
