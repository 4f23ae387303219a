"""Selection policies: which group member serves the next message.

The paper's architecture binds one flow to one path; a
:class:`~repro.multipath.PathGroup` generalizes that to "one flow class →
N parallel paths" and delegates the per-message (or per-flow) placement
decision to a pluggable policy.  Each policy reads only state the path
architecture already exposes — queue depths (:attr:`Path.q`), cycle
accounting (:attr:`PathStats.cycles`), EDF deadlines (the wakeup hook of
Section 3.2) — so adding a policy never requires touching the data path.

Two dispatch disciplines, chosen by the policy's ``sticky`` flag:

* **non-sticky** (per-message): every message is re-placed.  The flow
  cache stores the demux *anchor*, so classification stays one probe but
  each hit re-runs :meth:`SelectionPolicy.select`.
* **sticky** (per-flow): the first message of a flow is placed and the
  chosen member is pinned in the flow cache; later messages ride the pin
  with zero policy overhead.  The policy may request a *re-spread*
  (:meth:`should_respread`), which drops the group's pins so
  every flow is re-placed on its next message.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from ..core.path import Path

_INF = float("inf")


def bottleneck_depth(path: Path) -> int:
    """A path's load proxy: the depth of its fullest queue.

    The deepest of the four per-path queues is where backpressure will
    bite first, so it is the honest single-number answer to "how busy is
    this path right now".
    """
    return max(len(q) for q in path.q)


def _edf_deadline(path: Path, now_us: float) -> float:
    """The path's next deadline under EDF, or +inf when it has none.

    Paths scheduled by the EDF policy stash a deadline probe in their
    attrs (see :meth:`repro.display.router.DisplayStage`); best-effort
    paths have no deadline and thus infinite slack.
    """
    probe = path.attrs.get("_edf_deadline_fn")
    if probe is None:
        return _INF
    try:
        deadline = probe()
    except Exception:
        return _INF
    return _INF if deadline is None else float(deadline)


class SelectionPolicy:
    """Base class: subclasses override :meth:`select` (and optionally
    :meth:`should_respread` for sticky policies)."""

    #: registry key and display name.
    name = "base"
    #: True = pin flows to the selected member in the flow cache.
    sticky = False

    def select(self, members: Sequence[Path], msg: Any) -> Path:
        """Pick the member that serves *msg*.  *members* is non-empty and
        contains only ESTABLISHED paths."""
        raise NotImplementedError

    def should_respread(self, members: Sequence[Path]) -> bool:
        """Sticky policies: return True to drop every pin so flows are
        re-placed.  Non-sticky policies never need this."""
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} sticky={self.sticky}>"


class RoundRobinPolicy(SelectionPolicy):
    """Cycle through the members — the load-oblivious baseline."""

    name = "round_robin"
    sticky = False

    def __init__(self) -> None:
        self._next = 0

    def select(self, members: Sequence[Path], msg: Any) -> Path:
        chosen = members[self._next % len(members)]
        self._next += 1
        return chosen


class LeastLoadedPolicy(SelectionPolicy):
    """Send each message to the member with the shallowest bottleneck
    queue — join-the-shortest-queue over :func:`bottleneck_depth`.

    ``hysteresis`` dampens the re-dispatch oscillation an adversary can
    otherwise induce: with 0 (the default) every message chases the
    instantaneous minimum, so an attacker alternating bursts can make the
    policy ping-pong between members in lockstep with its own arrivals.
    With ``hysteresis=h`` the previous choice is kept unless some other
    member is shallower by *more than* ``h`` messages, so small crafted
    imbalances no longer flip the decision.
    """

    name = "least_loaded"
    sticky = False

    def __init__(self, hysteresis: int = 0):
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self.hysteresis = hysteresis
        self._last: Optional[Path] = None
        self.switches = 0

    def select(self, members: Sequence[Path], msg: Any) -> Path:
        best = min(members, key=bottleneck_depth)
        last = self._last
        if (self.hysteresis and last is not None and last in members
                and bottleneck_depth(last)
                <= bottleneck_depth(best) + self.hysteresis):
            return last
        if last is not None and best is not last:
            self.switches += 1
        self._last = best
        return best


class DeadlineSlackPolicy(SelectionPolicy):
    """Prefer the member with the most EDF slack.

    A member whose next deadline is imminent is about to burn its CPU
    allocation on real-time work; steering new messages toward the member
    with the *latest* deadline (ties broken by queue depth) keeps
    best-effort load away from deadline-critical paths.  Members without
    deadlines (no EDF wakeup installed) have infinite slack and soak up
    load first.
    """

    name = "deadline_slack"
    sticky = False

    def __init__(self, now_fn: Optional[Callable[[], float]] = None):
        #: clock used to compute slack; defaults to deadline-ordering
        #: only (absolute slack needs a notion of "now").
        self.now_fn = now_fn

    def select(self, members: Sequence[Path], msg: Any) -> Path:
        now = self.now_fn() if self.now_fn is not None else 0.0
        return max(members,
                   key=lambda p: (_edf_deadline(p, now),
                                  -bottleneck_depth(p)))


class WeightedAccountingPolicy(SelectionPolicy):
    """Sticky placement weighted by each member's cycle account.

    New flows are pinned to the member that has been charged the fewest
    cycles (:attr:`PathStats.cycles` — the paper's per-path resource
    accounting doing double duty as a load balancer's weight).  Because
    pins are long-lived, the policy watches for imbalance: when the
    busiest member's cycle charge exceeds ``respread_ratio`` times the
    idlest member's, it requests a re-spread and the flow cache's pins
    for this group are dropped in bulk.
    """

    name = "weighted_accounting"
    sticky = True

    def __init__(self, respread_ratio: float = 4.0):
        if respread_ratio <= 1.0:
            raise ValueError("respread_ratio must exceed 1")
        self.respread_ratio = respread_ratio

    def select(self, members: Sequence[Path], msg: Any) -> Path:
        return min(members, key=lambda p: p.stats.cycles)

    def should_respread(self, members: Sequence[Path]) -> bool:
        if len(members) < 2:
            return False
        charges = [p.stats.cycles for p in members]
        busiest, idlest = max(charges), min(charges)
        return busiest > self.respread_ratio * max(idlest, 1.0)


#: name -> policy class, for attribute-driven construction.
POLICIES: Dict[str, type] = {
    cls.name: cls for cls in (
        RoundRobinPolicy, LeastLoadedPolicy, DeadlineSlackPolicy,
        WeightedAccountingPolicy,
    )
}


def make_policy(spec: Any, **kwargs: Any) -> SelectionPolicy:
    """Coerce *spec* (a policy instance, class, or registry name) into a
    :class:`SelectionPolicy` instance."""
    if isinstance(spec, SelectionPolicy):
        return spec
    if isinstance(spec, type) and issubclass(spec, SelectionPolicy):
        return spec(**kwargs)
    cls = POLICIES.get(spec)
    if cls is None:
        raise ValueError(
            f"unknown selection policy {spec!r}; known: "
            f"{sorted(POLICIES)}")
    return cls(**kwargs)
