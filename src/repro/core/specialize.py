"""Per-path specialization: ``exec``-generated fused fast-path functions.

Scout's central claim is that making paths explicit lets the system
*specialize* them: "if a path contains a sequence of interfaces for which
there is optimized code available, then the function pointers in the
interfaces can be updated to point to this optimized code" (Section 4.1).
This module removes the per-stage function calls themselves.  For a
chain whose stages are all recognized — the standard ETH/IP/UDP/MFLOW
receive bodies and the TEST sink, installed un-interposed — a per-path
Python function is generated and executed by ``Path.deliver``/
``deliver_batch`` in place of the recursive ``forward()`` walk.  That
walk stays as the reference the differential suites compare against and
as the only fallback: declined runs, per-message bails, un-fused tails,
observed paths, interposed and unrecognized stages all take it.

The generator exploits exactly the invariants that are fixed at
path-create time or proven per message by the flow cache:

* **validated headers** — every message in the run carries the
  ``*_validated`` stamps a :class:`~repro.core.flowcache.FlowCache` hit
  installed, so the per-stage length/address/port checks are dead
  branches and header *objects* are never materialized; the IP total
  length (the one per-packet field that still matters, for padding trim)
  is read with a single prebound :class:`struct.Struct` access;
* **absent intercepts** — each fused stage's deliver function is the
  pristine bound method (see :meth:`Stage.has_pristine_deliver`), so
  there is nothing to call between stages: header strips coalesce into
  one ``Msg.strip`` and the per-stage ``charge()`` calls into local
  float adds written back once;
* **fixed configuration** — no UDP checksum pass, interior stages
  actually interior, the sink actually last.

What the generator must NOT assume is anything that can change *between*
messages: padded frames (IP total length shorter than the payload) take a
per-message bail-out through the reference walk from the entry, and
MFLOW's sequencing branches (stale drop, gap, window advertisement,
batched-advertisement coalescing) are emitted inline, calling back into
stage methods for the rare cases.

**Deopt protocol.**  A generated function is valid for exactly one
``chain_generation``.  ``set_deliver``/``wrap_deliver`` bump the
generation, and ``Path.deliver``/``deliver_batch`` compare generations
*before* consulting the specialized slot — so interposition (probes,
fault injectors, transformations) deoptimizes before the next message is
seen.  Regeneration then re-runs recognition: a wrapped stage fails the
pristine check and the prefix shortens (or specialization is dropped).
Observed paths (``PA_TRACE``) never specialize.

Stage recognition is a registry: the net modules register a *specializer*
per stage class (:func:`register_specializer`), keeping each stage's
inlined semantics next to the scalar code it must mirror; the assembler
here only knows how to fuse fragments.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from .stage import DIRECTION_NAMES

#: Fusing fewer stages than this is not worth a generated function: the
#: per-batch guard and dispatch would eat the win.  ETH+IP+UDP is the
#: shortest prefix that pays.
MIN_PREFIX = 3

#: The tier a path runs when neither a ``PA_SPECIALIZE`` attribute nor
#: ``path_create(specialize=)`` chose one.  Tests that want a whole
#: process on the reference walk monkeypatch this.
DEFAULT_SPECIALIZE = True

_REGISTRY: Dict[Type, Callable[..., Optional["StageFragment"]]] = {}


def register_specializer(stage_cls: Type,
                         specializer: Callable[..., Optional["StageFragment"]]
                         ) -> None:
    """Register *specializer* as the recognizer/emitter for *stage_cls*.

    ``specializer(stage, iface, direction, terminal)`` is called during
    chain recognition (*terminal*: the stage is the chain's last) and
    returns a :class:`StageFragment` when the stage can be fused — or
    ``None`` to stop the prefix there (interposed function, wrong
    direction, disqualifying configuration).
    """
    _REGISTRY[stage_cls] = specializer


class StageFragment:
    """One recognized stage's contribution to a fused function.

    Parameters
    ----------
    stamps:
        ``msg.meta`` validation flags this stage consumes.  Guarded for
        the whole run (missing stamp -> decline) and deleted per message.
    pop:
        Fixed header bytes this stage strips.  Consecutive fragments'
        pops coalesce into a single ``Msg.strip``.
    cost_expr:
        ``cost_expr(ctx)`` -> expression string for the stage's per-
        message charge, evaluated once per batch (like the vectorized
        deliver functions, so live ``params`` monkeypatching stays
        visible).  ``None`` emits no charge.
    bail:
        ``bail(ctx)`` -> lines emitted *before any mutation* that may
        route a message through ``ctx.bail_action()`` — the reference
        walk — when a per-message condition the fused body
        does not handle holds (e.g. link-layer padding trim).
    body:
        ``body(ctx)`` -> lines emitted at the stage's position with all
        pending strips flushed (the message front is this stage's
        payload).  For control-flow-heavy stages (MFLOW) and terminals.
    epilogue:
        ``epilogue(ctx)`` -> lines emitted after the loop with ``_live``
        bound to the number of messages that took the fused body (bulk
        counter updates).
    terminal:
        True when the stage absorbs every message (sink); must be the
        chain's last entry.
    """

    __slots__ = ("stamps", "pop", "cost_expr", "bail", "body", "epilogue",
                 "terminal")

    def __init__(self, stamps: Sequence[str] = (), pop: int = 0,
                 cost_expr: Optional[Callable] = None,
                 bail: Optional[Callable] = None,
                 body: Optional[Callable] = None,
                 epilogue: Optional[Callable] = None,
                 terminal: bool = False):
        self.stamps = tuple(stamps)
        self.pop = pop
        self.cost_expr = cost_expr
        self.bail = bail
        self.body = body
        self.epilogue = epilogue
        self.terminal = terminal


class GenContext:
    """Name binding and layout state handed to fragment emitters."""

    def __init__(self, namespace: Dict[str, Any], direction: int):
        self.ns = namespace
        self.direction = direction
        #: Cumulative header bytes stripped by earlier fragments — the
        #: absolute offset of the current fragment's header in the
        #: original frame (fragments read raw bytes through it).
        self.offset = 0
        self._seq = 0
        self._needs_raw = False

    def bind(self, value: Any, hint: str = "v") -> str:
        """Bind *value* into the generated function's namespace and
        return its (unique) name."""
        name = "_%s_%d" % ("".join(ch if ch.isalnum() else "_"
                                   for ch in hint), self._seq)
        self._seq += 1
        self.ns[name] = value
        return name

    def need_raw(self) -> str:
        """Request the per-message ``_raw = m.to_bytes()`` prologue (a
        zero-copy view for the common single-chunk frame) and return the
        variable name."""
        self._needs_raw = True
        return "_raw"

    def bail_action(self) -> List[str]:
        """The per-message deoptimization: run this message through the
        reference walk from the entry instead of the fused body."""
        return ["_bail += 1",
                "results[_i] = _entry.deliver(_entry, m, %d)"
                % self.direction,
                "continue"]


def specialize_chain(path: Any, direction: int) -> Optional[Callable]:
    """Generate a fused function for *path*'s chain in *direction*, or
    ``None`` when no worthwhile prefix is recognized.

    The returned callable has the contract ``spec(msgs, kwargs) ->
    Optional[list]``: ``None`` declines the run (a message is missing a
    validation stamp, or kwargs were passed) and the caller falls back
    to the reference walk; otherwise the per-message results list is
    returned exactly as delivering each message in order would.
    """
    entry = nxt = path.entry_iface(direction)
    frags: List[StageFragment] = []
    while nxt is not None:
        specializer = _REGISTRY.get(type(nxt.stage))
        if specializer is None:
            break
        frag = specializer(nxt.stage, nxt, direction,
                           terminal=nxt.next is None)
        if frag is None:
            break
        frags.append(frag)
        nxt = nxt.next
    if len(frags) < MIN_PREFIX:
        return None
    if nxt is None and not frags[-1].terminal:
        return None  # last stage would forward off the end: wiring bug
    return _assemble(path, direction, entry, frags, nxt)


def _assemble(path: Any, direction: int, entry: Any,
              frags: List[StageFragment], nxt: Any) -> Callable:
    """Fuse *frags* into one function.  *entry* is the chain's first
    interface (where a bailed message re-enters the reference walk) and
    *nxt* the first un-fused one (``None`` when the last fragment is a
    terminal sink)."""
    ns: Dict[str, Any] = {"_entry": entry, "_nxt": nxt, "_path": path}
    ctx = GenContext(ns, direction)

    stamps = [s for f in frags for s in f.stamps]
    min_len = sum(f.pop for f in frags)

    # Per-message guard terms: every stamp present and the fixed header
    # region actually there (a hand-stamped runt must decline, not crash
    # differently from the scalar path).
    guard = " and ".join(["_mt.get(%r)" % s for s in stamps]
                         + (["len(m) >= %d" % min_len] if min_len else []))

    batch_prologue: List[str] = []   # once per call (live cost reads)
    body: List[str] = []             # per message, indent-relative lines
    epilogue: List[str] = []

    cost_vars: List[Tuple[StageFragment, str]] = []
    for i, frag in enumerate(frags):
        if frag.cost_expr is not None:
            var = "_cost_%d" % i
            batch_prologue.append("%s = %s" % (var, frag.cost_expr(ctx)))
            cost_vars.append((frag, var))
        else:
            cost_vars.append((frag, ""))

    # --- early, pre-mutation section: bail predicates ------------------
    offset = 0
    for frag in frags:
        ctx.offset = offset
        if frag.bail is not None:
            body.extend(frag.bail(ctx))
        offset += frag.pop

    # --- stamp consumption + cost accumulator --------------------------
    for s in stamps:
        body.append("del meta[%r]" % s)
    body.append("c = meta.get('cost_us', 0.0)")

    # --- per-stage fused bodies ----------------------------------------
    pending = 0
    offset = 0

    def flush() -> None:
        nonlocal pending
        if pending:
            body.append("m.strip(%d)" % pending)
            pending = 0

    for frag, cost_var in cost_vars:
        ctx.offset = offset
        if cost_var:
            body.append("c += %s" % cost_var)
        pending += frag.pop
        offset += frag.pop
        if frag.body is not None:
            flush()
            body.extend(frag.body(ctx))
    if nxt is not None:
        flush()
        body.append("meta['cost_us'] = c")
        body.append("results[_i] = _nxt.deliver(_nxt, m, %d)" % direction)

    for frag in frags:
        if frag.epilogue is not None:
            epilogue.extend(frag.epilogue(ctx))

    lines = ["def _specialized(msgs, kwargs):",
             "    if kwargs:",
             "        return None",
             "    for m in msgs:",
             "        _mt = m.meta",
             "        if not (%s):" % guard,
             "            return None",
             "    _n = len(msgs)",
             "    _bail = 0",
             "    results = [None] * _n"]
    lines += ["    " + line for line in batch_prologue]
    lines.append("    for _i, m in enumerate(msgs):")
    lines.append("        meta = m.meta")
    if ctx._needs_raw:
        lines.append("        _raw = m.to_bytes()")
    lines += ["        " + line for line in body]
    lines.append("    _live = _n - _bail")
    lines.append("    _path.specialized_msgs += _live")
    lines += ["    " + line for line in epilogue]
    lines.append("    return results")

    source = "\n".join(lines)
    code = compile(source, "<specialized path%s %s>"
                   % (getattr(path, "pid", "?"), DIRECTION_NAMES[direction]),
                   "exec")
    exec(code, ns)  # noqa: S102 - the whole point of this module
    fn = ns["_specialized"]
    fn.__specialized_source__ = source
    fn.__specialized_stages__ = len(frags)
    return fn
