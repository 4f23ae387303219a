"""Property-based equivalence for the specialized tier (DESIGN.md §11).

Two properties, both adversarial:

* **recompile exactness** — under *any* interleaving of traffic with
  chain mutations (``wrap_deliver`` interpositions, ``set_deliver``
  replacements, fault injection, restoring the original), a stale
  specialized function never sees a message: the specialized twin
  produces byte-identical deliveries, books, and interposition ledgers
  to a reference-walk twin fed the same sequence, and after every
  delivery its specialized generation matches the chain generation.

* **header-fuzz parity** — the generated function's bulk
  ``struct``/``memoryview`` header parsing agrees with the scalar
  per-message parsers for arbitrary (including inconsistent) IP total
  lengths, link padding, and truncated frames.  Malformed runs must
  *decline* to the reference walk, never mis-parse.
"""

from hypothesis import given, settings, strategies as st

from repro.core import Attrs, BWD, Msg, PA_NET_PARTICIPANTS, path_create
from repro.experiments.micro import Fig7Stack, REMOTE_IP
from repro.net.common import PA_LOCAL_PORT

from ..helpers import admitted_hit, tier_meta

PORT = 6100


class Twin:
    """One Fig7 stack pinned to a tier, with mutation bookkeeping."""

    def __init__(self, specialize):
        self.stack = Fig7Stack()
        self.path = path_create(
            self.stack.test,
            Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000),
                   PA_LOCAL_PORT: PORT}),
            specialize=specialize)
        #: Per-interposition message ledgers; a stale specialized
        #: function bypassing a live wrapper would desynchronize these.
        self.wrapper_log = []
        self.faulted = 0

    # -- mutations ----------------------------------------------------------

    def wrap_udp(self):
        log = self.wrapper_log

        def wrapper(inner):
            def seen(iface, msg, direction, **kwargs):
                log.append(("udp", msg.to_bytes()[-4:]))
                return inner(iface, msg, direction, **kwargs)
            return seen

        self.path.stage_of("UDP").wrap_deliver(BWD, wrapper)

    def replace_sink(self):
        stage = self.path.stage_of("TEST")
        inner = stage.deliver_fn(BWD)
        log = self.wrapper_log

        def replaced(iface, msg, direction, **kwargs):
            log.append(("sink", msg.to_bytes()[-4:]))
            return inner(iface, msg, direction, **kwargs)

        stage.set_deliver(BWD, replaced)

    def inject_fault(self):
        """Every message through IP from now on is dropped as a fault —
        the degradation governor's frame-skip shedding wears the same
        ``set_deliver`` shape, so one mutation covers both."""
        stage = self.path.stage_of("IP")
        inner = stage.deliver_fn(BWD)
        twin = self

        def faulty(iface, msg, direction, **kwargs):
            twin.faulted += 1
            if twin.faulted % 2:
                stage.note_drop(msg, "injected fault", "fault_injection")
                return None
            return inner(iface, msg, direction, **kwargs)

        stage.set_deliver(BWD, faulty)

    def restore(self):
        """Reinstall the pristine stage methods (mutations undone)."""
        for name, attr in (("UDP", "_receive"), ("IP", "_receive"),
                           ("TEST", "_sink")):
            stage = self.path.stage_of(name)
            stage.set_deliver(BWD, getattr(stage, attr))

    # -- traffic ------------------------------------------------------------

    def send(self, payloads, chunk):
        frames = []
        for i, payload in enumerate(payloads):
            frames.append(admitted_hit(
                Msg(self.stack.udp_frame(PORT, payload=payload))))
        if chunk == 1:
            for msg in frames:
                self.path.deliver(msg, BWD)
        else:
            for start in range(0, len(frames), chunk):
                self.path.deliver_batch(frames[start:start + chunk], BWD)

    # -- observables --------------------------------------------------------

    def observe(self):
        stats = self.path.stats
        return {
            "delivered": [m.to_bytes() for m in self.stack.test.received],
            "metas": [tier_meta(m) for m in self.stack.test.received],
            "drops": stats.drops,
            "drop_reasons": dict(stats.drop_reasons),
            "messages": (stats.messages_fwd, stats.messages_bwd),
            "cycles": stats.cycles,
            "wrappers": list(self.wrapper_log),
        }


MUTATIONS = ("wrap_udp", "replace_sink", "inject_fault", "restore")

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("send"),
                  st.integers(min_value=1, max_value=6),
                  st.sampled_from([1, 4, 32])),
        st.tuples(st.just("mutate"), st.sampled_from(MUTATIONS),
                  st.just(0)),
    ),
    min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(ops_strategy)
def test_recompile_exactness_under_interleaved_mutation(ops):
    spec, plain = Twin(specialize=True), Twin(specialize=False)
    counter = 0
    for kind, arg, chunk in ops:
        if kind == "send":
            payloads = [b"pay%05d" % (counter + i) for i in range(arg)]
            counter += arg
            for twin in (spec, plain):
                twin.send(payloads, chunk)
            # Deopt-before-next-message: the dispatcher may never leave
            # a stale generated function installed past a delivery.
            assert spec.path._specialized_gen == spec.path.chain_generation
        else:
            for twin in (spec, plain):
                getattr(twin, arg)()
    assert spec.observe() == plain.observe()


def _fuzz_frame(stack, payload, padding, total_length_delta, truncate):
    """A flow-validated frame with adversarial framing.

    The stamp asserts what a flow-cache exact-match key proved
    — a well-formed 42-byte ETH/IP/UDP header prefix — so the fuzz keeps
    that invariant (delta may not starve UDP of its own header,
    truncation only eats link padding) while freely skewing the IP total
    length against the real frame length and appending padding: exactly
    the disagreements the bulk parser's trim-bail must judge the same
    way the scalar parsers do.
    """
    delta = max(total_length_delta, -len(payload))
    frame = bytearray(stack.udp_frame(PORT, payload=payload))
    if delta:
        field = int.from_bytes(frame[16:18], "big")
        frame[16:18] = max(0, min(0xFFFF, field + delta)).to_bytes(2, "big")
    frame += b"\xa5" * padding
    if truncate:
        frame = frame[:len(frame) - min(truncate, padding)]
    return bytes(frame)


frame_params = st.tuples(
    st.binary(min_size=0, max_size=40),          # payload
    st.integers(min_value=0, max_value=24),      # link padding
    st.sampled_from([0, 0, 0, -21, -5, 3, 40]),  # IP total-length skew
    st.integers(min_value=0, max_value=8),       # truncation (of padding)
)


@settings(max_examples=40, deadline=None)
@given(st.lists(frame_params, min_size=1, max_size=16),
       st.sampled_from([1, 4, 32]))
def test_header_fuzz_parity_bulk_vs_scalar_parsers(params, chunk):
    spec, plain = Twin(specialize=True), Twin(specialize=False)
    for twin in (spec, plain):
        frames = []
        for payload, padding, delta, truncate in params:
            frames.append(admitted_hit(Msg(_fuzz_frame(
                twin.stack, payload, padding, delta, truncate))))
        for start in range(0, len(frames), chunk):
            twin.path.deliver_batch(frames[start:start + chunk], BWD)
    assert spec.observe() == plain.observe()
