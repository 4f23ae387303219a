"""Tests for the stable ``repro.api`` facade: the export surface, the
fluent PathBuilder and the Scout entry point."""

import asyncio
import warnings
from importlib import import_module

import pytest

import repro.api as api
from repro.api import (
    NEPTUNE,
    PA_BATCH,
    PA_LOCAL_PORT,
    PA_NET_PARTICIPANTS,
    PA_TRACE,
    Attrs,
    PathBuilder,
    Scout,
    build_graph,
    classify,
    path_create,
)

from .sockdev.conftest import requires_loopback

SPEC = """
router ETH  { class = EthRouter;  service = {up:net};
              params = {mac: "02:00:00:00:00:01"}; }
router ARP  { class = ArpRouter;  service = {resolver:nsProvider, <down:net}; }
router IP   { class = IpRouter;   service = {up:net, <down:net, <res:nsClient};
              params = {addr: "10.0.0.1"}; }
router UDP  { class = UdpRouter;  service = {up:net, <down:net}; }
router TEST { class = TestRouter; service = {<down:net}; }

connect IP.down  ETH.up;
connect IP.res   ARP.resolver;
connect ARP.down ETH.up;
connect UDP.down IP.up;
connect TEST.down UDP.up;
"""


def booted_graph():
    graph = build_graph(SPEC)
    graph.router("ARP").add_entry("10.0.0.2", "02:00:00:00:00:02")
    return graph


class TestSurface:
    def test_every_exported_name_resolves(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in api.__all__:
                assert getattr(api, name) is not None, name

    def test_classify_is_the_core_classifier(self):
        """One classifier: the facade re-exports it, and it returns the
        bare path, or None with the discard's reason on the message."""
        assert classify is import_module("repro.core.classify").classify
        graph = booted_graph()
        path = (PathBuilder(graph.router("TEST"))
                .participants("10.0.0.2", 7000)
                .local_port(6100)
                .build())
        from repro.net import build_udp_frame, EthAddr, IpAddr

        def frame(dport):
            return api.Msg(build_udp_frame(
                EthAddr("02:00:00:00:00:02"), EthAddr("02:00:00:00:00:01"),
                IpAddr("10.0.0.2"), IpAddr("10.0.0.1"), 7000, dport, b"ping"))

        assert classify(graph.router("ETH"), frame(6100)) is path
        unbound = frame(6001)
        assert classify(graph.router("ETH"), unbound) is None
        assert "6001" in unbound.meta["drop_reason"]


class TestPathBuilder:
    def test_build_equals_path_create(self):
        graph = booted_graph()
        built = (PathBuilder(graph.router("TEST"))
                 .invariant(PA_NET_PARTICIPANTS, ("10.0.0.2", 7000))
                 .invariant(PA_LOCAL_PORT, 6100)
                 .build())
        direct = path_create(booted_graph().router("TEST"),
                             Attrs({PA_NET_PARTICIPANTS: ("10.0.0.2", 7001),
                                    PA_LOCAL_PORT: 6101}))
        assert built.routers() == direct.routers()

    def test_fluent_helpers_set_the_attrs(self):
        builder = (PathBuilder(object())
                   .participants("10.0.0.9", 7000)
                   .local_port(6100)
                   .trace()
                   .batch(8))
        attrs = builder.attrs()
        assert attrs[PA_NET_PARTICIPANTS] == ("10.0.0.9", 7000)
        assert attrs[PA_LOCAL_PORT] == 6100
        assert attrs[PA_TRACE] is True
        assert attrs[PA_BATCH] == 8

    def test_invariants_accepts_mapping_and_keywords(self):
        builder = PathBuilder(object()).invariants(
            {PA_LOCAL_PORT: 6100}, custom="x")
        assert builder.attrs()[PA_LOCAL_PORT] == 6100
        assert builder.attrs()["custom"] == "x"

    def test_builder_is_reusable(self):
        graph = booted_graph()
        builder = (PathBuilder(graph.router("TEST"))
                   .participants("10.0.0.2", 7000)
                   .local_port(6100))
        first = builder.build()
        second = builder.local_port(6101).build()
        assert first is not second
        assert first.routers() == second.routers()


class TestScoutEntry:
    def test_three_line_session(self):
        scout = Scout(seed=11)
        scout.kernel.graph.router("ARP").add_entry("10.0.0.2",
                                                   "02:00:00:00:00:02")
        session = scout.kernel.start_video(
            NEPTUNE, ("10.0.0.2", 7000), local_port=6100)
        scout.run(0.05)
        assert session.path.state == "established"
        assert scout.now >= 50_000.0
        assert "classified" in scout.stats()

    def test_path_builder_is_kernel_wired(self):
        scout = Scout(seed=3)
        builder = scout.path(scout.kernel.display)
        assert builder._transforms is scout.kernel.transforms
        assert builder._admission is scout.kernel.admission


class TestDeprecationShims:
    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            api.definitely_not_a_name

    def test_dunder_probes_are_not_shimmed(self):
        # The import machinery probes __path__ on `from repro.api import x`;
        # the facade is a plain module and answers it quietly.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(AttributeError):
                api.__path__


class TestBackendResolution:
    """Every backend x shards combination resolves through
    _resolve_backend: accepted shapes construct, rejected shapes raise
    ScoutError with a message naming the offending knob.  ``executor=``
    is not an axis: only the value the backend implies is accepted."""

    ACCEPTED = [
        dict(),
        dict(backend="sim"),
        dict(executor="sim"),
        dict(backend="sim", executor="sim"),
        dict(backend="sim", executor="sim", shards=1),
        dict(backend="socket"),
        dict(backend="socket", shards=1),
        dict(backend="socket", executor="asyncio"),
        dict(backend="sim", executor="sim", shards=4),
    ]

    REJECTED = [
        (dict(backend="hardware"), "unknown backend"),
        (dict(executor="threads"), "unknown executor"),
        (dict(shards=0), "shards must be >= 1"),
        (dict(shards=-2), "shards must be >= 1"),
        (dict(executor="asyncio"),
         "requires executor='sim'.*drop executor=.*backend='socket'"),
        (dict(backend="socket", executor="sim"),
         "requires executor='asyncio'"),
        (dict(shards=2, backend="socket"), "requires backend='sim'"),
        (dict(shards=2, backend="socket", executor="asyncio"),
         "requires backend='sim'"),
        (dict(shards=3, backend="socket"), "requires backend='sim'"),
        (dict(shards=2, executor="asyncio"), "requires executor='sim'"),
    ]

    @pytest.mark.parametrize("kwargs", ACCEPTED)
    def test_accepted_combinations_resolve(self, kwargs):
        api._resolve_backend(kwargs.get("backend", "sim"),
                             kwargs.get("executor"),
                             kwargs.get("shards"))

    @pytest.mark.parametrize("kwargs,message", REJECTED)
    def test_rejected_combinations_name_the_fix(self, kwargs, message):
        with pytest.raises(api.ScoutError, match=message):
            Scout(**kwargs)

    def test_socket_backend_implies_its_executor(self):
        # No socket is bound before start(), so this runs anywhere.
        alone = Scout(seed=1, backend="socket")
        spelled = Scout(seed=1, backend="socket", executor="asyncio")
        for scout in (alone, spelled):
            assert type(scout.world) is api.SimWorld
            assert scout.executor == "asyncio"
            assert scout.device is not None and scout.bridge is not None

    def test_fabric_guard_is_scout_error(self):
        scout = Scout(seed=0, shards=2, ports=[6100])
        try:
            with pytest.raises(api.ScoutError, match="fabric"):
                scout.run(0.1)
            with pytest.raises(api.ScoutError, match="fabric"):
                scout.path(None)
        finally:
            scout.close()

    def test_single_kernel_guard_is_scout_error(self):
        with Scout(seed=0) as scout:
            with pytest.raises(api.ScoutError, match="offer"):
                scout.offer([])
            with pytest.raises(api.ScoutError, match="merged_books"):
                scout.merged_books()

    def test_old_call_shape_unchanged(self):
        # The pre-redesign single-kernel spelling still boots the
        # deterministic configuration with no new arguments.
        scout = Scout(seed=5)
        assert scout.backend == "sim"
        assert scout.executor == "sim"
        assert scout.kernel is not None and scout.fabric is None
        scout.run(0.01)
        scout.close()


class TestScoutLifecycle:
    def test_sync_with_closes(self):
        with Scout(seed=2) as scout:
            assert not scout._closed
        assert scout._closed
        scout.close()  # idempotent

    def test_fabric_close_caches_books(self):
        scout = Scout(seed=0, shards=2, ports=[6100, 6101])
        scout.close()
        books = scout.merged_books()
        assert books is scout.merged_books()

    def test_asyncio_scout_rejects_sync_with(self):
        scout = Scout(seed=2, backend="socket")
        with pytest.raises(api.ScoutError, match="async with"):
            scout.__enter__()

    def test_asyncio_scout_rejects_run(self):
        scout = Scout(seed=2, backend="socket")
        with pytest.raises(api.ScoutError, match="virtual time"):
            scout.run(0.1)

    def test_sim_scout_rejects_async_surface(self):
        with Scout(seed=2) as scout:
            with pytest.raises(api.ScoutError, match="backend='socket'"):
                scout.wallclock()
            for call in (scout.start, scout.serve, scout.settle,
                         scout.aclose):
                with pytest.raises(api.ScoutError,
                                   match="backend='socket'"):
                    asyncio.run(call())

    @requires_loopback
    def test_async_lifecycle_serves_and_closes(self):
        async def main():
            async with Scout(seed=2, backend="socket") as scout:
                assert scout.device.is_open and scout.bridge.running()
                builder = scout.path(scout.kernel.test)
                assert builder._transforms is scout.kernel.transforms
                await scout.settle()
                snap = scout.wallclock()
                assert snap["wall_s"] >= 0.0
            assert scout._closed and not scout.device.is_open

        asyncio.run(main())


class TestRenamedFacadeNames:
    def test_wallclock_names_are_exported(self):
        for name in ("SocketNetDevice", "WallClockBridge", "BACKENDS",
                     "EXECUTORS"):
            assert name in api.__all__
