"""Hostile bytes through the real loopback socket (ROADMAP item 4.2).

A seeded mutation corpus of one good ETH/IP/UDP frame per warm flow —
truncations, bit flips past the Ethernet header, lying IP total-length,
IHL, fragment and UDP-length fields, trailing padding — is sent from a
plain socket into ``Scout(backend="socket")`` while ``serve()`` pumps.
Nothing may raise out of the datapath, no path thread may die, and every
datagram must end with exactly one fate.

Not covered here: fragment bombs aimed at the reassembly table (these
mutants leave at most one piece per datagram) and a peer that vanishes
mid-send.  The two frames the corpus found that did damage are pinned
below it, on tier x backend.  Socket cases are skipped where loopback
sockets are unavailable.
"""

import asyncio
import random
import socket

import pytest

from repro.api import EthAddr, IpAddr, Scout, build_udp_frame
from repro.sim import DONE
from ..helpers import record_spawns
from .conftest import accounted, requires_loopback

LOCAL_MAC = EthAddr("02:00:00:00:00:01")
LOCAL_IP = IpAddr("10.0.0.1")
REMOTE_MAC = EthAddr("02:00:00:00:00:02")
REMOTE_IP = IpAddr("10.0.0.2")
SINK_PORT = 6100
FLOWS = 4
WINDOW = 64     # datagrams in flight: never more than the socket holds
MUTANTS = 2500

# Offsets into the frame: ETH is 14 bytes, IP 20, UDP 8.
IP_VERSION_IHL, IP_TOTAL_LENGTH, IP_IDENT, IP_FRAGMENT, UDP_LENGTH = \
    14, 16, 18, 20, 38


def good_frame(sequence: int) -> bytes:
    flow = sequence % FLOWS
    frame = bytearray(build_udp_frame(
        REMOTE_MAC, LOCAL_MAC, REMOTE_IP, LOCAL_IP, 7000 + flow,
        SINK_PORT + flow, b"fuzz-%06d" % sequence + bytes(48)))
    # build_udp_frame numbers datagrams from a process-wide counter; the
    # corpus must be the same bytes whatever ran before it.
    frame[IP_IDENT:IP_IDENT + 2] = (sequence & 0xFFFF).to_bytes(2, "big")
    return bytes(frame)


def _put16(frame: bytearray, at: int, value: int) -> None:
    frame[at:at + 2] = value.to_bytes(2, "big")


def mutate(rng: random.Random, frame: bytes) -> bytes:
    out = bytearray(frame)
    kind = rng.randrange(8)
    if kind == 0:       # truncated anywhere, runts included
        del out[rng.randrange(len(out)):]
    elif kind == 1:     # bit flips past the Ethernet header
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(14, len(out))] ^= 1 << rng.randrange(8)
    elif kind == 2:     # total length: below IHL, below IHL + 8, beyond
        _put16(out, IP_TOTAL_LENGTH, rng.choice(
            [0, 5, 19, 20, 25, 27, 28, 29, 0xFFFF, rng.randrange(65536)]))
    elif kind == 3:     # version / IHL
        out[IP_VERSION_IHL] = rng.choice(
            [0x40, 0x44, 0x46, 0x4F, 0x55, 0x65, rng.randrange(256)])
    elif kind == 4:     # MF, offsets, reserved bit
        _put16(out, IP_FRAGMENT, rng.choice(
            [0x2000, 0x0001, 0x1FFF, 0x3FFF, 0x8000, rng.randrange(65536)]))
    elif kind == 5:     # UDP length
        _put16(out, UDP_LENGTH, rng.choice(
            [0, 7, 8, 9, 0xFFFF, rng.randrange(65536)]))
    elif kind == 6:     # trailing padding
        out += bytes(rng.randrange(1, 64))
    return bytes(out)   # kind 7: untouched


@requires_loopback
@pytest.mark.parametrize("specialize", [True, False],
                         ids=["specialized", "reference"])
def test_mutation_corpus_every_datagram_has_one_fate(specialize, monkeypatch):
    rng = random.Random(20240917)
    threads = record_spawns(monkeypatch)

    async def main():
        errors = []
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda loop, context: errors.append(context))
        async with Scout(seed=11, backend="socket") as scout:
            kernel, device = scout.kernel, scout.device
            sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sender.bind(("127.0.0.1", 0))
            scout.add_peer(REMOTE_IP, REMOTE_MAC, sender.getsockname())
            for flow in range(FLOWS):
                kernel.start_udp_sink(
                    SINK_PORT + flow, (str(REMOTE_IP), 7000 + flow),
                    batch=16, inq_len=256, specialize=specialize)
            serve = asyncio.ensure_future(scout.serve())
            sent = 0

            async def flush():
                deadline = loop.time() + 5.0
                while (accounted(device) < sent or device.pending()) \
                        and loop.time() < deadline:
                    await asyncio.sleep(0)
                await scout.settle()

            def send(frame):
                nonlocal sent
                sender.sendto(frame, device.address)
                sent += 1

            for flow in range(FLOWS):   # every flow cached before the fuzz
                send(good_frame(flow))
            await flush()
            for sequence in range(FLOWS, FLOWS + MUTANTS):
                send(mutate(rng, good_frame(sequence)))
                if sent % WINDOW == 0:
                    await flush()
            await flush()
            received = kernel.test.received
            before = len(received)
            last = good_frame(FLOWS + MUTANTS)
            send(last)
            await flush()
            device.close()
            await serve
            sender.close()

            assert errors == []
            assert len(threads) > FLOWS
            assert all(thread.state != DONE for thread in threads)
            assert accounted(device) == sent
            # A lone fragment waits in the reassembly table: neither
            # fate yet, and at most MAX_REASSEMBLY of them.
            waiting = sum(len(buffer.pieces)
                          for buffer in
                          kernel.frag_path.stages[0]._buffers.values())
            dropped = sum(kernel.drop_ledger().values())
            assert device.rx_frames == len(received) + dropped + waiting
            assert dropped > MUTANTS // 10 and len(received) > MUTANTS // 2
            assert len(received) == before + 1
            assert received[-1].to_bytes() == last[42:]

    asyncio.run(main())


def _drive(backend: str, scenario) -> None:
    """Run generator *scenario(scout)* on one backend, quiescing the
    kernel at every ``yield``."""
    if backend == "sim":
        with Scout(seed=3, udp_sink=True, display=False) as scout:
            for _ in scenario(scout):
                scout.world.run_until_idle()
        return

    async def main():
        async with Scout(seed=3, backend="socket") as scout:
            for _ in scenario(scout):
                await scout.settle()

    asyncio.run(main())


@pytest.mark.parametrize("backend", [
    "sim", pytest.param("socket", marks=requires_loopback)])
@pytest.mark.parametrize("specialize", [True, False],
                         ids=["specialized", "reference"])
class TestLyingTotalLength:
    """A frame on a cached flow whose IP total length lies low.  The flow
    key leaves total length out, so the cache stamps the frame validated
    and every later check is the stage's own.

    * 25 (below IHL + 8): IP trims it to 5 bytes and UDP must drop it
      instead of popping a header that is not there; that ``ValueError``
      used to kill the sink's thread.
    * 10 (below IHL): IP must drop it; the negative payload length used
      to slice from the *end* and deliver the datagram short.

    Either way the frame is ledgered ``malformed``, nothing short is
    delivered, and the next good frame arrives on a live thread.
    """

    @pytest.mark.parametrize("total_length", [25, 10])
    def test_dropped_as_malformed(self, backend, specialize, total_length,
                                  monkeypatch):
        threads = record_spawns(monkeypatch)
        flow0 = [good_frame(FLOWS * n) for n in range(5)]
        lying = bytearray(flow0[3])
        _put16(lying, IP_TOTAL_LENGTH, total_length)

        def scenario(scout):
            kernel = scout.kernel
            scout.add_peer(REMOTE_IP, REMOTE_MAC)
            path = kernel.start_udp_sink(SINK_PORT, (str(REMOTE_IP), 7000),
                                         batch=8, inq_len=32,
                                         specialize=specialize)
            kernel.rx_burst(flow0[:3])
            yield
            kernel.rx_burst([bytes(lying)])
            yield
            kernel.rx_burst(flow0[4:])
            yield
            assert path.stats.drop_reasons == {"malformed": 1}
            assert kernel.drop_ledger() == {"malformed": 1}
            assert [msg.to_bytes() for msg in kernel.test.received] == \
                [frame[42:] for frame in flow0[:3] + flow0[4:]]

        _drive(backend, scenario)
        assert threads and all(t.state != DONE for t in threads)
