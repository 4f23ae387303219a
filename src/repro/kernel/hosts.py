"""Remote host agents: the paper's load generators.

These stand in for the other machines on the testbed Ethernet:

* :class:`VideoSourceHost` — the MPEG sender.  Streams a pre-encoded clip
  under MFLOW flow control: it may send sequence numbers below the last
  advertised maximum, measures RTT from its echoed timestamps, and can
  optionally pace itself to the clip's playback rate (a video server
  reading from disk) or push at full speed (the Table 1 max-rate runs).
* :class:`PingFlooderHost` — ``ping -f``: sends an ICMP echo request
  whenever a reply arrives, and at least one every fallback interval
  (classic flood ping's "one hundred times per second" floor).  This is
  why Table 2 behaves the way it does: a kernel that answers floods fast
  gets flooded fast.
* :class:`CommandClientHost` — sends SHELL command packets and records
  the replies.
* :class:`TcpSinkHost` — a TCP receiver: reassembles the byte stream in
  order (buffering out-of-order segments) and sends cumulative ACKs, so
  the local TCP path's retransmission machinery has a live peer to
  converse with under injected faults.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import params
from ..mpeg.clips import EncodedClip
from ..net.addresses import EthAddr, IpAddr
from ..net.headers import MflowHeader
from ..net.packets import (
    build_icmp_echo,
    build_mflow_frame,
    build_tcp_frame,
    build_udp_frame,
    parse_frame,
)
from ..net.segment import HostAgent
from ..sim.engine import Engine


class VideoSourceHost(HostAgent):
    """Streams one encoded clip to the machine under test."""

    def __init__(self, engine: Engine, mac, ip, clip: EncodedClip,
                 dst_mac, dst_ip, dst_port: int, src_port: int = 7200,
                 initial_window: int = 8,
                 pace_fps: Optional[float] = None,
                 lead_frames: int = 4,
                 inter_packet_us: float = 20.0,
                 probe_timeout_us: Optional[float] = None,
                 service_us: float = params.REMOTE_HOST_SERVICE_US):
        super().__init__(engine, EthAddr(mac), IpAddr(ip),
                         service_us=service_us)
        self.clip = clip
        self.dst_mac = EthAddr(dst_mac)
        self.dst_ip = IpAddr(dst_ip)
        self.dst_port = dst_port
        self.src_port = src_port
        self.pace_fps = pace_fps
        self.lead_frames = lead_frames
        self.inter_packet_us = inter_packet_us
        # Flatten the clip into (frame_no, first_of_frame, payload) tuples;
        # the MFLOW sequence number is the flattened index.
        self.packets: List[Tuple[int, bool, bytes]] = []
        for frame in clip.frames:
            for index, payload in enumerate(frame.packets):
                self.packets.append((frame.number, index == 0, payload))
        self.next_seq = 0
        self.max_allowed = initial_window  # may send seq < max_allowed
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._pump_scheduled = False
        self.probe_timeout_us = probe_timeout_us
        self._probe_event = None
        # statistics
        self.packets_sent = 0
        self.window_stalls = 0
        self.window_probes = 0
        self.rtt_samples: List[float] = []

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        self.started_at = self.engine.now
        self._schedule_pump(0.0)

    @property
    def done(self) -> bool:
        return self.next_seq >= len(self.packets)

    def avg_rtt_us(self) -> Optional[float]:
        if not self.rtt_samples:
            return None
        return sum(self.rtt_samples) / len(self.rtt_samples)

    # -- sending -------------------------------------------------------------------

    def _schedule_pump(self, delay: float) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        self.engine.schedule(delay, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self.done:
            if self.finished_at is None:
                self.finished_at = self.engine.now
            return
        if self.next_seq >= self.max_allowed:
            self.window_stalls += 1
            self._arm_probe()
            return  # resumed by the next window advertisement (or a probe)
        frame_no, first, payload = self.packets[self.next_seq]
        eligible = self._eligible_time(frame_no)
        if eligible > self.engine.now:
            self._schedule_pump(eligible - self.engine.now)
            return
        self._emit_next_packet()
        if not self.done:
            self._schedule_pump(self.inter_packet_us)

    def _emit_next_packet(self) -> None:
        frame_no, first, payload = self.packets[self.next_seq]
        flags = MflowHeader.FLAG_FRAME_START if first else 0
        frame = build_mflow_frame(self.mac, self.dst_mac, self.ip,
                                  self.dst_ip, self.src_port, self.dst_port,
                                  self.next_seq, self.engine.now, payload,
                                  flags=flags)
        self.send(frame)
        self.next_seq += 1
        self.packets_sent += 1
        if self.done:
            self.finished_at = self.engine.now

    # -- window probe (the persist-timer analogue) --------------------------------

    def _arm_probe(self) -> None:
        """While the window stays closed, periodically force one packet
        through anyway.  Advertisements ride on delivered data, so a
        closed window with all advertisements lost — or the receiving
        path torn down and rebuilt by its watchdog — would otherwise
        deadlock: no data means no advertisement means no data."""
        if self._probe_event is None and self.probe_timeout_us:
            self._probe_event = self.engine.schedule(self.probe_timeout_us,
                                                     self._probe)

    def _probe(self) -> None:
        self._probe_event = None
        if self.done:
            return
        if self.next_seq < self.max_allowed:
            return  # window reopened; the normal pump owns sending again
        self.window_probes += 1
        self._emit_next_packet()
        if not self.done:
            self._arm_probe()

    def _eligible_time(self, frame_no: int) -> float:
        """Pacing: frame k's packets may go out ``lead_frames`` early."""
        if self.pace_fps is None or self.started_at is None:
            return 0.0
        due_index = max(0, frame_no - self.lead_frames)
        return self.started_at + due_index * 1_000_000.0 / self.pace_fps

    # -- window advertisements ------------------------------------------------------

    def handle_frame(self, frame: bytes) -> None:
        parsed = parse_frame(frame, expect_mflow=True)
        if parsed.mflow is None or not parsed.mflow.is_window_adv:
            return
        if parsed.mflow.seq > self.max_allowed:
            self.max_allowed = parsed.mflow.seq
        rtt = self.engine.now - parsed.mflow.timestamp_us
        if 0 <= rtt < 10_000_000:
            self.rtt_samples.append(rtt)
        self._schedule_pump(0.0)


class PingFlooderHost(HostAgent):
    """``ping -f``: self-clocking ICMP echo flood."""

    def __init__(self, engine: Engine, mac, ip, dst_mac, dst_ip,
                 ident: int = 99, payload_bytes: int = 56,
                 fallback_us: float = params.PING_FLOOD_FALLBACK_US,
                 self_clocked: bool = True,
                 service_us: float = 5.0):
        super().__init__(engine, EthAddr(mac), IpAddr(ip),
                         service_us=service_us)
        self.dst_mac = EthAddr(dst_mac)
        self.dst_ip = IpAddr(dst_ip)
        self.ident = ident
        self.payload = bytes(payload_bytes)
        self.fallback_us = fallback_us
        #: True = classic ping -f (new request on every reply); False = a
        #: fixed-rate blaster paced purely by ``fallback_us``, used by the
        #: ablation sweeps that need a controlled offered load.
        self.self_clocked = self_clocked
        self.running = False
        self.seq = 0
        self.requests_sent = 0
        self.replies_received = 0
        self.last_send_at = -1e18

    def start(self) -> None:
        self.running = True
        self._send()
        self.engine.schedule(self.fallback_us, self._tick)

    def stop(self) -> None:
        self.running = False

    def _send(self) -> None:
        if not self.running:
            return
        self.seq += 1
        frame = build_icmp_echo(self.mac, self.dst_mac, self.ip, self.dst_ip,
                                self.ident, self.seq & 0xFFFF,
                                payload=self.payload)
        self.send(frame)
        self.requests_sent += 1
        self.last_send_at = self.engine.now

    def _tick(self) -> None:
        if not self.running:
            return
        if not self.self_clocked \
                or self.engine.now - self.last_send_at >= self.fallback_us - 1e-9:
            self._send()
        self.engine.schedule(self.fallback_us, self._tick)

    def handle_frame(self, frame: bytes) -> None:
        if not self.running:
            return
        parsed = parse_frame(frame)
        if parsed.icmp is not None and parsed.icmp.icmp_type == 0:
            self.replies_received += 1
            if self.self_clocked:
                self._send()  # flood: next request rides on each reply


class TcpSinkHost(HostAgent):
    """A remote TCP receiver that ACKs everything it can.

    Listens on one port, delivers payload bytes in sequence order to
    :attr:`received`, buffers out-of-order segments, and answers every
    data segment with a cumulative ACK — the minimal well-behaved peer the
    local TCP sender's retransmission loop needs to recover from loss.
    """

    def __init__(self, engine: Engine, mac, ip, dst_mac, dst_ip,
                 port: int, src_port: int = 80,
                 service_us: float = params.REMOTE_HOST_SERVICE_US):
        super().__init__(engine, EthAddr(mac), IpAddr(ip),
                         service_us=service_us)
        self.dst_mac = EthAddr(dst_mac)
        self.dst_ip = IpAddr(dst_ip)
        self.port = port          # the local port the sender addresses
        self.src_port = src_port  # port our ACKs claim to come from
        self.recv_next = 0
        self.received = bytearray()
        self._pending: Dict[int, bytes] = {}  # seq -> out-of-order payload
        # statistics
        self.segments_received = 0
        self.dup_segments = 0
        self.ooo_segments = 0
        self.checksum_failures = 0
        self.acks_sent = 0

    def handle_frame(self, frame: bytes) -> None:
        parsed = parse_frame(frame)
        if parsed.tcp is None or parsed.tcp.dport != self.port:
            return
        if not parsed.tcp.verify(parsed.payload):
            # Corrupted in flight: drop without ACKing; the sender's
            # retransmission timer resupplies the segment intact.
            self.checksum_failures += 1
            return
        self.segments_received += 1
        payload = parsed.payload
        if len(payload) == 0:
            return  # bare ACK from the sender's receive side
        seq = parsed.tcp.seq
        if seq < self.recv_next:
            self.dup_segments += 1
        elif seq == self.recv_next:
            self.received += payload
            self.recv_next = seq + len(payload)
            while self.recv_next in self._pending:
                buffered = self._pending.pop(self.recv_next)
                self.received += buffered
                self.recv_next += len(buffered)
        else:
            self.ooo_segments += 1
            self._pending.setdefault(seq, payload)
        self._ack(parsed.tcp.sport)

    def _ack(self, sender_port: int) -> None:
        ack = build_tcp_frame(self.mac, self.dst_mac, self.ip, self.dst_ip,
                              self.src_port, sender_port,
                              seq=0, ack=self.recv_next)
        self.acks_sent += 1
        self.send(ack)


class CommandClientHost(HostAgent):
    """Sends SHELL commands and records the textual replies."""

    def __init__(self, engine: Engine, mac, ip, dst_mac, dst_ip,
                 dst_port: int = 5000, src_port: int = 5999,
                 service_us: float = params.REMOTE_HOST_SERVICE_US):
        super().__init__(engine, EthAddr(mac), IpAddr(ip),
                         service_us=service_us)
        self.dst_mac = EthAddr(dst_mac)
        self.dst_ip = IpAddr(dst_ip)
        self.dst_port = dst_port
        self.src_port = src_port
        self.replies: List[str] = []

    def send_command(self, text: str) -> None:
        frame = build_udp_frame(self.mac, self.dst_mac, self.ip, self.dst_ip,
                                self.src_port, self.dst_port,
                                text.encode("utf-8"))
        self.send(frame)

    def handle_frame(self, frame: bytes) -> None:
        parsed = parse_frame(frame)
        if parsed.udp is not None and parsed.udp.dport == self.src_port:
            self.replies.append(parsed.payload.decode("utf-8", "replace"))
