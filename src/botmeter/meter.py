"""Bidirectional flow assembly from decoded packets.

A flow is the set of packets sharing a canonical bidirectional 5-tuple,
bounded by idle timeout or TCP termination.  The forward direction is the
direction of the flow's first observed packet.  Timeout checks are lazy:
a live flow is only aged out when another packet of the same key arrives
(or at end of capture, when every residual flow is flushed).

Packets (``PacketRecord``) and keys (``FlowKey``) are NamedTuples; the
table keys its live flows by the plain canonical tuple, which equals and
hashes like the ``FlowKey`` of any packet of the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ValidationError
from .pcap import (ACK, CWR, ECE, FIN, PSH, RST, SYN, URG, CaptureStats,
                   PacketRecord, read_capture)
from .stats import RunningStats

DEFAULT_FLOW_TIMEOUT_US = 120_000_000
DEFAULT_ACTIVITY_TIMEOUT_US = 5_000_000

# RFC1918 v4 ranges plus the v6 unique-local block: the default "inside".
DEFAULT_HOME_PREFIXES = (
    "10.0.0.0/8",
    "172.16.0.0/12",
    "192.168.0.0/16",
    "fc00::/7",
)


@dataclass(frozen=True)
class MeterConfig:
    """Flow metering parameters.

    Packet length basis is fixed to transport payload bytes; header bytes
    only feed the Fwd/Bwd Header Length features.
    """

    flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US
    activity_timeout_us: int = DEFAULT_ACTIVITY_TIMEOUT_US
    home_prefixes: tuple[str, ...] = DEFAULT_HOME_PREFIXES

    def __post_init__(self):
        if not self.flow_timeout_us > self.activity_timeout_us > 0:
            raise ValidationError(
                "flow_timeout_us must exceed activity_timeout_us, both > 0 "
                f"(got {self.flow_timeout_us}, {self.activity_timeout_us})")


class FlowKey(NamedTuple):
    """Canonical bidirectional 5-tuple: endpoint (a) sorts before (b)."""

    ip_a: bytes
    port_a: int
    ip_b: bytes
    port_b: int
    protocol: int

    @classmethod
    def of(cls, pkt: PacketRecord) -> "FlowKey":
        a = (pkt.src_ip, pkt.src_port)
        b = (pkt.dst_ip, pkt.dst_port)
        if a > b:
            a, b = b, a
        return cls(a[0], a[1], b[0], b[1], pkt.protocol)


# Flag-count slots, in FIN SYN RST PSH ACK URG CWR ECE order, and for each
# TCP flag byte the slots it counts toward.
_FLAG_BITS = (FIN, SYN, RST, PSH, ACK, URG, CWR, ECE)
_FLAG_SLOTS = tuple(tuple(slot for slot, bit in enumerate(_FLAG_BITS) if flags & bit)
                    for flags in range(256))


class FlowAccumulator:
    """In-progress state for one flow; updated packet by packet.

    ``key`` is the flow's canonical 5-tuple (equal to ``FlowKey.of(first)``).
    ``flag_counts`` holds the TCP flag counts in FIN SYN RST PSH ACK URG CWR
    ECE order.
    """

    __slots__ = (
        "key", "fwd_ip", "fwd_port", "dst_ip", "dst_port", "protocol",
        "first_ts_us", "last_ts_us", "fwd_len", "bwd_len", "all_len",
        "flow_iat", "fwd_iat", "bwd_iat", "fwd_last_ts", "bwd_last_ts",
        "fwd_header_bytes", "bwd_header_bytes", "flag_counts",
        "fwd_psh", "bwd_psh", "fwd_urg", "bwd_urg",
        "init_fwd_win", "init_bwd_win", "active", "idle",
        "activity_start_ts", "activity_last_ts",
        "fwd_fin", "bwd_fin", "rst_seen",
    )

    def __init__(self, first: PacketRecord, key: tuple):
        self.key = key
        self.fwd_ip = first.src_ip
        self.fwd_port = first.src_port
        self.dst_ip = first.dst_ip
        self.dst_port = first.dst_port
        self.protocol = first.protocol
        self.first_ts_us = first.timestamp_us
        self.last_ts_us = first.timestamp_us
        self.fwd_len = RunningStats()
        self.bwd_len = RunningStats()
        self.all_len = RunningStats()
        self.flow_iat = RunningStats()
        self.fwd_iat = RunningStats()
        self.bwd_iat = RunningStats()
        self.fwd_last_ts: int | None = None
        self.bwd_last_ts: int | None = None
        self.fwd_header_bytes = 0
        self.bwd_header_bytes = 0
        self.flag_counts = [0] * 8
        self.fwd_psh = 0
        self.bwd_psh = 0
        self.fwd_urg = 0
        self.bwd_urg = 0
        self.init_fwd_win = -1
        self.init_bwd_win = -1
        self.active = RunningStats()
        self.idle = RunningStats()
        self.activity_start_ts = first.timestamp_us
        self.activity_last_ts = first.timestamp_us
        self.fwd_fin = 0
        self.bwd_fin = 0
        self.rst_seen = False
        self._ingest(first, True)

    @property
    def total_packets(self) -> int:
        return self.all_len.count

    def add(self, pkt: PacketRecord, activity_timeout_us: int) -> None:
        """Attribute one more packet to this flow."""
        ts = pkt.timestamp_us
        gap = ts - self.activity_last_ts
        if gap > activity_timeout_us:
            self.active.add(self.activity_last_ts - self.activity_start_ts)
            self.idle.add(gap)
            self.activity_start_ts = ts
        self.activity_last_ts = ts
        self.flow_iat.add(ts - self.last_ts_us)
        self.last_ts_us = ts
        self._ingest(pkt, pkt.src_port == self.fwd_port and pkt.src_ip == self.fwd_ip)

    def _ingest(self, pkt: PacketRecord, forward: bool) -> None:
        ts, _, _, _, _, _, length, header_len, flags, window = pkt
        self.all_len.add(length)
        if forward:
            self.fwd_len.add(length)
            self.fwd_header_bytes += header_len
            if self.fwd_last_ts is not None:
                self.fwd_iat.add(ts - self.fwd_last_ts)
            self.fwd_last_ts = ts
            if window is not None and self.init_fwd_win < 0:
                self.init_fwd_win = window
        else:
            self.bwd_len.add(length)
            self.bwd_header_bytes += header_len
            if self.bwd_last_ts is not None:
                self.bwd_iat.add(ts - self.bwd_last_ts)
            self.bwd_last_ts = ts
            if window is not None and self.init_bwd_win < 0:
                self.init_bwd_win = window

        if flags:
            counts = self.flag_counts
            for slot in _FLAG_SLOTS[flags]:
                counts[slot] += 1
            if flags & PSH:
                if forward:
                    self.fwd_psh += 1
                else:
                    self.bwd_psh += 1
            if flags & URG:
                if forward:
                    self.fwd_urg += 1
                else:
                    self.bwd_urg += 1
            if flags & FIN:
                if forward:
                    self.fwd_fin += 1
                else:
                    self.bwd_fin += 1
            if flags & RST:
                self.rst_seen = True

    def close_activity(self) -> None:
        """Record the trailing active period; call exactly once, at finalize."""
        self.active.add(self.activity_last_ts - self.activity_start_ts)


class FlowTable:
    """Single-writer table of live flows keyed by canonical 5-tuple."""

    def __init__(self, config: MeterConfig | None = None):
        self.config = config or MeterConfig()
        self._live: dict[tuple, FlowAccumulator] = {}

    def offer_packet(self, pkt: PacketRecord) -> list[FlowAccumulator]:
        """Feed one packet; return any flows this packet finalized.

        A live flow idle for at least the flow timeout (relative to the
        arriving packet) is emitted and replaced by a fresh flow whose
        forward direction is set by the packet.  A TCP flow ends on any RST,
        or on the first ACK after FINs were seen in both directions.
        """
        ts, src_ip, dst_ip, src_port, dst_port, protocol, _, _, flags, _ = pkt
        if src_ip < dst_ip or (src_ip == dst_ip and src_port <= dst_port):
            key = (src_ip, src_port, dst_ip, dst_port, protocol)
        else:
            key = (dst_ip, dst_port, src_ip, src_port, protocol)
        finalized: list[FlowAccumulator] = []
        flow = self._live.get(key)
        if flow is not None and ts - flow.last_ts_us >= self.config.flow_timeout_us:
            finalized.append(self._finalize(key))
            flow = None
        if flow is None:
            self._live[key] = FlowAccumulator(pkt, key)
            if flags & RST:
                finalized.append(self._finalize(key))
            return finalized
        ends_by_ack = flow.fwd_fin > 0 and flow.bwd_fin > 0 and flags & ACK
        flow.add(pkt, self.config.activity_timeout_us)
        if flags & RST or ends_by_ack:
            finalized.append(self._finalize(key))
        return finalized

    def flush(self) -> list[FlowAccumulator]:
        """Finalize all residual flows in flow-start order."""
        return [self._finalize(key) for key in list(self._live)]

    def _finalize(self, key: tuple) -> FlowAccumulator:
        flow = self._live.pop(key)
        flow.close_activity()
        return flow


def ingest_capture_detailed(path: str, config: MeterConfig | None = None):
    """Meter a capture file into finalized flow feature vectors; returns
    them with the capture's CaptureStats counters."""
    from .features import compute_features

    config = config or MeterConfig()
    table = FlowTable(config)
    stats = CaptureStats()
    out = []
    for pkt in read_capture(path, stats):
        for flow in table.offer_packet(pkt):
            out.append(compute_features(flow, config))
    for flow in table.flush():
        out.append(compute_features(flow, config))
    stats.flows = len(out)
    return out, stats
