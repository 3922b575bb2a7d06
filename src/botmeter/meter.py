"""Bidirectional flow assembly from decoded packets.

A flow is the set of packets sharing a canonical bidirectional 5-tuple,
bounded by idle timeout or TCP termination.  The forward direction is the
direction of the flow's first observed packet.  Timeout checks are lazy:
a live flow is only aged out when another packet of the same key arrives
(or at end of capture, when every residual flow is flushed).

The table keys its live flows by the canonical tuple
(ip_a, port_a, ip_b, port_b, protocol), in which endpoint a sorts before b.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from .errors import ValidationError
from .pcap import ACK, CWR, ECE, FIN, PSH, RST, SYN, URG, CaptureStats, read_capture

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
    only feed the Fwd/Bwd Header Length features.  ``home_networks`` holds
    the parsed ``home_prefixes``: packed address length (4 or 16) -> the
    (network, netmask) integers of that family's prefixes, in order.  It is
    derived, so it takes no part in equality, hashing or ``repr``.
    """

    flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US
    activity_timeout_us: int = DEFAULT_ACTIVITY_TIMEOUT_US
    home_prefixes: tuple[str, ...] = DEFAULT_HOME_PREFIXES
    home_networks: dict[int, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.flow_timeout_us > self.activity_timeout_us > 0:
            raise ValidationError(
                "flow_timeout_us must exceed activity_timeout_us, both > 0 "
                f"(got {self.flow_timeout_us}, {self.activity_timeout_us})")
        if isinstance(self.home_prefixes, str):
            raise ValidationError("home_prefixes must be a sequence of prefixes, "
                                  f"not the string {self.home_prefixes!r}")
        object.__setattr__(self, "home_prefixes", tuple(self.home_prefixes))
        nets: dict[int, list] = {4: [], 16: []}
        for prefix in self.home_prefixes:
            try:
                net = ipaddress.ip_network(prefix)
            except ValueError as exc:
                raise ValidationError(f"bad home prefix {prefix!r}: {exc}") from None
            nets[4 if net.version == 4 else 16].append(
                (int(net.network_address), int(net.netmask)))
        object.__setattr__(self, "home_networks",
                           {size: tuple(v) for size, v in nets.items()})


DEFAULT_CONFIG = MeterConfig()  # for callers that pass none; it is frozen


# Flag-count slots, in FIN SYN RST PSH ACK URG CWR ECE order; for each TCP
# flag byte, the slots it counts toward and its 0/1 count per slot.
_FLAG_BITS = (FIN, SYN, RST, PSH, ACK, URG, CWR, ECE)
_FLAG_SLOTS = tuple(tuple(slot for slot, bit in enumerate(_FLAG_BITS) if flags & bit)
                    for flags in range(256))
_FLAG_ROWS = tuple(tuple(1 if flags & bit else 0 for bit in _FLAG_BITS)
                   for flags in range(256))

_INF = float("inf")


class FlowAccumulator:
    """In-progress state for one flow; ``FlowTable.offer_packet`` adds later packets.

    ``flag_counts`` holds the TCP flag counts in FIN SYN RST PSH ACK URG CWR
    ECE order.  Every sample is an integer, so statistics are exact integer
    moments: per direction the packet count and the sum, sum of squares and
    extremes of the lengths; for the flow and per direction the sum of
    squares and extremes (±inf while empty) of the inter-arrival times,
    whose counts and sums ``compute_features`` derives from the packet
    counts and timestamps.  ``periods`` holds one (active, idle) pair per
    gap above the activity timeout, and is None until the first such gap;
    the last active period runs from ``activity_start_ts`` to
    ``last_ts_us``.
    """

    __slots__ = (
        "fwd_ip", "fwd_port", "dst_ip", "dst_port", "protocol",
        "first_ts_us", "last_ts_us", "iat_sq", "iat_lo", "iat_hi",
        "fwd_n", "fwd_sum", "fwd_sq", "fwd_lo", "fwd_hi",
        "fwd_iat_sq", "fwd_iat_lo", "fwd_iat_hi", "fwd_last_ts",
        "bwd_n", "bwd_sum", "bwd_sq", "bwd_lo", "bwd_hi",
        "bwd_iat_sq", "bwd_iat_lo", "bwd_iat_hi", "bwd_first_ts", "bwd_last_ts",
        "fwd_header_bytes", "bwd_header_bytes", "flag_counts",
        "fwd_psh", "bwd_psh", "fwd_urg", "bwd_urg", "fwd_fin", "bwd_fin",
        "init_fwd_win", "init_bwd_win", "activity_start_ts", "periods",
    )

    def __init__(self, first: tuple):
        ts, src_ip, dst_ip, src_port, dst_port, protocol, length, header_len, flags, window = first
        self.fwd_ip = src_ip
        self.fwd_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.protocol = protocol
        self.first_ts_us = self.last_ts_us = self.fwd_last_ts = self.activity_start_ts = ts
        self.periods: list[tuple[int, int]] | None = None
        self.fwd_n = 1
        self.fwd_sum = self.fwd_lo = self.fwd_hi = length
        self.fwd_sq = length * length
        self.fwd_header_bytes = header_len
        self.bwd_n = self.bwd_sum = self.bwd_sq = self.bwd_header_bytes = 0
        self.bwd_first_ts = self.bwd_last_ts = 0
        self.iat_sq = self.fwd_iat_sq = self.bwd_iat_sq = 0
        self.bwd_lo = self.iat_lo = self.fwd_iat_lo = self.bwd_iat_lo = _INF
        self.bwd_hi = self.iat_hi = self.fwd_iat_hi = self.bwd_iat_hi = -_INF
        self.init_fwd_win = -1 if window is None else window
        self.init_bwd_win = -1
        self.flag_counts = list(_FLAG_ROWS[flags])
        self.fwd_psh = 1 if flags & PSH else 0
        self.fwd_urg = 1 if flags & URG else 0
        self.fwd_fin = 1 if flags & FIN else 0
        self.bwd_psh = self.bwd_urg = self.bwd_fin = 0


class FlowTable:
    """Single-writer table of live flows keyed by canonical 5-tuple.

    A packet is any 10-tuple in ``PacketRecord`` field order.  A one-packet
    flow is held as its packet, which a second packet of its key replaces
    in place with a ``FlowAccumulator``."""

    def __init__(self, config: MeterConfig | None = None):
        self.config = config or DEFAULT_CONFIG
        self._live: dict[tuple, FlowAccumulator | tuple] = {}
        self._flow_timeout_us = self.config.flow_timeout_us
        self._activity_timeout_us = self.config.activity_timeout_us

    def offer_packet(self, pkt: tuple) -> list[FlowAccumulator | tuple]:
        """Feed one packet; return any flows it finalized, a one-packet flow
        as its packet.

        A live flow idle for at least the flow timeout (relative to the
        arriving packet) is emitted and replaced by a fresh flow whose
        forward direction is set by the packet.  A TCP flow ends on any RST,
        or on the first ACK after FINs were seen in both directions.
        """
        ts, src_ip, dst_ip, src_port, dst_port, protocol, length, header_len, flags, window = pkt
        if src_ip < dst_ip or (src_ip == dst_ip and src_port <= dst_port):
            key = (src_ip, src_port, dst_ip, dst_port, protocol)
        else:
            key = (dst_ip, dst_port, src_ip, src_port, protocol)
        finalized: list[FlowAccumulator | tuple] = []
        flow = self._live.get(key)
        if flow is not None:
            held = flow.__class__ is not FlowAccumulator
            if ts - (flow[0] if held else flow.last_ts_us) >= self._flow_timeout_us:
                finalized.append(self._live.pop(key))
                flow = None
            elif held:
                flow = self._live[key] = FlowAccumulator(flow)
        if flow is None:
            if flags & RST:
                finalized.append(pkt)
            else:
                self._live[key] = pkt
            return finalized
        ends = flags & RST or (flags & ACK and flow.fwd_fin and flow.bwd_fin)
        iat = ts - flow.last_ts_us
        if iat > self._activity_timeout_us:
            period = (flow.last_ts_us - flow.activity_start_ts, iat)
            if flow.periods is None:
                flow.periods = [period]
            else:
                flow.periods.append(period)
            flow.activity_start_ts = ts
        flow.last_ts_us = ts
        flow.iat_sq += iat * iat
        if iat < flow.iat_lo:
            flow.iat_lo = iat
        if iat > flow.iat_hi:
            flow.iat_hi = iat
        if src_port == flow.fwd_port and src_ip == flow.fwd_ip:
            iat = ts - flow.fwd_last_ts
            flow.fwd_last_ts = ts
            flow.fwd_iat_sq += iat * iat
            if iat < flow.fwd_iat_lo:
                flow.fwd_iat_lo = iat
            if iat > flow.fwd_iat_hi:
                flow.fwd_iat_hi = iat
            flow.fwd_n += 1
            flow.fwd_sum += length
            flow.fwd_sq += length * length
            if length < flow.fwd_lo:
                flow.fwd_lo = length
            if length > flow.fwd_hi:
                flow.fwd_hi = length
            flow.fwd_header_bytes += header_len
            if flow.init_fwd_win < 0 and window is not None:
                flow.init_fwd_win = window
            if flags:
                if flags & PSH:
                    flow.fwd_psh += 1
                if flags & URG:
                    flow.fwd_urg += 1
                if flags & FIN:
                    flow.fwd_fin += 1
        else:
            if flow.bwd_n:
                iat = ts - flow.bwd_last_ts
                flow.bwd_iat_sq += iat * iat
                if iat < flow.bwd_iat_lo:
                    flow.bwd_iat_lo = iat
                if iat > flow.bwd_iat_hi:
                    flow.bwd_iat_hi = iat
            else:
                flow.bwd_first_ts = ts
            flow.bwd_last_ts = ts
            flow.bwd_n += 1
            flow.bwd_sum += length
            flow.bwd_sq += length * length
            if length < flow.bwd_lo:
                flow.bwd_lo = length
            if length > flow.bwd_hi:
                flow.bwd_hi = length
            flow.bwd_header_bytes += header_len
            if flow.init_bwd_win < 0 and window is not None:
                flow.init_bwd_win = window
            if flags:
                if flags & PSH:
                    flow.bwd_psh += 1
                if flags & URG:
                    flow.bwd_urg += 1
                if flags & FIN:
                    flow.bwd_fin += 1
        if flags:
            counts = flow.flag_counts
            for slot in _FLAG_SLOTS[flags]:
                counts[slot] += 1
        if ends:
            finalized.append(self._live.pop(key))
        return finalized

    def flush(self) -> list[FlowAccumulator | tuple]:
        """Finalize all residual flows in flow-start order, as offer_packet."""
        flows = list(self._live.values())
        self._live.clear()
        return flows


def ingest_capture_detailed(path: str, config: MeterConfig | None = None,
                            emit=None):
    """Meter a capture file into finalized flow feature vectors, passing
    each to ``emit`` as it is finalized: flows in finalization order, then
    the flush in flow-start order.  ``emit`` defaults to the returned list's
    ``append``.  Returns that list with the capture's CaptureStats
    counters."""
    from .features import compute_features

    config = config or DEFAULT_CONFIG
    table = FlowTable(config)
    stats = CaptureStats()
    out = []
    if emit is None:
        emit = out.append
    flows = 0
    offer = table.offer_packet
    for pkt in read_capture(path, stats):
        finalized = offer(pkt)
        if finalized:
            for flow in finalized:
                emit(compute_features(flow, config))
            flows += len(finalized)
    # Each residual flow's slot is dropped once its vector exists, so its
    # accumulator is freed before the later flows are emitted.
    residual = table.flush()
    for i in range(len(residual)):
        vector = compute_features(residual[i], config)
        residual[i] = None
        emit(vector)
    flows += len(residual)
    stats.flows = flows
    return out, stats
