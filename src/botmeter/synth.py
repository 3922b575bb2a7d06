"""Synthetic capture generation from flow blueprints.

Blueprints give per-packet direction, payload length, gap and TCP flags for
a 5-tuple; the generator renders them into a classic little-endian
microsecond pcap (Ethernet link layer).  Output is byte-deterministic for a
fixed seed, which makes desk-scale round-trip and oracle testing possible
without any real dataset.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from .errors import ValidationError, json_number
from .pcap import (ACK, CWR, ECE, FIN, PROTO_ICMP, PROTO_ICMPV6, PROTO_TCP,
                   PROTO_UDP, PSH, RST, SYN, URG, ip_from_str)

_FLAG_BITS = dict(zip("FSRPAUEC", (FIN, SYN, RST, PSH, ACK, URG, ECE, CWR)))

_SRC_MAC = bytes.fromhex("020000000001")
_DST_MAC = bytes.fromhex("020000000002")

# Every packet time fits a pcap record's 32-bit seconds field; every
# payload fits a TCP segment in an IPv4 packet (65535 - 20 - 20 bytes).
_TS_LIMIT_US = (1 << 32) * 1_000_000
_MAX_PAYLOAD = 65495


def _check_range(name: str, value, lo: int, hi: int) -> None:
    if not lo <= json_number(name, value, integer=True) <= hi:
        raise ValidationError(
            f"{name} must be an integer within {lo}..{hi}, got {value!r}")


@dataclass(frozen=True)
class PacketBlueprint:
    """One packet of a flow blueprint.

    ``gap_us`` is the delay since the previous packet of the same blueprint
    (for the first packet: since the blueprint's start).  ``flags`` is a
    string of TCP flag letters out of FSRPAUEC, ignored for non-TCP.
    """

    direction: str = "fwd"  # "fwd" or "bwd"
    payload_len: int = 0
    gap_us: int = 0
    flags: str = ""
    window: int = 8192

    def __post_init__(self):
        if self.direction not in ("fwd", "bwd"):
            raise ValidationError(
                f"direction must be fwd or bwd, got {self.direction!r}")
        _check_range("payload_len", self.payload_len, 0, _MAX_PAYLOAD)
        _check_range("gap_us", self.gap_us, 0, _TS_LIMIT_US - 1)
        _check_range("window", self.window, 0, 0xFFFF)
        if not isinstance(self.flags, str):
            raise ValidationError(f"flags must be a string, got {self.flags!r}")
        self.flag_bits()

    def flag_bits(self) -> int:
        bits = 0
        for ch in self.flags:
            try:
                bits |= _FLAG_BITS[ch]
            except KeyError:
                raise ValidationError(
                    f"flags holds an unknown TCP flag letter {ch!r}") from None
        return bits


@dataclass(frozen=True)
class FlowBlueprint:
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    packets: tuple[PacketBlueprint, ...]
    start_us: int = 0
    label: str | None = None

    def __post_init__(self):
        if not self.packets:
            raise ValidationError("flow blueprint must contain at least one packet")
        _check_range("src_port", self.src_port, 0, 0xFFFF)
        _check_range("dst_port", self.dst_port, 0, 0xFFFF)
        _check_range("start_us", self.start_us, 0, _TS_LIMIT_US - 1)
        if self.start_us + sum(p.gap_us for p in self.packets) >= _TS_LIMIT_US:
            raise ValidationError(f"packet times must stay below {_TS_LIMIT_US} us")
        for name in ("src_ip", "dst_ip"):
            try:
                ip_from_str(getattr(self, name))
            except (OSError, TypeError, ValueError):
                raise ValidationError(
                    f"{name} is not an IP address: {getattr(self, name)!r}") from None
        src, dst = ip_from_str(self.src_ip), ip_from_str(self.dst_ip)
        if len(src) != len(dst):
            raise ValidationError("blueprint endpoints mix IPv4 and IPv6")
        json_number("protocol", self.protocol, integer=True)
        if self.protocol in (PROTO_ICMP, PROTO_ICMPV6):
            if (self.protocol == PROTO_ICMP) != (len(src) == 4):
                raise ValidationError("ICMP protocol number does not match IP version")
        elif self.protocol not in (PROTO_TCP, PROTO_UDP):
            raise ValidationError(f"unsupported blueprint protocol {self.protocol!r}")
        # Rule-file cells are stripped when read: a label must read back as written.
        if self.label is not None and not (
                isinstance(self.label, str) and self.label
                and self.label == self.label.strip()):
            raise ValidationError(
                "label must be a non-empty string without surrounding "
                f"whitespace, got {self.label!r}")


def generate_synthetic_capture(blueprints, seed: int) -> bytes:
    """Render blueprints into classic pcap bytes.

    Packets are emitted in timestamp order (ties resolved by blueprint
    order, then packet order), so parsing the output yields exactly the
    blueprint packets.
    """
    blueprints = list(blueprints)
    if not blueprints:
        raise ValidationError("need at least one flow blueprint")
    rng = random.Random(seed)
    scheduled = []
    for b_idx, bp in enumerate(blueprints):
        ts = bp.start_us
        for p_idx, pkt in enumerate(bp.packets):
            ts += pkt.gap_us
            frame = _render_frame(bp, pkt, rng)
            scheduled.append((ts, b_idx, p_idx, frame))
    scheduled.sort(key=lambda item: item[:3])

    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for ts, _, _, frame in scheduled:
        out.append(struct.pack("<IIII", ts // 1_000_000, ts % 1_000_000,
                               len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)


def write_synthetic_capture(blueprints, seed: int, path: str) -> None:
    data = generate_synthetic_capture(blueprints, seed)
    with open(path, "wb") as fh:
        fh.write(data)


def _render_frame(bp: FlowBlueprint, pkt: PacketBlueprint, rng: random.Random) -> bytes:
    if pkt.direction == "fwd":
        src, dst = ip_from_str(bp.src_ip), ip_from_str(bp.dst_ip)
        sport, dport = bp.src_port, bp.dst_port
    else:
        src, dst = ip_from_str(bp.dst_ip), ip_from_str(bp.src_ip)
        sport, dport = bp.dst_port, bp.src_port

    payload = rng.randbytes(pkt.payload_len)
    if bp.protocol == PROTO_TCP:
        transport = struct.pack("!HHIIBBHHH", sport, dport, 0, 0, 5 << 4,
                                pkt.flag_bits(), pkt.window, 0, 0) + payload
    elif bp.protocol == PROTO_UDP:
        transport = struct.pack("!HHHH", sport, dport, 8 + len(payload), 0) + payload
    else:
        transport = struct.pack("!BBHI", 8, 0, 0, 0) + payload

    if len(src) == 4:
        total = 20 + len(transport)
        ip_hdr = struct.pack("!BBHHHBBH4s4s", 0x45, 0, total, 0, 0, 64,
                             bp.protocol, 0, src, dst)
        ethertype = 0x0800
    else:
        ip_hdr = struct.pack("!IHBB16s16s", 6 << 28, len(transport), bp.protocol,
                             64, src, dst)
        ethertype = 0x86DD
    return _DST_MAC + _SRC_MAC + struct.pack("!H", ethertype) + ip_hdr + transport
