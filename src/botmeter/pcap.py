"""Classic pcap reading and packet decoding.

Only the classic libpcap container is handled (both byte orders, micro- and
nanosecond timestamp variants); pcapng is rejected.  Link layers: Ethernet
(with 802.1Q tags), raw IP and the BSD loopback pseudo-header.  Anything the
decoder cannot attribute to a TCP/UDP/ICMP-over-IP packet is skipped and
counted, never fatal.

The capture clock is monotone: a packet stamped earlier than a packet
decoded before it is metered at the latest timestamp seen so far, and
counted in ``CaptureStats.reordered``, so that no duration or
inter-arrival time is negative.

The reader holds one bounded block of the file at a time (``BLOCK_SIZE``, or
one record if a record is larger), carries a partial record over to the
next block and unpacks headers in place with precompiled structs, so its
memory does not grow with the size of the capture.  A record length above
both the capture's snaplen and ``MAX_SNAPLEN`` is corrupt: it counts as one
truncated record and ends the capture unread.  Decoded packets are plain
tuples in ``PacketRecord`` field order; ``PacketRecord._make`` names them.

Almost every captured frame is Ethernet (untagged), IPv4 with a 20-byte
header that is not a fragment, then TCP or UDP.  The reader decodes such a
frame with one unpack of its headers: Ethernet, IPv4 and the first 16
transport bytes for a frame of 50 bytes or more, or the first 8 for a
shorter one, which only UDP fits.  Every other frame, and every frame that
fails one of those checks, goes to the decoder chain (``_LINK_DECODERS``)
from its first byte; the chain is the one definition of a packet and of
each ``CaptureStats`` counter, and the fused path gives the same records.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple

from .errors import PcapFormatError

# TCP flag bits, low to high: FIN SYN RST PSH ACK URG ECE CWR
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20
ECE = 0x40
CWR = 0x80

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_ICMPV6 = 58
PROTO_UDP = 17

LINKTYPE_NULL = 0
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101

_MAGICS = {
    b"\xd4\xc3\xb2\xa1": ("<", 1),       # little endian, microseconds
    b"\xa1\xb2\xc3\xd4": (">", 1),       # big endian, microseconds
    b"\x4d\x3c\xb2\xa1": ("<", 1_000),   # little endian, nanoseconds
    b"\xa1\xb2\x3c\x4d": (">", 1_000),   # big endian, nanoseconds
}


BLOCK_SIZE = 64 * 1024
MAX_SNAPLEN = 262144  # libpcap's largest snapshot length

# Header fields the decoder reads, at fixed offsets from the header start.
_ETHERTYPE = struct.Struct("!H")
_IPV4 = struct.Struct("!BxHxxHxB2x4s4s")   # ver/ihl, total len, frag, proto, src, dst
_IPV6 = struct.Struct("!B3xHBx16s16s")     # version, payload len, next header, src, dst
_TCP = struct.Struct("!HH8xBBH")           # ports, data offset, flags, window
_UDP = struct.Struct("!HHH")               # ports, length
# The common frame in one unpack: Ethernet type, IPv4 (ver/ihl, total len,
# frag, proto, src, dst), the ports, the UDP length (for TCP, part of the
# sequence number) and the TCP data offset, flags and window (for UDP,
# payload).  A frame of 42-49 bytes, too short for TCP, takes the first 42.
_ETH_IPV4 = struct.Struct("!12xHBxH2xHxB2x4s4sHHH6xBBH")
_ETH_IPV4_UDP = struct.Struct("!12xHBxH2xHxB2x4s4sHHH2x")


class PacketRecord(NamedTuple):
    """The fields of one decoded IP packet, the raw input unit of flow
    metering.  The decoder yields plain tuples in this field order.

    IP addresses are kept in packed network byte order; ``payload_len`` is
    transport payload bytes and ``header_len`` is IP header plus transport
    header bytes.  ``tcp_window`` is None for anything that is not TCP.
    """

    timestamp_us: int
    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int
    protocol: int
    payload_len: int
    header_len: int
    tcp_flags: int = 0
    tcp_window: int | None = None


@dataclass
class CaptureStats:
    """Per-capture bookkeeping: what was read, decoded and skipped."""

    records: int = 0
    decoded: int = 0
    skipped_link: int = 0       # non-IP frames (ARP, unknown link payloads...)
    skipped_protocol: int = 0   # IP but not TCP/UDP/ICMP
    skipped_fragment: int = 0   # non-first IP fragments (no reassembly)
    # Records cut short of their headers, and IP/TCP headers that are
    # malformed (IP version nibble, IPv4 IHL < 5, TCP data offset < 5).
    truncated: int = 0
    flows: int = 0
    # Decoded packets stamped earlier than a packet decoded before them,
    # metered at the latest timestamp seen; not part of ``skipped``.
    reordered: int = 0

    @property
    def skipped(self) -> int:
        return (self.skipped_link + self.skipped_protocol
                + self.skipped_fragment + self.truncated)


def ip_to_str(packed: bytes) -> str:
    fam = socket.AF_INET if len(packed) == 4 else socket.AF_INET6
    return socket.inet_ntop(fam, packed)


def ip_from_str(text: str) -> bytes:
    if ":" in text:
        return socket.inet_pton(socket.AF_INET6, text)
    return socket.inet_pton(socket.AF_INET, text)


def read_capture(path: str, stats: CaptureStats | None = None) -> Iterator[tuple]:
    """Yield decoded packets from a classic pcap file, as plain tuples in
    ``PacketRecord`` field order.

    Raises OSError for unreadable files and PcapFormatError for files that do
    not start with a known pcap magic.  Truncated or undecodable records bump
    the corresponding ``stats`` counter and are skipped.  ``stats.records``
    and ``stats.decoded`` are added in one step when the reader is exhausted
    or closed, so the counts are final only then.
    """
    if stats is None:
        stats = CaptureStats()
    with open(path, "rb") as fh:
        yield from _read_stream(fh, stats)


def _fill(fh: BinaryIO, tail: bytes, need: int) -> bytes:
    """Extend ``tail`` by block reads until it holds ``need`` bytes or the file ends."""
    parts = [tail]
    have = len(tail)
    while have < need:
        block = fh.read(BLOCK_SIZE)
        if not block:
            break
        parts.append(block)
        have += len(block)
    return b"".join(parts)


def _read_stream(fh: BinaryIO, stats: CaptureStats) -> Iterator[tuple]:
    buf = _fill(fh, b"", 24)
    if len(buf) < 24:
        raise PcapFormatError("file too short for a pcap global header")
    try:
        endian, ts_divisor = _MAGICS[buf[:4]]
    except KeyError:
        raise PcapFormatError(
            f"not a classic pcap file (magic {buf[:4].hex()})") from None
    snaplen, linktype = struct.unpack_from(endian + "II", buf, 16)
    max_record = max(snaplen, MAX_SNAPLEN)
    decode = _LINK_DECODERS.get(linktype, _decode_unknown_link)
    fused = linktype == LINKTYPE_ETHERNET
    unpack_record = struct.Struct(endian + "IIII").unpack_from
    unpack_frame = _ETH_IPV4.unpack_from
    unpack_udp_frame = _ETH_IPV4_UDP.unpack_from

    pos, end = 24, len(buf)
    clock = 0  # the latest timestamp of a decoded packet
    records = decoded = 0
    try:
        while True:
            if end - pos < 16:
                buf = _fill(fh, buf[pos:], 16)
                pos, end = 0, len(buf)
                if end < 16:
                    if end:
                        records += 1
                        stats.truncated += 1
                    return
            ts_sec, ts_frac, incl_len, _orig_len = unpack_record(buf, pos)
            records += 1
            pos += 16
            if end - pos < incl_len:
                # Records already in the buffer are shorter than a block, so
                # only one still to be read can be over-long.
                if incl_len > max_record:
                    stats.truncated += 1
                    return
                buf = _fill(fh, buf[pos:], incl_len)
                pos, end = 0, len(buf)
                if end < incl_len:
                    stats.truncated += 1
                    return
            stop = pos + incl_len
            ts_us = ts_sec * 1_000_000 + ts_frac // ts_divisor
            pkt = None
            # Fused path for Ethernet/IPv4 (IHL 5, not a fragment)/TCP or UDP;
            # any other frame, or one that fails a check, goes to the chain.
            if fused and incl_len >= 42:
                if incl_len >= 50:
                    (ethertype, ver_ihl, total_len, frag, protocol, src, dst, sport,
                     dport, udp_len, data_offset, flags, window) = unpack_frame(buf, pos)
                else:
                    (ethertype, ver_ihl, total_len, frag, protocol, src, dst,
                     sport, dport, udp_len) = unpack_udp_frame(buf, pos)
                    data_offset = 0  # no TCP header fits: the chain counts it
                if ethertype == 0x0800 and ver_ihl == 0x45 and not frag & 0x3FFF:
                    if protocol == PROTO_TCP:
                        data_offset = (data_offset >> 4) * 4
                        if 20 <= data_offset <= incl_len - 34:
                            payload = total_len - 20 - data_offset
                            pkt = (ts_us, src, dst, sport, dport, PROTO_TCP,
                                   payload if payload > 0 else 0, 20 + data_offset,
                                   flags, window)
                    elif protocol == PROTO_UDP:
                        # min(udp_len, total_len - 20) - 8, without a call.
                        payload = total_len - 20
                        payload = (udp_len if udp_len < payload else payload) - 8
                        pkt = (ts_us, src, dst, sport, dport, PROTO_UDP,
                               payload if payload > 0 else 0, 28, 0, None)
            if pkt is None:
                pkt = decode(buf, pos, stop, ts_us, stats)
            pos = stop
            if pkt is not None:
                decoded += 1
                if ts_us < clock:
                    stats.reordered += 1
                    pkt = (clock, *pkt[1:])
                else:
                    clock = ts_us
                yield pkt
    finally:
        stats.records += records
        stats.decoded += decoded


# Each decoder reads the frame buf[off:stop]; bytes past ``stop`` belong to
# the next record, so every length check is against ``stop``.

def _decode_ethernet(buf: bytes, off: int, stop: int, ts_us: int,
                     stats: CaptureStats) -> tuple | None:
    if stop - off < 14:
        stats.truncated += 1
        return None
    ethertype = _ETHERTYPE.unpack_from(buf, off + 12)[0]
    off += 14
    # Peel 802.1Q / 802.1ad tags.
    while ethertype == 0x8100 or ethertype == 0x88A8:
        if stop - off < 4:
            stats.truncated += 1
            return None
        ethertype = _ETHERTYPE.unpack_from(buf, off + 2)[0]
        off += 4
    if ethertype == 0x0800:
        return _decode_ipv4(buf, off, stop, ts_us, stats)
    if ethertype == 0x86DD:
        return _decode_ipv6(buf, off, stop, ts_us, stats)
    stats.skipped_link += 1
    return None


def _decode_null(buf: bytes, off: int, stop: int, ts_us: int,
                 stats: CaptureStats) -> tuple | None:
    if stop - off < 4:
        stats.truncated += 1
        return None
    return _decode_ip_auto(buf, off + 4, stop, ts_us, stats)


def _decode_ip_auto(buf: bytes, off: int, stop: int, ts_us: int,
                    stats: CaptureStats) -> tuple | None:
    if off >= stop:
        stats.truncated += 1
        return None
    version = buf[off] >> 4
    if version == 4:
        return _decode_ipv4(buf, off, stop, ts_us, stats)
    if version == 6:
        return _decode_ipv6(buf, off, stop, ts_us, stats)
    stats.skipped_link += 1
    return None


def _decode_unknown_link(buf: bytes, off: int, stop: int, ts_us: int,
                         stats: CaptureStats) -> None:
    stats.skipped_link += 1
    return None


_LINK_DECODERS = {
    LINKTYPE_ETHERNET: _decode_ethernet,
    LINKTYPE_RAW: _decode_ip_auto,
    LINKTYPE_NULL: _decode_null,
}


def _decode_ipv4(buf: bytes, off: int, stop: int, ts_us: int,
                 stats: CaptureStats) -> tuple | None:
    if stop - off < 20:
        stats.truncated += 1
        return None
    ver_ihl, total_len, frag, protocol, src, dst = _IPV4.unpack_from(buf, off)
    ihl = (ver_ihl & 0x0F) * 4
    if ver_ihl >> 4 != 4 or ihl < 20 or stop - off < ihl:
        stats.truncated += 1
        return None
    if frag & 0x3FFF:  # offset != 0 or more-fragments set
        stats.skipped_fragment += 1
        return None
    return _decode_transport(buf, off + ihl, stop, ts_us, src, dst, protocol,
                             ihl, max(total_len - ihl, 0), stats)


def _decode_ipv6(buf: bytes, off: int, stop: int, ts_us: int,
                 stats: CaptureStats) -> tuple | None:
    if stop - off < 40:
        stats.truncated += 1
        return None
    version, payload_len, next_header, src, dst = _IPV6.unpack_from(buf, off)
    if version >> 4 != 6:
        stats.truncated += 1
        return None
    if next_header not in (PROTO_TCP, PROTO_UDP, PROTO_ICMPV6):
        # Extension headers and other protocols are out of scope.
        stats.skipped_protocol += 1
        return None
    return _decode_transport(buf, off + 40, stop, ts_us, src, dst, next_header,
                             40, payload_len, stats)


def _decode_transport(buf: bytes, off: int, stop: int, ts_us: int,
                      src: bytes, dst: bytes, protocol: int, ip_header_len: int,
                      ip_payload_len: int, stats: CaptureStats) -> tuple | None:
    if protocol == PROTO_TCP:
        if stop - off < 20:
            stats.truncated += 1
            return None
        sport, dport, data_offset, flags, window = _TCP.unpack_from(buf, off)
        data_offset = (data_offset >> 4) * 4
        if data_offset < 20 or stop - off < data_offset:
            stats.truncated += 1
            return None
        return (ts_us, src, dst, sport, dport, protocol,
                max(ip_payload_len - data_offset, 0), ip_header_len + data_offset,
                flags, window)
    if protocol == PROTO_UDP:
        if stop - off < 8:
            stats.truncated += 1
            return None
        sport, dport, udp_len = _UDP.unpack_from(buf, off)
        # The UDP length cannot stretch the payload past the IP packet.
        return (ts_us, src, dst, sport, dport, protocol,
                max(min(udp_len, ip_payload_len) - 8, 0), ip_header_len + 8, 0, None)
    if protocol == PROTO_ICMP or protocol == PROTO_ICMPV6:
        if stop - off < 8:
            stats.truncated += 1
            return None
        return (ts_us, src, dst, 0, 0, protocol,
                max(ip_payload_len - 8, 0), ip_header_len + 8, 0, None)
    stats.skipped_protocol += 1
    return None
