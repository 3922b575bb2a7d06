import io
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botmeter import pcap
from botmeter.errors import PcapFormatError, ValidationError
from botmeter.features import compute_features
from botmeter.meter import FlowTable, MeterConfig
from botmeter.pcap import CaptureStats, PacketRecord, ip_from_str, ip_to_str, read_capture
from botmeter.synth import FlowBlueprint, PacketBlueprint, generate_synthetic_capture

import capgen
import oracle


def blueprint(n_packets=2, protocol=6, **kw):
    defaults = dict(src_ip="10.0.0.1", dst_ip="8.8.8.8", src_port=1000,
                    dst_port=80, protocol=protocol)
    defaults.update(kw)
    packets = tuple(PacketBlueprint("fwd", 100, 10 * i, flags="A" if protocol == 6 else "")
                    for i in range(n_packets))
    return FlowBlueprint(packets=packets, **defaults)


def parse_bytes(tmp_path, data, name="t.pcap"):
    path = tmp_path / name
    path.write_bytes(data)
    stats = CaptureStats()
    return list(map(PacketRecord._make, read_capture(str(path), stats))), stats


class TestSynth:
    def test_roundtrip_packet_fields(self, tmp_path):
        bp = FlowBlueprint("10.0.0.1", "8.8.8.8", 1000, 80, 6, (
            PacketBlueprint("fwd", 77, 5, flags="S", window=4096),
            PacketBlueprint("bwd", 33, 9, flags="SA", window=1024),
        ))
        pkts, stats = parse_bytes(tmp_path, generate_synthetic_capture([bp], 1))
        assert stats.records == 2 and stats.skipped == 0
        first, second = pkts
        assert (ip_to_str(first.src_ip), ip_to_str(first.dst_ip)) == (
            "10.0.0.1", "8.8.8.8")
        assert (first.src_port, first.dst_port) == (1000, 80)
        assert first.payload_len == 77
        assert first.header_len == 40  # 20 IP + 20 TCP
        assert first.tcp_flags == 0x02
        assert first.tcp_window == 4096
        assert second.timestamp_us - first.timestamp_us == 9
        assert (ip_to_str(second.src_ip), second.dst_port) == ("8.8.8.8", 1000)
        assert second.tcp_flags == 0x12

    def test_udp_and_icmp_fields(self, tmp_path):
        bps = [blueprint(1, protocol=17), blueprint(1, protocol=1, src_port=0, dst_port=0)]
        pkts, _ = parse_bytes(tmp_path, generate_synthetic_capture(bps, 3))
        udp, icmp = pkts
        assert udp.protocol == 17 and udp.tcp_window is None
        assert udp.header_len == 28 and udp.payload_len == 100
        assert icmp.protocol == 1 and icmp.src_port == 0 and icmp.dst_port == 0
        assert icmp.payload_len == 100

    def test_ipv6_roundtrip(self, tmp_path):
        bp = blueprint(2, src_ip="2001:db8::1", dst_ip="2001:db8::2")
        pkts, stats = parse_bytes(tmp_path, generate_synthetic_capture([bp], 0))
        assert stats.skipped == 0
        assert ip_to_str(pkts[0].src_ip) == "2001:db8::1"
        assert pkts[0].header_len == 60  # 40 IPv6 + 20 TCP

    def test_two_tuples_two_flows(self, tmp_path):
        from botmeter.meter import ingest_capture_detailed
        bps = [blueprint(2), blueprint(2, src_port=2000)]
        path = tmp_path / "two.pcap"
        path.write_bytes(generate_synthetic_capture(bps, 5))
        flows, _ = ingest_capture_detailed(str(path))
        assert len(flows) == 2
        assert all(oracle.named(f)["Total Fwd Packets"] == 2 for f in flows)

    def test_same_seed_is_byte_identical(self):
        bps = [blueprint(4), blueprint(3, protocol=17)]
        assert generate_synthetic_capture(bps, 42) == generate_synthetic_capture(bps, 42)
        assert generate_synthetic_capture(bps, 42) != generate_synthetic_capture(bps, 43)

    def test_empty_blueprint_rejected(self):
        with pytest.raises(ValidationError):
            FlowBlueprint("10.0.0.1", "8.8.8.8", 1, 2, 6, ())
        with pytest.raises(ValidationError):
            generate_synthetic_capture([], 1)

    def test_unknown_flag_letter_rejected(self):
        with pytest.raises(ValidationError):
            PacketBlueprint("fwd", 0, 0, flags="SX").flag_bits()


class TestReader:
    def test_big_endian_and_nanosecond_variants(self, tmp_path):
        data = generate_synthetic_capture([blueprint(2)], 1)
        # Rewrite as big-endian microseconds.
        ghdr = struct.unpack("<IHHiIII", data[:24])
        be = struct.pack(">IHHiIII", *ghdr)
        rest = data[24:]
        out, offset = [], 0
        while offset < len(rest):
            sec, frac, incl, orig = struct.unpack("<IIII", rest[offset:offset + 16])
            out.append(struct.pack(">IIII", sec, frac, incl, orig))
            out.append(rest[offset + 16:offset + 16 + incl])
            offset += 16 + incl
        pkts_be, _ = parse_bytes(tmp_path, be + b"".join(out), "be.pcap")
        pkts_le, _ = parse_bytes(tmp_path, data, "le.pcap")
        assert [p.timestamp_us for p in pkts_be] == [p.timestamp_us for p in pkts_le]

        # Nanosecond magic: fractions are ns, so timestamps shrink 1000x.
        ns = bytearray(data)
        ns[:4] = b"\x4d\x3c\xb2\xa1"
        pkts_ns, _ = parse_bytes(tmp_path, bytes(ns), "ns.pcap")
        for p_ns, p_le in zip(pkts_ns, pkts_le):
            sec, frac = divmod(p_le.timestamp_us, 1_000_000)
            assert p_ns.timestamp_us == sec * 1_000_000 + frac // 1000

    def test_non_ip_frames_counted(self, tmp_path):
        data = generate_synthetic_capture([blueprint(1)], 1)
        arp = b"\xff" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 28
        rec = struct.pack("<IIII", 0, 0, len(arp), len(arp)) + arp
        pkts, stats = parse_bytes(tmp_path, data + rec)
        assert len(pkts) == 1
        assert stats.skipped_link == 1
        assert stats.records == 2

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.pcap"
        path.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 40)  # pcapng magic
        with pytest.raises(PcapFormatError):
            list(read_capture(str(path), CaptureStats()))

    def test_vlan_tagged_frame_decoded(self, tmp_path):
        data = generate_synthetic_capture([blueprint(1)], 1)
        hdr, frame = data[:24], bytearray(data[40:])
        tagged = bytes(frame[:12]) + struct.pack("!HH", 0x8100, 5) + bytes(frame[12:])
        rec = struct.pack("<IIII", 0, 0, len(tagged), len(tagged)) + tagged
        pkts, stats = parse_bytes(tmp_path, hdr + rec, "vlan.pcap")
        assert len(pkts) == 1 and stats.skipped == 0
        assert ip_to_str(pkts[0].src_ip) == "10.0.0.1"


def varied_flow(n_packets):
    """A TCP flow whose packets differ in direction, payload, gap and flags."""
    packets = tuple(PacketBlueprint("fwd" if i % 3 else "bwd", (i * 397) % 1461,
                                    1 + i % 17, flags="PA" if i % 2 else "A",
                                    window=1000 + i)
                    for i in range(n_packets))
    return FlowBlueprint("10.0.0.1", "192.168.1.9", 40000, 443, 6, packets)


def expected_fields(bp):
    """(timestamp, ports, payload, flags, window) per packet, from the blueprint alone."""
    out, ts = [], bp.start_us
    for p in bp.packets:
        ts += p.gap_us
        ports = ((bp.src_port, bp.dst_port) if p.direction == "fwd"
                 else (bp.dst_port, bp.src_port))
        out.append((ts, ports, p.payload_len, p.flag_bits(), p.window))
    return out


def decoded_fields(pkts):
    return [(p.timestamp_us, (p.src_port, p.dst_port), p.payload_len,
             p.tcp_flags, p.tcp_window) for p in pkts]


def record_spans(data):
    """(start, end) byte offsets of each record, header included."""
    spans, offset = [], 24
    while offset < len(data):
        incl = struct.unpack_from("<I", data, offset + 8)[0]
        spans.append((offset, offset + 16 + incl))
        offset += 16 + incl
    return spans


class ShortReads:
    """A binary file whose read() returns at most ``limit`` bytes."""

    def __init__(self, data, limit):
        self._fh = io.BytesIO(data)
        self._limit = limit

    def read(self, n):
        return self._fh.read(min(n, self._limit))


class CountingReads:
    """A binary file that counts the bytes read() returned."""

    def __init__(self, data):
        self._fh = io.BytesIO(data)
        self.bytes_read = 0

    def read(self, n):
        block = self._fh.read(n)
        self.bytes_read += len(block)
        return block


def parse_stream(fh):
    stats = CaptureStats()
    return list(map(PacketRecord._make, pcap._read_stream(fh, stats))), stats


def mixed_capture():
    """Small capture with TCP, UDP, ICMP and IPv6 packets, an ARP frame and a cut-off tail."""
    data = generate_synthetic_capture([
        varied_flow(6), blueprint(2, protocol=17),
        blueprint(1, protocol=1, src_port=0, dst_port=0),
        blueprint(2, src_ip="2001:db8::1", dst_ip="2001:db8::2"),
    ], 9)
    arp = b"\xff" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 28
    arp_record = struct.pack("<IIII", 0, 0, len(arp), len(arp)) + arp
    cut_record = struct.pack("<IIII", 0, 0, 60, 60) + b"\x00" * 20
    return data + arp_record + cut_record


class TestBlockReader:
    @pytest.mark.parametrize("block_size", [pcap.BLOCK_SIZE, 61, 5])
    def test_records_straddling_block_boundaries(self, tmp_path, monkeypatch, block_size):
        monkeypatch.setattr(pcap, "BLOCK_SIZE", block_size)
        bp = varied_flow(400)
        data = generate_synthetic_capture([bp], 2)
        # A plain file is read in whole blocks, so blocks end at multiples
        # of the block size.
        assert any(start // block_size != (end - 1) // block_size
                   for start, end in record_spans(data))
        pkts, stats = parse_bytes(tmp_path, data)
        assert decoded_fields(pkts) == expected_fields(bp)
        assert stats == CaptureStats(records=400, decoded=400)

    def test_record_larger_than_the_block(self, tmp_path):
        bp = FlowBlueprint("10.0.0.1", "8.8.8.8", 1000, 80, 6, (
            PacketBlueprint("fwd", 100, 1, flags="S"),
            PacketBlueprint("bwd", 65495, 2, flags="A"),  # IPv4 total length 65535
            PacketBlueprint("fwd", 7, 3, flags="FA"),
        ))
        data = generate_synthetic_capture([bp], 4)
        sizes = [end - start for start, end in record_spans(data)]
        assert sizes[1] > pcap.BLOCK_SIZE
        pkts, stats = parse_bytes(tmp_path, data)
        assert decoded_fields(pkts) == expected_fields(bp)
        assert stats == CaptureStats(records=3, decoded=3)

    def test_corrupt_record_length_ends_the_capture_unread(self):
        data = bytearray(generate_synthetic_capture([varied_flow(1000)], 2))
        second = record_spans(data)[1][0]
        struct.pack_into("<I", data, second + 8, 0xFFFFFF00)  # incl_len
        reader = CountingReads(bytes(data))
        pkts, stats = parse_stream(reader)
        assert len(pkts) == 1
        assert stats == CaptureStats(records=2, decoded=1, truncated=1)
        assert reader.bytes_read <= 24 + pcap.BLOCK_SIZE < len(data)

    @pytest.mark.parametrize("kind, keep", [
        ("tcp", 10), ("tcp", 30), ("tcp", 50), ("tcp", None),
        ("udp", 38), ("icmp", 38), ("ipv6", 44)])
    def test_frame_cut_short_stops_at_its_own_end(self, tmp_path, kind, keep):
        bp = {"tcp": blueprint(1), "udp": blueprint(1, protocol=17),
              "icmp": blueprint(1, protocol=1, src_port=0, dst_port=0),
              "ipv6": blueprint(1, src_ip="2001:db8::1", dst_ip="2001:db8::2")}[kind]
        data = generate_synthetic_capture([bp], 1)
        hdr, frame = data[:24], data[40:]
        if keep is None:
            # 20 TCP header bytes present, but the data offset claims 60.
            frame = bytearray(frame[:54 + 24])
            frame[46] = 15 << 4
            frame = bytes(frame)
        else:
            frame = frame[:keep]   # inside the Ethernet, IP or TCP header
        cut = struct.pack("<IIII", 0, 0, len(frame), len(frame)) + frame
        pkts, stats = parse_bytes(tmp_path, hdr + cut + data[24:])
        full, _ = parse_bytes(tmp_path, data, "full.pcap")
        assert pkts == full
        assert stats == CaptureStats(records=2, decoded=1, truncated=1)

    @pytest.mark.parametrize("limit", [1, 7, 16, 4096])
    def test_short_reads_match_a_plain_file(self, tmp_path, limit):
        data = mixed_capture()
        pkts, stats = parse_bytes(tmp_path, data)
        assert stats.decoded == 11 and stats.skipped_link == 1 and stats.truncated == 1
        assert parse_stream(ShortReads(data, limit)) == (pkts, stats)

    @pytest.mark.parametrize("k", [1, 6, 11])
    def test_a_reader_closed_early_counts_what_it_read(self, tmp_path, k):
        # An ARP record first, so that records runs one ahead of decoded.
        arp = b"\xff" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 28
        data = mixed_capture()
        data = data[:24] + struct.pack("<IIII", 0, 0, len(arp), len(arp)) + arp + data[24:]
        path = tmp_path / "mixed.pcap"
        path.write_bytes(data)
        stats = CaptureStats()
        reader = read_capture(str(path), stats)
        for _ in range(k):
            next(reader)
        reader.close()
        assert stats.decoded == k
        assert stats.records == k + 1 and stats.skipped_link == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cut_capture_yields_a_prefix(self, data):
        capture = mixed_capture()
        full, _ = parse_stream(io.BytesIO(capture))
        cut = data.draw(st.integers(0, len(capture)))
        if cut < 24:
            with pytest.raises(PcapFormatError):
                parse_stream(io.BytesIO(capture[:cut]))
            return
        pkts, stats = parse_stream(io.BytesIO(capture[:cut]))
        assert pkts == full[:len(pkts)]
        assert stats.truncated <= 1


class TestMutatedCapture:
    # Each edit overwrites one byte among the first 96 of the global header
    # or of a record: the pcap record header and the link, IP and transport
    # headers of its frame, where a wrong byte changes how the rest is read.
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 95),
                                    st.integers(0, 255)),
                          min_size=1, max_size=8))
    def test_mutated_capture_ends_in_format_error_or_counted_skips(
            self, tmp_path_factory, seed, edits):
        blueprints = capgen.random_blueprints(random.Random(seed), max_flows=4,
                                              max_packets_per_flow=12)
        data = bytearray(generate_synthetic_capture(blueprints, seed))
        heads = [0] + [start for start, _ in record_spans(data)]
        for record, offset, value in edits:
            data[(heads[record % len(heads)] + offset) % len(data)] = value
        path = tmp_path_factory.mktemp("mutated") / "cap.pcap"
        path.write_bytes(data)
        stats = CaptureStats()
        table = FlowTable()
        flows = []
        try:
            for pkt in read_capture(str(path), stats):
                flows += table.offer_packet(pkt)
        except PcapFormatError:
            # Only the magic number can make a whole capture unreadable.
            assert bytes(data[:4]) not in pcap._MAGICS
            assert stats == CaptureStats()
            return
        flows += table.flush()
        assert stats.records == stats.decoded + stats.skipped
        features = [oracle.named(compute_features(flow)) for flow in flows]
        assert sum(f["Total Fwd Packets"] + f["Total Backward Packets"]
                   for f in features) == stats.decoded
        for f in features:
            assert all(map(math.isfinite, f.values()))


# The fused Ethernet/IPv4/TCP|UDP path against the decoder chain alone.

_MACS = bytes(range(1, 13))


def chain_reference(data):
    """(packets, stats) of a classic pcap in memory, decoded by framing each
    record and calling only the decoder chain for its link type."""
    endian, divisor = pcap._MAGICS[data[:4]]
    linktype = struct.unpack_from(endian + "I", data, 20)[0]
    decode = pcap._LINK_DECODERS.get(linktype, pcap._decode_unknown_link)
    stats, pkts, clock, pos = CaptureStats(), [], 0, 24
    while pos < len(data):
        stats.records += 1
        if len(data) - pos < 16:
            stats.truncated += 1
            break
        sec, frac, incl, _ = struct.unpack_from(endian + "IIII", data, pos)
        pos += 16
        if len(data) - pos < incl:
            stats.truncated += 1
            break
        pkt = decode(data, pos, pos + incl, sec * 1_000_000 + frac // divisor, stats)
        pos += incl
        if pkt is not None:
            pkt = PacketRecord._make(pkt)
            stats.decoded += 1
            if pkt.timestamp_us < clock:
                stats.reordered += 1
                pkt = pkt._replace(timestamp_us=clock)
            clock = max(clock, pkt.timestamp_us)
            pkts.append(pkt)
    return pkts, stats


def pcap_bytes(frames, linktype=pcap.LINKTYPE_ETHERNET, endian="<", nanos=False,
               stamps=None):
    """A classic pcap of ``frames``; ``stamps`` gives (sec, frac) per frame."""
    magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)]
    for i, frame in enumerate(frames):
        sec, frac = stamps[i] if stamps else (i, 0)
        out.append(struct.pack(endian + "IIII", sec, frac, len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)


def synth_frame(bp):
    """The Ethernet frame of a one-packet blueprint, as ``botmeter.synth`` renders it."""
    return generate_synthetic_capture([bp], 1)[40:]


def with_ipv4_options(frame, words=1):
    """``frame`` (Ethernet/IPv4, IHL 5) with ``words`` 4-byte IPv4 option words."""
    ip = bytearray(frame[14:34])
    ip[0] = 0x40 | (5 + words)
    struct.pack_into("!H", ip, 2, struct.unpack_from("!H", ip, 2)[0] + 4 * words)
    return frame[:14] + bytes(ip) + b"\x01" * (4 * words) + frame[34:]


def vlan_tagged(frame, tpid=0x8100):
    return frame[:12] + struct.pack("!HH", tpid, 7) + frame[12:]


def usually(value, other):
    """``value`` three draws in four, else a draw from ``other``."""
    return st.one_of(st.just(value), st.just(value), st.just(value), other)


@st.composite
def transports(draw, protocol):
    """Transport header and payload bytes for ``protocol``; any other protocol
    gets arbitrary bytes."""
    sport, dport = draw(st.integers(0, 65535)), draw(st.integers(0, 65535))
    payload = draw(st.binary(max_size=24))
    if protocol == 6:
        offset = draw(usually(5, st.integers(0, 15)))
        head = struct.pack("!HHIIBBHHH", sport, dport, draw(st.integers(0, 2**32 - 1)),
                           0, offset << 4, draw(st.integers(0, 255)),
                           draw(st.integers(0, 65535)), 0, 0)
        return head + b"\x01" * (4 * max(offset - 5, 0)) + payload
    if protocol == 17:
        length = draw(usually(8 + len(payload), st.integers(0, 65535)))
        return struct.pack("!HHHH", sport, dport, length, 0) + payload
    if protocol in (1, 58):
        return struct.pack("!BBHI", 8, 0, 0, 0) + payload
    return payload


@st.composite
def ipv4_packets(draw):
    version = draw(usually(4, st.integers(0, 15)))
    ihl = draw(usually(5, st.integers(0, 15)))
    frag = draw(usually(0, st.one_of(
        st.sampled_from([0x4000, 0x2000, 0x0001, 0x1FFF, 0x6000]), st.integers(0, 0xFFFF))))
    protocol = draw(st.sampled_from([6, 6, 17, 17, 1, 47]))
    options = b"\x01" * (4 * max(ihl - 5, 0))
    transport = draw(transports(protocol))
    total = draw(usually(20 + len(options) + len(transport), st.integers(0, 65535)))
    header = struct.pack("!BBHHHBBH4s4s", version << 4 | ihl, 0, total, 0, frag, 64,
                         protocol, 0, draw(st.binary(min_size=4, max_size=4)),
                         draw(st.binary(min_size=4, max_size=4)))
    return header + options + transport


@st.composite
def common_frames(draw):
    """An Ethernet/IPv4/TCP|UDP frame as captured (IHL 5, not a fragment), or
    one with a single field changed that a check of the fused path reads."""
    twist = draw(st.sampled_from([None, "options", "ver_ihl", "fragment", "ethertype",
                                  "short_data_offset", "long_data_offset",
                                  "udp_length"]))
    protocol = draw(st.sampled_from([6, 17]))
    ports = struct.pack("!HH", draw(st.integers(0, 65535)), draw(st.integers(0, 65535)))
    payload = draw(st.binary(max_size=24))
    if protocol == 6:
        offset, options = 5, 0
        if twist == "short_data_offset":
            offset = draw(st.integers(0, 4))
        elif twist == "long_data_offset":
            offset = draw(st.integers(6, 15))
            options = draw(st.integers(0, 4 * offset - 20))
            payload = payload[:4 * offset - 20 - options]
        transport = (ports + struct.pack("!IIBBHHH", draw(st.integers(0, 2**32 - 1)), 0,
                                         offset << 4, draw(st.integers(0, 255)),
                                         draw(st.integers(0, 65535)), 0, 0)
                     + b"\x01" * options + payload)
    else:
        length = 8 + len(payload)
        if twist == "udp_length":
            length = draw(st.one_of(st.integers(0, 16), st.integers(0, 65535)))
        transport = ports + struct.pack("!HH", length, 0) + payload
    words = draw(st.integers(1, 10)) if twist == "options" else 0
    ver_ihl = draw(st.integers(0, 255)) if twist == "ver_ihl" else 0x45 + words
    frag = 0
    if twist == "fragment":
        frag = draw(st.one_of(st.sampled_from([0x4000, 0x2000, 0x0001, 0x1FFF]),
                              st.integers(0, 0xFFFF)))
    ethertype = 0x0800
    if twist == "ethertype":
        ethertype = draw(st.one_of(st.sampled_from([0x86DD, 0x0806, 0x8100, 0x88A8]),
                                   st.integers(0, 0xFFFF)))
    header = struct.pack("!BBHHHBBH4s4s", ver_ihl, 0, 20 + 4 * words + len(transport),
                         0, frag, 64, protocol, 0, draw(st.binary(min_size=4, max_size=4)),
                         draw(st.binary(min_size=4, max_size=4)))
    return (_MACS + struct.pack("!H", ethertype) + header + b"\x01" * (4 * words)
            + transport)


@st.composite
def ipv6_packets(draw):
    version = draw(usually(6, st.integers(0, 15)))
    next_header = draw(st.sampled_from([6, 17, 58, 0, 43]))
    transport = draw(transports(next_header))
    return struct.pack("!IHBB16s16s", version << 28, len(transport), next_header, 64,
                       b"\x20" * 16, b"\xfc" * 16) + transport


def ip_packets():
    return st.one_of(ipv4_packets(), ipv4_packets(), ipv6_packets(),
                     st.binary(max_size=48))


@st.composite
def ethernet_frames(draw):
    tags = draw(usually([], st.lists(st.sampled_from([0x8100, 0x88A8]), max_size=2)))
    ethertype, l3 = draw(st.one_of(
        st.tuples(st.just(0x0800), ipv4_packets()),
        st.tuples(st.just(0x0800), ipv4_packets()),
        st.tuples(st.just(0x86DD), ipv6_packets()),
        st.tuples(st.sampled_from([0x0806, 0x0800, 0x86DD]), st.binary(max_size=48)),
        st.tuples(st.integers(0, 0xFFFF), st.binary(max_size=48))))
    return (_MACS + b"".join(struct.pack("!HH", tag, 5) for tag in tags)
            + struct.pack("!H", ethertype) + l3)


LINK_FRAMES = {
    pcap.LINKTYPE_ETHERNET: ethernet_frames(),
    pcap.LINKTYPE_RAW: ip_packets(),
    pcap.LINKTYPE_NULL: st.builds(lambda family, ip: struct.pack("<I", family) + ip,
                                  st.sampled_from([2, 24, 30]), ip_packets()),
    147: st.binary(max_size=60),   # a link type the reader does not decode
}


@st.composite
def captures(draw, link_frames=LINK_FRAMES):
    """Classic pcaps of up to six frames drawn from ``link_frames`` (link type
    -> frame strategy), some cut short or overwritten, with stamps that may
    go back in time; the whole capture is sometimes cut too."""
    linktype = draw(st.sampled_from(sorted(link_frames)))
    nanos = draw(st.booleans())
    frames = []
    for _ in range(draw(st.integers(1, 6))):
        frame = draw(link_frames[linktype])
        cut = draw(usually(None, st.integers(0, 60)))
        if cut is not None:
            frame = frame[:cut]
        if frame and draw(st.integers(0, 3)) == 0:
            frame = capgen.overwrite(frame, draw(capgen.EDITS))
        frames.append(frame)
    stamps = [(draw(st.integers(0, 3)),
               draw(st.integers(0, 999_999_999 if nanos else 999_999)))
              for _ in frames]
    data = pcap_bytes(frames, linktype, draw(st.sampled_from("<>")), nanos, stamps)
    return data[:draw(st.integers(24, len(data)))] if draw(st.booleans()) else data


class TestFusedPath:
    @staticmethod
    def read(tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fused") / "cap.pcap"
        path.write_bytes(data)
        stats = CaptureStats()
        return list(read_capture(str(path), stats)), stats

    @settings(max_examples=300, deadline=None)
    @given(data=captures({pcap.LINKTYPE_ETHERNET: common_frames()}))
    def test_common_frames_read_as_the_chain_reads_them(self, tmp_path_factory, data):
        assert self.read(tmp_path_factory, data) == chain_reference(data)

    @settings(max_examples=300, deadline=None)
    @given(data=captures())
    def test_any_capture_reads_as_the_chain_reads_it(self, tmp_path_factory, data):
        assert self.read(tmp_path_factory, data) == chain_reference(data)

    @pytest.mark.parametrize("frame", [
        synth_frame(blueprint(1)),
        synth_frame(blueprint(1, protocol=17)),
        synth_frame(FlowBlueprint("10.0.0.1", "8.8.8.8", 1000, 53, 17,
                                  (PacketBlueprint("fwd", 0, 1),))),
        with_ipv4_options(synth_frame(blueprint(1))),
        vlan_tagged(synth_frame(blueprint(1, protocol=17)), 0x88A8),
    ], ids=["tcp", "udp", "udp-42", "ipv4-options", "vlan-udp"])
    def test_frame_cut_at_every_byte_equals_the_chain(self, frame):
        for cut in range(61):
            for endian in "<>":
                data = pcap_bytes([frame[:cut], frame], endian=endian)
                assert parse_stream(io.BytesIO(data)) == chain_reference(data), cut


@pytest.fixture
def chain_calls(monkeypatch):
    """The frames that reach the Ethernet decoder chain."""
    calls = []
    chain = pcap._LINK_DECODERS[pcap.LINKTYPE_ETHERNET]

    def spy(buf, off, stop, ts_us, stats):
        calls.append(bytes(buf[off:stop]))
        return chain(buf, off, stop, ts_us, stats)

    monkeypatch.setitem(pcap._LINK_DECODERS, pcap.LINKTYPE_ETHERNET, spy)
    return calls


class TestFusedPathFires:
    """The fused path must decode the common frame without the chain, and hand
    every other frame to it."""

    def test_plain_tcp_and_udp_never_reach_the_chain(self, chain_calls):
        zero_payload = (PacketBlueprint("fwd", 0, 1, flags="S"),
                        PacketBlueprint("bwd", 0, 1, flags="SA"))
        data = generate_synthetic_capture([
            varied_flow(20), blueprint(3, protocol=17),
            FlowBlueprint("10.0.0.2", "8.8.4.4", 5000, 80, 6, zero_payload),
            FlowBlueprint("10.0.0.2", "8.8.4.4", 5000, 53, 17, zero_payload[:1]),
        ], 3)
        pkts, stats = parse_stream(io.BytesIO(data))
        assert stats == CaptureStats(records=26, decoded=26)
        assert chain_calls == []
        assert pkts == chain_reference(data)[0]

    @pytest.mark.parametrize("frame", [
        vlan_tagged(synth_frame(blueprint(1))),
        with_ipv4_options(synth_frame(blueprint(1, protocol=17)), 2),
        synth_frame(blueprint(1, protocol=1, src_port=0, dst_port=0)),
        synth_frame(blueprint(1, src_ip="2001:db8::1", dst_ip="2001:db8::2")),
    ], ids=["vlan", "ipv4-options", "icmp", "ipv6"])
    def test_other_frames_go_to_the_chain(self, chain_calls, frame):
        pkts, stats = parse_stream(io.BytesIO(pcap_bytes([frame])))
        assert chain_calls == [frame]
        assert stats == CaptureStats(records=1, decoded=1)
        assert len(pkts) == 1


def udp_frame(total_len, udp_len, payload=b""):
    """An Ethernet/IPv4/UDP frame whose IPv4 total length and UDP length
    fields say ``total_len`` and ``udp_len``, whatever it carries."""
    return (_MACS + struct.pack("!H", 0x0800)
            + struct.pack("!BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0, 64, 17, 0,
                          b"\x0a\x00\x00\x01", b"\x08\x08\x08\x08")
            + struct.pack("!HHHH", 1000, 53, udp_len, 0) + payload)


class TestUdpPayloadBound:
    """A UDP payload ends where the IP packet ends, whatever the UDP length
    field says."""

    @pytest.mark.parametrize("total_len, udp_len, payload, expected", [
        (28, 65535, b"", 0),
        (38, 65535, b"x" * 10, 10),
        (38, 12, b"x" * 10, 4),
        (20, 100, b"", 0),
    ])
    def test_udp_length_past_the_ip_packet_is_cut_to_it(
            self, chain_calls, total_len, udp_len, payload, expected):
        frame = udp_frame(total_len, udp_len, payload)
        data = pcap_bytes([frame])
        (fused,), _ = parse_stream(io.BytesIO(data))
        assert chain_calls == []
        (chained,), _ = chain_reference(data)
        assert fused == chained
        assert fused.payload_len == expected
        # The IPv6 chain bounds by the IPv6 payload length the same way.
        ip6 = (struct.pack("!IHBB16s16s", 6 << 28, total_len - 20, 17, 64,
                           b"\x20" * 16, b"\xfc" * 16) + frame[34:])
        (v6,), _ = parse_stream(io.BytesIO(pcap_bytes([ip6], pcap.LINKTYPE_RAW)))
        assert v6.payload_len == expected

    @settings(max_examples=300, deadline=None)
    @given(frame=common_frames())
    def test_payload_fits_in_the_ip_packet(self, frame):
        pkts, _ = parse_stream(io.BytesIO(pcap_bytes([frame])))
        if pkts and frame[12:14] == b"\x08\x00":
            total_len = struct.unpack_from("!H", frame, 16)[0]
            assert pkts[0].payload_len <= max(total_len - 28, 0)


def udp_of(payload_len):
    """The frame of a one-packet UDP flow, 42 + ``payload_len`` bytes long."""
    return synth_frame(FlowBlueprint("10.0.0.1", "8.8.8.8", 1000, 53, 17,
                                     (PacketBlueprint("fwd", payload_len, 1),)))


_A, _B = ip_from_str("10.0.0.1"), ip_from_str("8.8.8.8")
_TCP_RECORD = PacketRecord(0, _A, _B, 1000, 80, 6, 100, 40, 0x10, 8192)
_TCP_FRAME = synth_frame(blueprint(1))


class TestDecodedPacketsArePlainTuples:
    """The reader yields exact 10-tuples in ``PacketRecord`` field order, from
    the fused path and from every path of the decoder chain."""

    @pytest.mark.parametrize("frame, linktype, fused, expected", [
        (_TCP_FRAME, pcap.LINKTYPE_ETHERNET, True, _TCP_RECORD),
        (udp_of(0), pcap.LINKTYPE_ETHERNET, True,
         PacketRecord(0, _A, _B, 1000, 53, 17, 0, 28, 0, None)),
        (udp_of(7), pcap.LINKTYPE_ETHERNET, True,
         PacketRecord(0, _A, _B, 1000, 53, 17, 7, 28, 0, None)),
        (udp_of(8), pcap.LINKTYPE_ETHERNET, True,
         PacketRecord(0, _A, _B, 1000, 53, 17, 8, 28, 0, None)),
        (vlan_tagged(_TCP_FRAME), pcap.LINKTYPE_ETHERNET, False, _TCP_RECORD),
        (with_ipv4_options(_TCP_FRAME), pcap.LINKTYPE_ETHERNET, False,
         _TCP_RECORD._replace(header_len=44)),
        (synth_frame(blueprint(1, src_ip="2001:db8::1", dst_ip="2001:db8::2")),
         pcap.LINKTYPE_ETHERNET, False,
         _TCP_RECORD._replace(src_ip=ip_from_str("2001:db8::1"),
                              dst_ip=ip_from_str("2001:db8::2"), header_len=60)),
        (synth_frame(blueprint(1, protocol=1, src_port=0, dst_port=0)),
         pcap.LINKTYPE_ETHERNET, False,
         PacketRecord(0, _A, _B, 0, 0, 1, 100, 28, 0, None)),
        (_TCP_FRAME[14:], pcap.LINKTYPE_RAW, False, _TCP_RECORD),
        (struct.pack("<I", 2) + _TCP_FRAME[14:], pcap.LINKTYPE_NULL, False, _TCP_RECORD),
    ], ids=["tcp", "udp-42", "udp-49", "udp-50", "vlan", "ipv4-options", "ipv6",
            "icmp", "raw-ip", "null-link"])
    def test_every_path_yields_a_plain_tuple(self, chain_calls, frame, linktype,
                                             fused, expected):
        (got,) = pcap._read_stream(io.BytesIO(pcap_bytes([frame], linktype)),
                                   CaptureStats())
        assert type(got) is tuple and len(got) == 10
        assert PacketRecord._make(got)._asdict() == expected._asdict()
        if linktype == pcap.LINKTYPE_ETHERNET:
            assert chain_calls == ([] if fused else [frame])
        chained = pcap._LINK_DECODERS[linktype](frame, 0, len(frame), 0, CaptureStats())
        assert type(chained) is tuple and chained == got

    def test_the_udp_frames_sit_on_both_sides_of_the_wide_unpack(self):
        assert [len(udp_of(n)) for n in (0, 7, 8)] == [42, 49, 50]

    def test_a_reordered_packet_is_a_plain_tuple(self):
        # Fused TCP, then ICMP through the chain and fused UDP stamped earlier.
        frames = [_TCP_FRAME, synth_frame(blueprint(1, protocol=1, src_port=0, dst_port=0)),
                  udp_of(100)]
        in_order = list(pcap._read_stream(io.BytesIO(pcap_bytes(frames)), CaptureStats()))
        stats = CaptureStats()
        pkts = list(pcap._read_stream(io.BytesIO(
            pcap_bytes(frames, stamps=[(5, 0), (3, 0), (4, 999_999)])), stats))
        assert stats.reordered == 2
        assert all(type(p) is tuple and len(p) == 10 for p in pkts)
        assert [p[0] for p in pkts] == [5_000_000] * 3
        assert [p[1:] for p in pkts] == [p[1:] for p in in_order]

    def test_a_held_one_packet_flow_is_a_plain_tuple(self, tmp_path):
        path = tmp_path / "held.pcap"
        path.write_bytes(generate_synthetic_capture(
            [blueprint(1, protocol=17), varied_flow(3)], 5))
        packets = list(read_capture(str(path)))
        table = FlowTable()
        for pkt in packets:
            assert table.offer_packet(pkt) == []
        flows = table.flush()
        (held,) = [f for f in flows if type(f) is tuple]
        assert len(flows) == 2 and held in packets and held[5] == 17
        config = MeterConfig()
        oracle.assert_flows_match([compute_features(f, config) for f in flows],
                                  oracle.expected_flows(packets, config))
