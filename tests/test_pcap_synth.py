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
from botmeter.meter import FlowTable
from botmeter.pcap import CaptureStats, read_capture
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
    return list(read_capture(str(path), stats)), stats


class TestSynth:
    def test_roundtrip_packet_fields(self, tmp_path):
        bp = FlowBlueprint("10.0.0.1", "8.8.8.8", 1000, 80, 6, (
            PacketBlueprint("fwd", 77, 5, flags="S", window=4096),
            PacketBlueprint("bwd", 33, 9, flags="SA", window=1024),
        ))
        pkts, stats = parse_bytes(tmp_path, generate_synthetic_capture([bp], 1))
        assert stats.records == 2 and stats.skipped == 0
        first, second = pkts
        assert (first.src_ip_str, first.dst_ip_str) == ("10.0.0.1", "8.8.8.8")
        assert (first.src_port, first.dst_port) == (1000, 80)
        assert first.payload_len == 77
        assert first.header_len == 40  # 20 IP + 20 TCP
        assert first.tcp_flags == 0x02
        assert first.tcp_window == 4096
        assert second.timestamp_us - first.timestamp_us == 9
        assert (second.src_ip_str, second.dst_port) == ("8.8.8.8", 1000)
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
        assert pkts[0].src_ip_str == "2001:db8::1"
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
        assert pkts[0].src_ip_str == "10.0.0.1"


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
    return list(pcap._read_stream(fh, stats)), stats


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
        assert sum(flow.total_packets for flow in flows) == stats.decoded
        for flow in flows:
            assert all(map(math.isfinite, compute_features(flow).values))
