import random

import pytest

from botmeter.errors import ValidationError
from botmeter.features import FEATURE_NAMES, compute_features
from botmeter.meter import FlowTable, MeterConfig, ingest_capture_detailed
from botmeter.pcap import CaptureStats, read_capture
from botmeter.synth import FlowBlueprint, PacketBlueprint, generate_synthetic_capture

import capgen
import oracle

TCP, UDP = 6, 17


def write_capture(tmp_path, blueprints, seed=1, name="cap.pcap"):
    path = tmp_path / name
    path.write_bytes(generate_synthetic_capture(blueprints, seed))
    return str(path)


def parse(path):
    stats = CaptureStats()
    return list(read_capture(path, stats)), stats


def simple_flow(payloads_gaps, protocol=TCP, src="10.0.0.1", dst="8.8.8.8",
                sport=1234, dport=80):
    packets = tuple(
        PacketBlueprint(direction, payload, gap, flags="A" if protocol == TCP else "")
        for direction, payload, gap in payloads_gaps)
    return FlowBlueprint(src, dst, sport, dport, protocol, packets)


class TestIngest:
    def test_empty_capture_yields_no_flows(self, tmp_path):
        bp = simple_flow([("fwd", 1, 0)])
        data = generate_synthetic_capture([bp], seed=0)[:24]  # header only
        path = tmp_path / "empty.pcap"
        path.write_bytes(data)
        flows, stats = ingest_capture_detailed(str(path))
        assert flows == []
        assert stats.records == 0

    def test_single_syn_packet_flow(self, tmp_path):
        bp = FlowBlueprint("10.0.0.1", "8.8.8.8", 1234, 80, TCP,
                           (PacketBlueprint("fwd", 0, 0, flags="S"),))
        flows, _ = ingest_capture_detailed(write_capture(tmp_path, [bp]))
        assert len(flows) == 1
        assert len(flows[0].values) == len(FEATURE_NAMES)
        f = oracle.named(flows[0])
        assert f["Total Fwd Packets"] == 1
        assert f["Flow Duration"] == 0
        for name in FEATURE_NAMES:
            if "IAT" in name:
                assert f[name] == 0
        assert f["SYN Flag Count"] == 1
        assert f["Min Packet Length"] == 0
        assert f["Max Packet Length"] == 0
        assert f["Packet Length Mean"] == 0

    def test_three_flow_capture_matches_oracle(self, tmp_path):
        config = MeterConfig()
        blueprints = [
            simple_flow([("fwd", 100, 0), ("bwd", 50, 500_000), ("fwd", 200, 500_000)]),
            simple_flow([("fwd", 10, 0), ("fwd", 20, 1000)], protocol=UDP,
                        src="192.168.1.2", dst="10.0.0.9", sport=5353, dport=53),
            simple_flow([("fwd", 0, 0), ("bwd", 999, 10)], src="172.16.0.3",
                        dst="203.0.113.7", sport=40000, dport=443),
        ]
        path = write_capture(tmp_path, blueprints)
        flows, _ = ingest_capture_detailed(path, config)
        packets, _ = parse(path)
        assert len(flows) == 3
        oracle.assert_flows_match(flows, oracle.expected_flows(packets, config))

    def test_unreadable_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ingest_capture_detailed(str(tmp_path / "missing.pcap"))

    def test_bad_magic_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 64)
        from botmeter.errors import PcapFormatError
        with pytest.raises(PcapFormatError):
            ingest_capture_detailed(str(path))

    def test_truncated_record_skipped_with_counter(self, tmp_path):
        bp = simple_flow([("fwd", 100, 0), ("fwd", 100, 10)])
        data = generate_synthetic_capture([bp], seed=0)
        path = tmp_path / "trunc.pcap"
        path.write_bytes(data[:-20])  # cut into the last packet's bytes
        flows, stats = ingest_capture_detailed(str(path))
        assert stats.truncated == 1
        assert len(flows) == 1
        assert oracle.named(flows[0])["Total Fwd Packets"] == 1


class TestOfferPacket:
    def offer_all(self, table, packets):
        emitted = []
        for pkt in packets:
            emitted.extend(table.offer_packet(pkt))
        return emitted

    def test_timeout_emits_and_restarts(self, tmp_path):
        bp = simple_flow([("fwd", 10, 0), ("fwd", 10, 150_000_000)])
        packets, _ = parse(write_capture(tmp_path, [bp]))
        table = FlowTable(MeterConfig(flow_timeout_us=120_000_000))
        assert table.offer_packet(packets[0]) == []
        emitted = table.offer_packet(packets[1])
        assert len(emitted) == 1
        assert emitted[0].total_packets == 1
        assert len(table.flush()) == 1  # the restarted flow

    def test_tcp_termination_on_final_ack(self, tmp_path):
        seq = [("fwd", 0, 0, "S"), ("bwd", 0, 10, "SA"), ("fwd", 0, 10, "A"),
               ("fwd", 0, 10, "FA"), ("bwd", 0, 10, "FA"), ("fwd", 0, 10, "A")]
        bp = FlowBlueprint("10.0.0.1", "8.8.8.8", 1234, 80, TCP,
                           tuple(PacketBlueprint(d, p, g, flags=fl)
                                 for d, p, g, fl in seq))
        packets, _ = parse(write_capture(tmp_path, [bp]))
        table = FlowTable()
        emitted = self.offer_all(table, packets[:5])
        assert emitted == []  # second FIN carries ACK but is not the final ACK
        emitted = table.offer_packet(packets[5])
        assert len(emitted) == 1
        assert emitted[0].total_packets == 6
        assert table.flush() == []

    def test_rst_terminates_immediately(self, tmp_path):
        seq = [("fwd", 0, 0, "S"), ("bwd", 0, 10, "R"), ("fwd", 5, 10, "S")]
        bp = FlowBlueprint("10.0.0.1", "8.8.8.8", 1234, 80, TCP,
                           tuple(PacketBlueprint(d, p, g, flags=fl)
                                 for d, p, g, fl in seq))
        packets, _ = parse(write_capture(tmp_path, [bp]))
        table = FlowTable()
        emitted = self.offer_all(table, packets)
        assert len(emitted) == 1
        assert emitted[0].total_packets == 2
        residual = table.flush()
        assert len(residual) == 1  # packet 3 started a fresh flow
        assert residual[0].total_packets == 1

    def test_bidirectional_keying(self, tmp_path):
        bp = simple_flow([("fwd", 10, 0), ("bwd", 20, 100)])
        packets, _ = parse(write_capture(tmp_path, [bp]))
        table = FlowTable()
        self.offer_all(table, packets)
        flows = table.flush()
        assert len(flows) == 1
        fv = compute_features(flows[0])
        assert oracle.named(fv)["Total Fwd Packets"] == 1
        assert oracle.named(fv)["Total Backward Packets"] == 1


class TestComputeFeatures:
    def metered(self, tmp_path, payloads_gaps, **kw):
        path = write_capture(tmp_path, [simple_flow(payloads_gaps, **kw)])
        flows, _ = ingest_capture_detailed(path)
        assert len(flows) == 1
        return oracle.named(flows[0])

    def test_hand_computed_two_direction_flow(self, tmp_path):
        f = self.metered(tmp_path, [("fwd", 100, 0), ("bwd", 50, 500_000),
                                    ("fwd", 200, 500_000)])
        assert f["Flow Duration"] == 1_000_000
        assert f["Packet Length Mean"] == pytest.approx(350 / 3, rel=1e-12)
        assert f["Flow Bytes/s"] == pytest.approx(350.0, rel=1e-12)
        assert f["Flow Packets/s"] == pytest.approx(3.0, rel=1e-12)
        assert f["Down/Up Ratio"] == pytest.approx(0.5, rel=1e-12)
        assert f["Fwd IAT Total"] == 1_000_000
        assert f["Packet Length Std"] == pytest.approx(76.37626158259734, rel=1e-9)

    def test_single_packet_degenerate_zeros(self, tmp_path):
        f = self.metered(tmp_path, [("fwd", 42, 0)])
        assert f["Flow Bytes/s"] == 0
        assert f["Down/Up Ratio"] == 0
        for name in FEATURE_NAMES:
            if "IAT" in name or "Active" in name or "Idle" in name:
                assert f[name] == 0, name

    def test_sample_std(self, tmp_path):
        f = self.metered(tmp_path, [("fwd", 2, 0), ("fwd", 4, 10), ("fwd", 6, 10)])
        assert f["Packet Length Mean"] == pytest.approx(4.0)
        assert f["Packet Length Std"] == pytest.approx(2.0)
        assert f["Packet Length Variance"] == f["Packet Length Std"] ** 2

    def test_integral_std_is_exact(self, tmp_path):
        # Lengths with std exactly 250 and gaps with std exactly 245; a
        # one-pass float update gave 249.99999999999997 and 244.99999999999997.
        lengths = [802, 1248, 1309, 866, 810]
        gaps = [0, 943, 1051, 959, 1465]
        f = self.metered(tmp_path, [("fwd", n, g) for n, g in zip(lengths, gaps)],
                         protocol=UDP)
        assert f["Fwd Packet Length Std"] == f["Packet Length Std"] == 250.0
        assert f["Packet Length Variance"] == 62500.0
        assert f["Fwd IAT Std"] == f["Flow IAT Std"] == 245.0
        assert f["Fwd IAT Total"] == sum(gaps)

    def test_init_win_minus_one_for_udp(self, tmp_path):
        f = self.metered(tmp_path, [("fwd", 10, 0)], protocol=UDP)
        assert f["Init Fwd Win Bytes"] == -1
        assert f["Init Bwd Win Bytes"] == -1

    def test_inbound_set_by_home_prefix(self, tmp_path):
        f = self.metered(tmp_path, [("fwd", 10, 0)], src="8.8.8.8", dst="192.168.1.5")
        assert f["Inbound"] == 1
        f = self.metered(tmp_path, [("fwd", 10, 0)], src="192.168.1.5", dst="8.8.8.8")
        assert f["Inbound"] == 0


class TestMeterProperties:
    CONFIG = MeterConfig(flow_timeout_us=2_000_000, activity_timeout_us=500_000)

    def run_case(self, tmp_path, seed):
        rng = random.Random(seed)
        blueprints = capgen.random_blueprints(rng, timeout_us=self.CONFIG.flow_timeout_us)
        path = write_capture(tmp_path, blueprints, seed=seed, name=f"c{seed}.pcap")
        flows, stats = ingest_capture_detailed(path, self.CONFIG)
        packets, _ = parse(path)
        return blueprints, path, flows, stats, packets

    @pytest.mark.parametrize("seed", range(25))
    def test_oracle_equivalence_randomized(self, tmp_path, seed):
        _, _, flows, _, packets = self.run_case(tmp_path, seed)
        oracle.assert_flows_match(flows, oracle.expected_flows(packets, self.CONFIG))

    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_packet_conservation(self, tmp_path, seed):
        _, _, flows, stats, _ = self.run_case(tmp_path, seed)
        attributed = sum(oracle.named(f)["Total Fwd Packets"]
                         + oracle.named(f)["Total Backward Packets"] for f in flows)
        assert attributed == stats.records - stats.skipped

    @pytest.mark.parametrize("seed", [5, 21])
    def test_time_shift_invariance(self, tmp_path, seed):
        rng = random.Random(seed)
        blueprints = capgen.random_blueprints(rng, timeout_us=self.CONFIG.flow_timeout_us)
        shifted = [FlowBlueprint(b.src_ip, b.dst_ip, b.src_port, b.dst_port,
                                 b.protocol, b.packets, b.start_us + 7_777_777)
                   for b in blueprints]
        base, _ = ingest_capture_detailed(
            write_capture(tmp_path, blueprints, seed, "a.pcap"), self.CONFIG)
        moved, _ = ingest_capture_detailed(
            write_capture(tmp_path, shifted, seed, "b.pcap"), self.CONFIG)
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert a.values == b.values

    @pytest.mark.parametrize("seed", [2, 13])
    def test_direction_reversal_invariance(self, tmp_path, seed):
        # Forward direction is anchored to the first observed packet's
        # source, so relabeling every packet's endpoints also moves the
        # anchor: per-direction statistics are reversal-invariant, and the
        # identity fields swap.  (A literal Fwd<->Bwd swap is impossible
        # under this anchoring; see the flow-orientation note in README.)
        rng = random.Random(seed)
        blueprints = capgen.random_blueprints(rng, timeout_us=self.CONFIG.flow_timeout_us)
        flipped = [FlowBlueprint(
            b.src_ip, b.dst_ip, b.src_port, b.dst_port, b.protocol,
            tuple(PacketBlueprint("bwd" if p.direction == "fwd" else "fwd",
                                  p.payload_len, p.gap_us, p.flags, p.window)
                  for p in b.packets),
            b.start_us) for b in blueprints]
        base, _ = ingest_capture_detailed(
            write_capture(tmp_path, blueprints, seed, "a.pcap"), self.CONFIG)
        rev, _ = ingest_capture_detailed(
            write_capture(tmp_path, flipped, seed, "b.pcap"), self.CONFIG)
        assert len(base) == len(rev)
        unoriented = lambda f: (f.start_ts_us,
                                tuple(sorted(((f.src_ip, f.src_port),
                                              (f.dst_ip, f.dst_port)))))
        base.sort(key=unoriented)
        rev.sort(key=unoriented)
        for a, b in zip(base, rev):
            fa, fb = oracle.named(a), oracle.named(b)
            assert (a.src_ip, a.src_port) == (b.dst_ip, b.dst_port)
            assert (a.dst_ip, a.dst_port) == (b.src_ip, b.src_port)
            for name in FEATURE_NAMES:
                if name == "Inbound":
                    continue  # follows the (swapped) forward destination
                assert fa[name] == pytest.approx(fb[name], rel=1e-9), name

    @pytest.mark.parametrize("seed", [7, 29])
    def test_payload_doubling_scales_length_features(self, tmp_path, seed):
        rng = random.Random(seed)
        blueprints = capgen.random_blueprints(rng, timeout_us=self.CONFIG.flow_timeout_us)
        doubled = [FlowBlueprint(
            b.src_ip, b.dst_ip, b.src_port, b.dst_port, b.protocol,
            tuple(PacketBlueprint(p.direction, p.payload_len * 2, p.gap_us,
                                  p.flags, p.window) for p in b.packets),
            b.start_us) for b in blueprints]
        base, _ = ingest_capture_detailed(
            write_capture(tmp_path, blueprints, seed, "a.pcap"), self.CONFIG)
        big, _ = ingest_capture_detailed(
            write_capture(tmp_path, doubled, seed, "b.pcap"), self.CONFIG)
        length_features = [n for n in FEATURE_NAMES
                           if "Packet Length" in n and "Variance" not in n]
        length_features += ["Total Length of Fwd Packets", "Total Length of Bwd Packets",
                            "Flow Bytes/s", "Average Packet Size",
                            "Avg Fwd Segment Size", "Avg Bwd Segment Size"]
        unchanged = ["Flow Duration", "Total Fwd Packets", "Total Backward Packets",
                     "Flow IAT Mean", "Fwd IAT Total", "Down/Up Ratio",
                     "SYN Flag Count", "Flow Packets/s", "Fwd Header Length"]
        assert len(base) == len(big)
        for a, b in zip(base, big):
            fa, fb = oracle.named(a), oracle.named(b)
            for name in length_features:
                assert 2 * fa[name] == pytest.approx(fb[name], rel=1e-9), name
            assert 4 * fa["Packet Length Variance"] == pytest.approx(
                fb["Packet Length Variance"], rel=1e-9)
            for name in unchanged:
                assert fa[name] == pytest.approx(fb[name], rel=1e-12), name


class TestMeterConfig:
    def test_timeout_ordering_enforced(self):
        with pytest.raises(ValidationError):
            MeterConfig(flow_timeout_us=1, activity_timeout_us=2)
        with pytest.raises(ValidationError):
            MeterConfig(flow_timeout_us=10, activity_timeout_us=0)
