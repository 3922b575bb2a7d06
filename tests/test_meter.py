import gc
import ipaddress
import random
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from botmeter.errors import ValidationError
from botmeter.features import FEATURE_COLUMNS, FEATURE_NAMES, compute_features
from botmeter.meter import (DEFAULT_CONFIG, FlowAccumulator, FlowTable, MeterConfig,
                            ingest_capture_detailed)
from botmeter.pcap import ACK, FIN, PSH, RST, SYN, CaptureStats, PacketRecord, read_capture
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
    return list(map(PacketRecord._make, read_capture(path, stats))), stats


def packets_of(flow):
    """Forward plus backward packets of a finished flow, an accumulator or
    the packet of a one-packet flow."""
    f = oracle.named(compute_features(flow))
    return f["Total Fwd Packets"] + f["Total Backward Packets"]


def simple_flow(payloads_gaps, protocol=TCP, src="10.0.0.1", dst="8.8.8.8",
                sport=1234, dport=80):
    packets = tuple(
        PacketBlueprint(direction, payload, gap, flags="A" if protocol == TCP else "")
        for direction, payload, gap in payloads_gaps)
    return FlowBlueprint(src, dst, sport, dport, protocol, packets)


def test_schema_int_columns_are_the_oracle_int_features():
    # The oracle keeps its own list as the reference; the schema must agree.
    assert {name for name, kind in FEATURE_COLUMNS if kind is int} == \
        oracle.INT_FEATURES
    assert {kind for _, kind in FEATURE_COLUMNS} == {int, float}
    assert len(FEATURE_COLUMNS) == len(set(FEATURE_NAMES)) == 65


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

    @pytest.mark.parametrize("record, reordered", [(0, 2), (1, 1)])
    def test_out_of_order_timestamps_meter_on_a_monotone_clock(
            self, tmp_path, record, reordered):
        # One record of a 3-packet flow restamped to 100 s: the records
        # after it, stamped near 0 s, are metered at 100 s.
        data = bytearray(generate_synthetic_capture(
            [simple_flow([("fwd", 10, 0), ("bwd", 20, 2), ("fwd", 30, 3)])], seed=0))
        offset = 24
        for _ in range(record):
            offset += 16 + int.from_bytes(data[offset + 8:offset + 12], "little")
        data[offset:offset + 4] = (100).to_bytes(4, "little")
        path = tmp_path / "reordered.pcap"
        path.write_bytes(bytes(data))
        config = MeterConfig()
        flows, stats = ingest_capture_detailed(str(path), config)
        assert (stats.records, stats.decoded, stats.skipped) == (3, 3, 0)
        assert stats.reordered == reordered
        packets, _ = parse(str(path))
        assert all(a.timestamp_us <= b.timestamp_us for a, b in zip(packets, packets[1:]))
        (f,) = flows
        timed = [name for name in FEATURE_NAMES
                 if "Duration" in name or "IAT" in name or "Active" in name
                 or "Idle" in name]
        assert all(oracle.named(f)[name] >= 0 for name in timed)
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

    def test_one_offer_per_decoded_packet_and_one_compute_per_flow(
            self, tmp_path, monkeypatch):
        # bench/spans.py times the meter and feature layers by wrapping
        # these two attributes: a loop that bypassed either would time as 0.
        from botmeter import features
        offer, compute = FlowTable.offer_packet, features.compute_features
        calls = {"offer": 0, "compute": 0}

        def offer_spy(table, pkt):
            calls["offer"] += 1
            return offer(table, pkt)

        def compute_spy(*args):
            calls["compute"] += 1
            return compute(*args)

        monkeypatch.setattr(FlowTable, "offer_packet", offer_spy)
        monkeypatch.setattr(features, "compute_features", compute_spy)
        seq = [("fwd", 0, 0, "S"), ("bwd", 0, 10, "SA"), ("fwd", 0, 10, "FA"),
               ("bwd", 0, 10, "FA"), ("fwd", 0, 10, "A")]
        closed = FlowBlueprint("10.0.0.1", "8.8.8.8", 1234, 80, TCP, tuple(
            PacketBlueprint(d, p, g, flags=fl) for d, p, g, fl in seq))
        reset = FlowBlueprint("10.0.0.1", "8.8.8.8", 1235, 80, TCP, (
            PacketBlueprint("fwd", 0, 0, flags="S"),
            PacketBlueprint("bwd", 0, 10, flags="R")), start_us=5)
        timed_out = simple_flow([("fwd", 10, 0), ("fwd", 10, 150_000_000)],
                                protocol=UDP, sport=53)
        flows, stats = ingest_capture_detailed(
            write_capture(tmp_path, [closed, reset, timed_out]))
        assert (stats.decoded, stats.flows, len(flows)) == (9, 4, 4)
        assert calls == {"offer": stats.decoded, "compute": stats.flows}

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
        assert packets_of(emitted[0]) == 1
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
        assert packets_of(emitted[0]) == 6
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
        assert packets_of(emitted[0]) == 2
        residual = table.flush()
        assert len(residual) == 1  # packet 3 started a fresh flow
        assert packets_of(residual[0]) == 1

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

    def test_no_config_means_one_shared_default(self, tmp_path):
        # 10.0.0.1 is in a default home prefix, so the Inbound feature
        # depends on the config.
        bp = simple_flow([("fwd", 10, 0), ("bwd", 20, 100), ("fwd", 5, 50)])
        packets, _ = parse(write_capture(tmp_path, [bp]))
        table = FlowTable()
        self.offer_all(table, packets)
        (flow,) = table.flush()
        assert compute_features(flow) == compute_features(flow, MeterConfig())
        assert table.config is DEFAULT_CONFIG and DEFAULT_CONFIG == MeterConfig()


# Packets for held-flow tests: a few endpoints, so that keys recur in both
# directions, and a flow timeout that short gaps can cross.
HELD_CONFIG = MeterConfig(flow_timeout_us=1_000, activity_timeout_us=100)
ENDPOINTS = [(ipaddress.ip_address(ip).packed, port)
             for ip in ("10.0.0.1", "8.8.8.8") for port in (53, 80)]


def pkt(ts, src, dst, flags=0, length=10, protocol=TCP, window=None):
    """A packet from ``ENDPOINTS[src]`` to ``ENDPOINTS[dst]`` at ``ts``; a TCP
    window defaults to ``1000 + ts``."""
    (src_ip, src_port), (dst_ip, dst_port) = ENDPOINTS[src], ENDPOINTS[dst]
    if protocol != TCP:
        window = None
    elif window is None:
        window = 1000 + ts
    return PacketRecord(ts, src_ip, dst_ip, src_port, dst_port, protocol,
                        length, 40, flags, window)


def meter(packets, config=HELD_CONFIG):
    """(finished flows in emission order, the flush's part of them)."""
    table = FlowTable(config)
    finished = [flow for p in packets for flow in table.offer_packet(p)]
    flushed = table.flush()
    return finished + flushed, flushed


def assert_oracle_flows(packets, flows, config=HELD_CONFIG):
    oracle.assert_flows_match([compute_features(f, config) for f in flows],
                              oracle.expected_flows(packets, config))


def live_accumulators():
    gc.collect()
    return sum(type(obj) is FlowAccumulator for obj in gc.get_objects())


class TestInitWindows:
    # The decoder gives every TCP packet a window, but a hand-built packet
    # may have none: a direction's first window, even 0, is its initial
    # window.
    @pytest.mark.parametrize("packets, init_wins", [
        ([pkt(0, 0, 2, SYN)._replace(tcp_window=None), pkt(5, 0, 2, ACK, window=0),
          pkt(9, 2, 0, ACK, window=3)], (0, 3)),
        ([pkt(0, 0, 2, SYN, window=7), pkt(5, 2, 0, ACK)._replace(tcp_window=None),
          pkt(9, 2, 0, ACK, window=0)], (7, 0)),
    ], ids=["forward", "backward"])
    def test_a_window_of_0_after_none_is_the_init_window(self, packets, init_wins):
        flows, _ = meter(packets)
        (f,) = [oracle.named(compute_features(flow, HELD_CONFIG)) for flow in flows]
        assert (f["Init Fwd Win Bytes"], f["Init Bwd Win Bytes"]) == init_wins
        assert_oracle_flows(packets, flows)


class TestHeldFlows:
    """A live one-packet flow is held as its packet; its accumulator is
    built when a second packet of its key arrives, in the flow's place."""

    def test_key_returning_after_the_timeout_emits_the_held_packet(self):
        first, second = pkt(0, 0, 2), pkt(1_000, 0, 2)
        table = FlowTable(HELD_CONFIG)
        assert table.offer_packet(first) == []
        (emitted,) = table.offer_packet(second)
        assert emitted is first
        (live,) = table.flush()
        assert live is second
        assert_oracle_flows([first, second], [emitted, live])

    def test_rst_on_the_first_packet_finishes_the_packet(self):
        packets = [pkt(0, 0, 2, RST), pkt(5, 0, 2)]
        table = FlowTable(HELD_CONFIG)
        (reset,) = table.offer_packet(packets[0])
        assert reset is packets[0]
        assert table.offer_packet(packets[1]) == []
        (live,) = table.flush()
        assert live is packets[1]
        assert oracle.named(compute_features(reset))["RST Flag Count"] == 1
        assert_oracle_flows(packets, [reset, live])

    @pytest.mark.parametrize("src, dst", [(0, 2), (2, 0)])
    def test_reverse_second_packet_keeps_the_held_orientation(self, src, dst):
        # (2, 0): the held packet runs from the endpoint that sorts last.
        packets = [pkt(0, src, dst, SYN), pkt(7, dst, src, SYN | ACK, length=0)]
        flows, flushed = meter(packets)
        (flow,) = flushed
        assert type(flow) is FlowAccumulator
        fv = compute_features(flow, HELD_CONFIG)
        f = oracle.named(fv)
        assert (fv.src_port, fv.dst_port) == (ENDPOINTS[src][1], ENDPOINTS[dst][1])
        assert (f["Total Fwd Packets"], f["Total Backward Packets"]) == (1, 1)
        assert (f["Init Fwd Win Bytes"], f["Init Bwd Win Bytes"]) == (1000, 1007)
        assert_oracle_flows(packets, flows)

    def test_held_and_promoted_flows_flush_in_flow_start_order(self):
        packets = [pkt(0, 0, 2), pkt(10, 1, 3), pkt(20, 2, 0), pkt(30, 0, 3),
                   pkt(40, 3, 1, PSH), pkt(50, 1, 2), pkt(60, 1, 3)]
        flows, flushed = meter(packets)
        assert flows == flushed
        assert [type(f) for f in flushed] == [
            FlowAccumulator, FlowAccumulator, PacketRecord, PacketRecord]
        starts = [compute_features(f, HELD_CONFIG).start_ts_us for f in flushed]
        assert starts == [0, 10, 30, 50]
        assert_oracle_flows(packets, flows)

    # Gaps on both sides of the activity (100) and flow (1,000) timeouts;
    # any flag byte, the common ones more often; windows that include 0,
    # which no "unset" test may skip.  Random flags seldom close a flow, so
    # a step may also be a scripted TCP close, as (reply?, flags) packets:
    # only an ACK after FINs both ways ends the flow, not the PSH before it.
    CLOSES = (((0, ACK), (0, FIN | ACK), (1, FIN | ACK), (0, ACK)),
              ((0, ACK), (0, FIN | ACK), (1, FIN | ACK), (0, PSH), (1, ACK)))
    # Short lists alone seldom bring a key back in the other direction.
    STEP = st.tuples(
        st.sampled_from([0, 1, 10, 100, 101, 999, 1_000, 3_000]),
        st.integers(0, 3), st.integers(0, 3),
        st.one_of(st.sampled_from((0, SYN, ACK, PSH | ACK, FIN | ACK, RST,
                                   RST | ACK) + CLOSES),
                  st.integers(0, 255)),
        st.integers(0, 1460), st.sampled_from([TCP, UDP]),
        st.sampled_from([0, 1, 1024, 65535]))

    # Lists of up to 19 steps.  A failing list still shrinks, but is not
    # explained: Hypothesis's explain phase took 190 s of a 207 s failing run.
    @settings(max_examples=150, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(st.lists(STEP, max_size=19))
    def test_flows_match_the_oracle(self, steps):
        self.check_steps(steps)

    # Shrinking a failing list of 20 or more steps took minutes and hundreds
    # of MB, so these report the example Hypothesis first found.
    @settings(max_examples=150, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.shrink])
    @given(st.lists(STEP, min_size=20, max_size=40))
    def test_long_step_lists_match_the_oracle(self, steps):
        self.check_steps(steps)

    def check_steps(self, steps):
        packets, ts = [], 0
        for gap, src, dst, flags, length, protocol, window in steps:
            if src == dst:
                continue
            ts += gap
            if flags in self.CLOSES:
                packets += [pkt(ts, *((dst, src) if reply else (src, dst)), fl,
                                length, TCP, window) for reply, fl in flags]
            else:
                packets.append(pkt(ts, src, dst, flags if protocol == TCP else 0,
                                   length, protocol, window))
        flows, flushed = meter(packets)
        assert_oracle_flows(packets, flows)
        starts = [compute_features(f, HELD_CONFIG).start_ts_us for f in flushed]
        assert starts == sorted(starts)
        # Exactly the one-packet flows come out as their packet.
        assert [type(f) is PacketRecord for f in flows] == [
            packets_of(f) == 1 for f in flows]

    def test_only_multi_packet_flows_hold_an_accumulator(self, tmp_path):
        # 4 one-packet flows and 8 longer ones, all live at the end.
        blueprints = [simple_flow([("fwd", 10, 0)] + [("bwd", 5, 10)] * (i % 3),
                                  sport=2000 + i) for i in range(12)]
        path = write_capture(tmp_path, [
            FlowBlueprint(b.src_ip, b.dst_ip, b.src_port, b.dst_port, b.protocol,
                          b.packets, start_us=100 * i)
            for i, b in enumerate(blueprints)])
        multi = sum(len(b.packets) > 1 for b in blueprints)
        packets, _ = parse(path)
        before = live_accumulators()
        table = FlowTable()
        for p in packets:
            assert table.offer_packet(p) == []
        flushed = table.flush()
        assert len(flushed) == 12
        assert live_accumulators() - before == multi == 8
        del flushed, table
        # All 12 flows come out of the flush, in blueprint order, and each
        # multi-packet flow's accumulator is freed as it is emitted: the
        # count never rises and falls by one per multi-packet flow.
        live = []
        ingest_capture_detailed(path, emit=lambda fv: live.append(live_accumulators()))
        assert len(live) == 12
        assert max(live) - before == multi
        assert [a - b for a, b in zip(live, live[1:])] == [
            len(b.packets) > 1 for b in blueprints[1:]]
        assert live[-1] == before


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

    @pytest.mark.parametrize("prefixes, message", [
        (("10.0.0.0/8", "10.0.0.0/33"), "bad home prefix '10.0.0.0/33'"),
        (("192.168.1.1/16",), "bad home prefix '192.168.1.1/16'"),
        ("10.0.0.0/8", "not the string '10.0.0.0/8'"),
    ])
    def test_bad_home_prefixes_are_refused_at_construction(self, prefixes, message):
        with pytest.raises(ValidationError, match=message):
            MeterConfig(home_prefixes=prefixes)

    def test_home_prefixes_may_be_any_sequence(self, tmp_path):
        config = MeterConfig(home_prefixes=["8.8.0.0/16"])
        assert config.home_prefixes == ("8.8.0.0/16",)
        path = write_capture(tmp_path, [simple_flow([("fwd", 10, 0)])])
        (fv,), _ = ingest_capture_detailed(path, config)
        assert oracle.named(fv)["Inbound"] == 1

    def test_each_config_drives_inbound_by_its_own_prefixes(self, tmp_path):
        path = write_capture(tmp_path, [
            simple_flow([("fwd", 10, 0)], dst="8.8.8.8"),
            simple_flow([("fwd", 10, 0)], src="2001:db8::1", dst="2001:db8:5::9"),
            simple_flow([("fwd", 10, 0)], src="8.8.4.4", dst="192.168.1.5")])
        cases = [(MeterConfig(home_prefixes=("8.8.0.0/16",)), (1, 0, 0)),
                 (MeterConfig(home_prefixes=["2001:db8:4::/47", "8.8.8.8/32"]),
                  (1, 1, 0)),
                 (MeterConfig(home_prefixes=()), (0, 0, 0)),
                 (MeterConfig(), (0, 0, 1))]
        # Each config twice, interleaved: none sees another's networks.
        for config, inbound in cases + cases:
            flows, _ = ingest_capture_detailed(path, config)
            assert {fv.dst_ip: oracle.named(fv)["Inbound"] for fv in flows} == dict(
                zip(("8.8.8.8", "2001:db8:5::9", "192.168.1.5"), inbound))

    def test_parsed_networks_leave_equality_hash_and_repr_alone(self):
        a, b = MeterConfig(), MeterConfig()
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == (
            "MeterConfig(flow_timeout_us=120000000, activity_timeout_us=5000000, "
            "home_prefixes=('10.0.0.0/8', '172.16.0.0/12', '192.168.0.0/16', "
            "'fc00::/7'))")
        assert a.home_networks == {
            4: ((0x0A000000, 0xFF000000), (0xAC100000, 0xFFF00000),
                (0xC0A80000, 0xFFFF0000)),
            16: ((0xFC << 120, 0xFE << 120),)}
        other = replace(a, home_prefixes=["8.8.0.0/16"])
        assert other != a
        assert other.home_networks == {4: ((0x08080000, 0xFFFF0000),), 16: ()}
