import math
import statistics

from hypothesis import example, given
from hypothesis import strategies as st

from botmeter.pcap import PacketRecord
from botmeter.meter import FlowKey, FlowTable
from botmeter.stats import RunningStats

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


class TestRunningStats:
    def test_empty_is_all_zero(self):
        rs = RunningStats()
        assert (rs.count, rs.mean, rs.std, rs.min, rs.max) == (0, 0.0, 0.0, 0.0, 0.0)

    def test_singleton_std_is_zero(self):
        rs = RunningStats()
        rs.add(42.0)
        assert rs.std == 0.0
        assert rs.mean == rs.min == rs.max == 42.0

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_matches_two_pass_statistics(self, values):
        rs = RunningStats()
        for v in values:
            rs.add(v)
        assert rs.count == len(values)
        assert math.isclose(rs.mean, sum(values) / len(values),
                            rel_tol=1e-9, abs_tol=1e-9)
        assert rs.min == min(values)
        assert rs.max == max(values)
        expected_std = statistics.stdev(values) if len(values) > 1 else 0.0
        assert math.isclose(rs.std, expected_std, rel_tol=1e-7, abs_tol=1e-7)

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    @example([357913941.8457235] * 3)  # the sum's quotient rounds below min
    def test_min_mean_max_ordering(self, values):
        rs = RunningStats()
        for v in values:
            rs.add(v)
        assert rs.min <= rs.mean + 1e-9
        assert rs.mean <= rs.max + 1e-9


def _packet(src, sport, dst, dport, proto=6, flags=0):
    return PacketRecord(timestamp_us=0, src_ip=src, dst_ip=dst,
                        src_port=sport, dst_port=dport, protocol=proto,
                        payload_len=0, header_len=40, tcp_flags=flags)


class TestFlowKey:
    @given(st.binary(min_size=4, max_size=4), st.integers(0, 65535),
           st.binary(min_size=4, max_size=4), st.integers(0, 65535),
           st.sampled_from([1, 6, 17]))
    def test_reverse_packet_same_key(self, ip1, p1, ip2, p2, proto):
        fwd = _packet(ip1, p1, ip2, p2, proto)
        rev = _packet(ip2, p2, ip1, p1, proto)
        assert FlowKey.of(fwd) == FlowKey.of(rev)

    def test_distinct_tuples_distinct_keys(self):
        a = FlowKey.of(_packet(b"\x01\x02\x03\x04", 1, b"\x05\x06\x07\x08", 2))
        b = FlowKey.of(_packet(b"\x01\x02\x03\x04", 1, b"\x05\x06\x07\x08", 3))
        assert a != b

    @given(st.binary(min_size=4, max_size=4), st.integers(0, 65535),
           st.binary(min_size=4, max_size=4), st.integers(0, 65535))
    def test_table_keys_flows_by_flow_key(self, ip1, p1, ip2, p2):
        # A RST finalizes the flow at once, exposing the key the table used.
        for pkt in (_packet(ip1, p1, ip2, p2, flags=0x04),
                    _packet(ip2, p2, ip1, p1, flags=0x04)):
            (flow,) = FlowTable().offer_packet(pkt)
            assert flow.key == FlowKey.of(pkt)
            assert hash(flow.key) == hash(FlowKey.of(pkt))
