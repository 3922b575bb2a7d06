import math
import statistics
from fractions import Fraction

from hypothesis import assume, example, given
from hypothesis import strategies as st

from botmeter.features import _moments, _moments_of, compute_features
from botmeter.pcap import RST, PacketRecord
from botmeter.meter import FlowTable

import oracle

# Every sample the meter sees is an integer: a length, or a difference of
# microsecond timestamps, which can be negative in an out-of-order capture.
samples = st.integers(min_value=-2**62, max_value=2**62)


class TestRunningStats:
    """The meter's running statistics: exact integer moments kept by the
    flow accumulator, finalized by ``features._moments``."""

    def test_empty_is_all_zero(self):
        assert _moments_of([]) == (0.0, 0.0, 0, 0)
        assert _moments(0, 0, 0, math.inf, -math.inf) == (0.0, 0.0, 0, 0)

    def test_singleton_std_is_zero(self):
        mean, std, hi, lo = _moments_of([42])
        assert std == 0.0
        assert mean == lo == hi == 42

    @given(st.lists(samples, min_size=1, max_size=60))
    def test_matches_two_pass_statistics(self, values):
        mean, std, hi, lo = _moments_of(values)
        # statistics.mean sums ints exactly; fmean rounds each value to a
        # float first, which loses the mean of [4611685982427377707,
        # -4611685973427387957] by 5.
        assert math.isclose(mean, statistics.mean(values), rel_tol=1e-9, abs_tol=1e-9)
        assert lo == min(values)
        assert hi == max(values)
        expected_std = statistics.stdev(values) if len(values) > 1 else 0.0
        assert math.isclose(std, expected_std, rel_tol=1e-7, abs_tol=1e-7)

    @given(st.lists(samples, min_size=1, max_size=60))
    @example([2**62 - 1] * 3)      # the extremes themselves round up to 2**62
    @example([357913941] * 3)
    def test_min_mean_max_ordering(self, values):
        mean, _, hi, lo = _moments_of(values)
        # Rounding is monotonic, so the rounded mean of an exact sum lies
        # between the rounded extremes.
        assert float(lo) <= mean <= float(hi)

    @given(st.lists(samples, min_size=1, max_size=60))
    @example([943, 1051, 959, 1465])  # Welford's one-pass std was 1 ulp off 245
    def test_mean_and_std_equal_fraction_evaluation_to_the_bit(self, values):
        n, s, q = len(values), sum(values), sum(v * v for v in values)
        mean, std, _, _ = _moments(n, s, q, min(values), max(values))
        assert mean == float(Fraction(s, n))
        expected_std = math.sqrt(float(Fraction(n * q - s * s, n * (n - 1)))) if n > 1 else 0.0
        assert std == expected_std


def _packet(src, sport, dst, dport, proto=6, flags=0):
    return PacketRecord(timestamp_us=0, src_ip=src, dst_ip=dst,
                        src_port=sport, dst_port=dport, protocol=proto,
                        payload_len=0, header_len=40, tcp_flags=flags)


def _counts(flow):
    """(forward packets, backward packets, destination port) of a finished
    flow, an accumulator or the packet of a one-packet flow."""
    fv = compute_features(flow)
    f = oracle.named(fv)
    return f["Total Fwd Packets"], f["Total Backward Packets"], fv.dst_port


class TestFlowKey:
    """The table's canonical key, seen through the flows it builds: a RST
    finalizes a flow at once, exposing which flow a packet joined."""

    @given(st.binary(min_size=4, max_size=4), st.integers(0, 65535),
           st.binary(min_size=4, max_size=4), st.integers(0, 65535),
           st.sampled_from([1, 6, 17]))
    def test_reverse_packet_joins_the_flow(self, ip1, p1, ip2, p2, proto):
        table = FlowTable()
        assert table.offer_packet(_packet(ip1, p1, ip2, p2, proto)) == []
        (flow,) = table.offer_packet(_packet(ip2, p2, ip1, p1, proto, flags=RST))
        fwd, bwd, _ = _counts(flow)
        assert fwd + bwd == 2
        assert table.flush() == []

    @given(st.binary(min_size=4, max_size=4), st.integers(0, 65535),
           st.binary(min_size=4, max_size=4), st.integers(0, 65535),
           st.integers(0, 65535), st.sampled_from([1, 6, 17]))
    def test_another_port_makes_another_flow(self, ip1, p1, ip2, p2, p3, proto):
        assume(p3 != p2)
        table = FlowTable()
        assert table.offer_packet(_packet(ip1, p1, ip2, p2, proto)) == []
        (flow,) = table.offer_packet(_packet(ip1, p1, ip2, p3, proto, flags=RST))
        assert _counts(flow) == (1, 0, p3)
        (live,) = table.flush()
        assert _counts(live) == (1, 0, p2)
