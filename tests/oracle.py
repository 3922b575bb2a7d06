"""Brute-force flow feature oracle.

Recomputes every flow feature directly from per-key packet lists: group
packets by canonical bidirectional key, cut segments at idle timeouts and
TCP termination, then evaluate each statistic from the full lists with
two-pass formulas.  Shares only the packet decoder with the streaming
meter; everything downstream is independent.
"""

from __future__ import annotations

import ipaddress
import math

from botmeter.pcap import PacketRecord, ip_to_str

ACK, RST, FIN = 0x10, 0x04, 0x01


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def sample_std(xs):
    if len(xs) <= 1:
        return 0.0
    m = sum(xs) / len(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def stat4(xs):
    """mean, std, max, min with empty-set-is-zero semantics."""
    if not xs:
        return 0.0, 0.0, 0.0, 0.0
    return mean(xs), sample_std(xs), max(xs), min(xs)


def canonical_key(pkt: PacketRecord):
    a = (pkt.src_ip, pkt.src_port)
    b = (pkt.dst_ip, pkt.dst_port)
    if a > b:
        a, b = b, a
    return (*a, *b, pkt.protocol)


def segment_flows(packets, flow_timeout_us):
    """Split each key's packet list into flow segments.

    Boundaries: a gap of at least the flow timeout starts a new segment
    before the arriving packet; an RST, or an ACK once FINs were seen in
    both directions, ends the segment after the arriving packet.
    """
    by_key = {}
    order = []
    for pkt in packets:
        key = canonical_key(pkt)
        if key not in by_key:
            by_key[key] = []
            order.append(key)
        by_key[key].append(pkt)

    segments = []
    for key in order:
        current = []
        fins = {True: 0, False: 0}  # keyed by "is forward"
        for pkt in by_key[key]:
            if current and pkt.timestamp_us - current[-1].timestamp_us >= flow_timeout_us:
                segments.append(current)
                current = []
                fins = {True: 0, False: 0}
            closes = bool(current) and fins[True] > 0 and fins[False] > 0 \
                and bool(pkt.tcp_flags & ACK)
            current.append(pkt)
            initiator = (current[0].src_ip, current[0].src_port)
            if pkt.tcp_flags & FIN:
                fins[(pkt.src_ip, pkt.src_port) == initiator] += 1
            if pkt.tcp_flags & RST or closes:
                segments.append(current)
                current = []
                fins = {True: 0, False: 0}
        if current:
            segments.append(current)
    return segments


def active_idle_periods(timestamps, activity_timeout_us):
    """Burst lengths and inter-burst gaps, in arrival order."""
    active, idle = [], []
    start = last = timestamps[0]
    for ts in timestamps[1:]:
        gap = ts - last
        if gap > activity_timeout_us:
            active.append(last - start)
            idle.append(gap)
            start = last = ts
        else:
            last = ts
    active.append(last - start)
    return active, idle


def flow_features(packets, config):
    """Feature dict for one segment, brute-forced from the packet list."""
    first = packets[0]
    initiator = (first.src_ip, first.src_port)
    fwd = [p for p in packets if (p.src_ip, p.src_port) == initiator]
    bwd = [p for p in packets if (p.src_ip, p.src_port) != initiator]
    ts = [p.timestamp_us for p in packets]
    duration = ts[-1] - ts[0]
    all_len = [p.payload_len for p in packets]
    fwd_len = [p.payload_len for p in fwd]
    bwd_len = [p.payload_len for p in bwd]
    flow_iat = [b - a for a, b in zip(ts, ts[1:])]
    fwd_ts = [p.timestamp_us for p in fwd]
    bwd_ts = [p.timestamp_us for p in bwd]
    fwd_iat = [b - a for a, b in zip(fwd_ts, fwd_ts[1:])]
    bwd_iat = [b - a for a, b in zip(bwd_ts, bwd_ts[1:])]
    active, idle = active_idle_periods(ts, config.activity_timeout_us)

    def rate(count):
        return count * 1_000_000 / duration if duration > 0 else 0.0

    def flag_count(bit, pkts=packets):
        return sum(1 for p in pkts if p.tcp_flags & bit)

    def init_win(pkts):
        for p in pkts:
            if p.tcp_window is not None:
                return p.tcp_window
        return -1

    f = {}
    f["Flow Duration"] = duration
    f["Total Fwd Packets"] = len(fwd)
    f["Total Backward Packets"] = len(bwd)
    f["Total Length of Fwd Packets"] = sum(fwd_len)
    f["Total Length of Bwd Packets"] = sum(bwd_len)
    f["Fwd Packet Length Max"] = max(fwd_len) if fwd_len else 0
    f["Fwd Packet Length Min"] = min(fwd_len) if fwd_len else 0
    f["Fwd Packet Length Mean"] = mean(fwd_len)
    f["Fwd Packet Length Std"] = sample_std(fwd_len)
    f["Bwd Packet Length Max"] = max(bwd_len) if bwd_len else 0
    f["Bwd Packet Length Min"] = min(bwd_len) if bwd_len else 0
    f["Bwd Packet Length Mean"] = mean(bwd_len)
    f["Bwd Packet Length Std"] = sample_std(bwd_len)
    f["Flow Bytes/s"] = rate(sum(all_len))
    f["Flow Packets/s"] = rate(len(packets))
    (f["Flow IAT Mean"], f["Flow IAT Std"],
     f["Flow IAT Max"], f["Flow IAT Min"]) = stat4(flow_iat)
    f["Fwd IAT Total"] = sum(fwd_iat)
    (f["Fwd IAT Mean"], f["Fwd IAT Std"],
     f["Fwd IAT Max"], f["Fwd IAT Min"]) = stat4(fwd_iat)
    f["Bwd IAT Total"] = sum(bwd_iat)
    (f["Bwd IAT Mean"], f["Bwd IAT Std"],
     f["Bwd IAT Max"], f["Bwd IAT Min"]) = stat4(bwd_iat)
    f["Fwd PSH Flags"] = flag_count(0x08, fwd)
    f["Bwd PSH Flags"] = flag_count(0x08, bwd)
    f["Fwd URG Flags"] = flag_count(0x20, fwd)
    f["Bwd URG Flags"] = flag_count(0x20, bwd)
    f["Fwd Header Length"] = sum(p.header_len for p in fwd)
    f["Bwd Header Length"] = sum(p.header_len for p in bwd)
    f["Fwd Packets/s"] = rate(len(fwd))
    f["Bwd Packets/s"] = rate(len(bwd))
    f["Min Packet Length"] = min(all_len)
    f["Max Packet Length"] = max(all_len)
    f["Packet Length Mean"] = mean(all_len)
    f["Packet Length Std"] = sample_std(all_len)
    f["Packet Length Variance"] = sample_std(all_len) ** 2
    f["FIN Flag Count"] = flag_count(0x01)
    f["SYN Flag Count"] = flag_count(0x02)
    f["RST Flag Count"] = flag_count(0x04)
    f["PSH Flag Count"] = flag_count(0x08)
    f["ACK Flag Count"] = flag_count(0x10)
    f["URG Flag Count"] = flag_count(0x20)
    f["CWR Flag Count"] = flag_count(0x80)
    f["ECE Flag Count"] = flag_count(0x40)
    f["Down/Up Ratio"] = len(bwd) / len(fwd) if fwd else 0.0
    f["Average Packet Size"] = sum(all_len) / len(packets)
    f["Avg Fwd Segment Size"] = mean(fwd_len)
    f["Avg Bwd Segment Size"] = mean(bwd_len)
    f["Init Fwd Win Bytes"] = init_win(fwd)
    f["Init Bwd Win Bytes"] = init_win(bwd)
    (f["Active Mean"], f["Active Std"],
     f["Active Max"], f["Active Min"]) = stat4(active)
    (f["Idle Mean"], f["Idle Std"],
     f["Idle Max"], f["Idle Min"]) = stat4(idle)
    dst = ipaddress.ip_address(ip_to_str(first.dst_ip))
    f["Inbound"] = int(any(
        dst in ipaddress.ip_network(p) for p in config.home_prefixes
        if ipaddress.ip_network(p).version == dst.version))
    return f


# Integer-valued features (counts, byte totals, microsecond extrema):
# compared exactly, the rest within a relative tolerance.
INT_FEATURES = frozenset((
    "Flow Duration",
    "Total Fwd Packets", "Total Backward Packets",
    "Total Length of Fwd Packets", "Total Length of Bwd Packets",
    "Fwd Packet Length Max", "Fwd Packet Length Min",
    "Bwd Packet Length Max", "Bwd Packet Length Min",
    "Flow IAT Max", "Flow IAT Min",
    "Fwd IAT Total", "Fwd IAT Max", "Fwd IAT Min",
    "Bwd IAT Total", "Bwd IAT Max", "Bwd IAT Min",
    "Fwd PSH Flags", "Bwd PSH Flags", "Fwd URG Flags", "Bwd URG Flags",
    "Fwd Header Length", "Bwd Header Length",
    "Min Packet Length", "Max Packet Length",
    "FIN Flag Count", "SYN Flag Count", "RST Flag Count", "PSH Flag Count",
    "ACK Flag Count", "URG Flag Count", "CWR Flag Count", "ECE Flag Count",
    "Init Fwd Win Bytes", "Init Bwd Win Bytes",
    "Active Max", "Active Min", "Idle Max", "Idle Min",
    "Inbound",
))


def named(fv):
    """A FeatureVector's features by name."""
    from botmeter.features import FEATURE_NAMES

    return dict(zip(FEATURE_NAMES, fv.values))


def assert_flows_match(meter_flows, oracle_flows, rel_tol=1e-9):
    """Field-for-field comparison: counts exact, reals within rel_tol, and
    every metered value of its column's type in ``FEATURE_COLUMNS``."""
    from botmeter.features import FEATURE_COLUMNS, FEATURE_NAMES

    assert len(meter_flows) == len(oracle_flows), (
        f"flow count mismatch: meter {len(meter_flows)} vs oracle {len(oracle_flows)}")
    metered = sorted(meter_flows, key=lambda fv: (fv.flow_id, fv.start_ts_us))
    expected = sorted(oracle_flows, key=lambda e: (e[0]["Flow ID"], e[0]["Timestamp"]))
    for fv, (identity, feats) in zip(metered, expected):
        assert fv.flow_id == identity["Flow ID"]
        assert fv.src_ip == identity["Source IP"]
        assert fv.src_port == identity["Source Port"]
        assert fv.dst_ip == identity["Destination IP"]
        assert fv.dst_port == identity["Destination Port"]
        assert fv.protocol == identity["Protocol"]
        assert fv.start_ts_us == identity["Timestamp"]
        assert len(fv.values) == len(FEATURE_NAMES)
        got_feats = named(fv)
        for name, kind in FEATURE_COLUMNS:
            got, want = got_feats[name], feats[name]
            assert type(got) is kind, (
                f"{fv.flow_id} {name}: {got!r} is not {kind.__name__}")
            if name in INT_FEATURES:
                assert got == want, f"{fv.flow_id} {name}: {got} != {want}"
            else:
                assert math.isclose(got, want, rel_tol=rel_tol, abs_tol=rel_tol), (
                    f"{fv.flow_id} {name}: {got} != {want}")


def expected_flows(packets, config):
    """All (identity, features) pairs the meter should produce from
    ``packets``, 10-tuples in ``PacketRecord`` field order."""
    out = []
    for seg in segment_flows(map(PacketRecord._make, packets), config.flow_timeout_us):
        first = seg[0]
        src, dst = ip_to_str(first.src_ip), ip_to_str(first.dst_ip)
        identity = {
            "Flow ID": f"{src}-{dst}-{first.src_port}-{first.dst_port}-{first.protocol}",
            "Source IP": src,
            "Source Port": first.src_port,
            "Destination IP": dst,
            "Destination Port": first.dst_port,
            "Protocol": first.protocol,
            "Timestamp": first.timestamp_us,
        }
        out.append((identity, flow_features(seg, config)))
    return out
