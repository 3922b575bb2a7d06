"""The canonical per-flow feature vector.

Durations and inter-arrival times are microseconds, rates are per second,
lengths are transport-payload bytes.  Rates over a zero-length flow and
statistics over empty sample sets are all defined as 0 so every field stays
finite and numeric.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .meter import DEFAULT_CONFIG, FlowAccumulator, MeterConfig
from .pcap import ip_to_str

IDENTITY_COLUMNS = (
    "Flow ID",
    "Source IP",
    "Source Port",
    "Destination IP",
    "Destination Port",
    "Protocol",
    "Timestamp",
)

# The 65 model features, in CSV column order, each with the type of its
# values: counts, byte totals, flags and microsecond totals and extremes are
# ints; means, deviations, variances, rates and ratios are floats.
FEATURE_COLUMNS = (
    ("Flow Duration", int),
    ("Total Fwd Packets", int),
    ("Total Backward Packets", int),
    ("Total Length of Fwd Packets", int),
    ("Total Length of Bwd Packets", int),
    ("Fwd Packet Length Max", int),
    ("Fwd Packet Length Min", int),
    ("Fwd Packet Length Mean", float),
    ("Fwd Packet Length Std", float),
    ("Bwd Packet Length Max", int),
    ("Bwd Packet Length Min", int),
    ("Bwd Packet Length Mean", float),
    ("Bwd Packet Length Std", float),
    ("Flow Bytes/s", float),
    ("Flow Packets/s", float),
    ("Flow IAT Mean", float),
    ("Flow IAT Std", float),
    ("Flow IAT Max", int),
    ("Flow IAT Min", int),
    ("Fwd IAT Total", int),
    ("Fwd IAT Mean", float),
    ("Fwd IAT Std", float),
    ("Fwd IAT Max", int),
    ("Fwd IAT Min", int),
    ("Bwd IAT Total", int),
    ("Bwd IAT Mean", float),
    ("Bwd IAT Std", float),
    ("Bwd IAT Max", int),
    ("Bwd IAT Min", int),
    ("Fwd PSH Flags", int),
    ("Bwd PSH Flags", int),
    ("Fwd URG Flags", int),
    ("Bwd URG Flags", int),
    ("Fwd Header Length", int),
    ("Bwd Header Length", int),
    ("Fwd Packets/s", float),
    ("Bwd Packets/s", float),
    ("Min Packet Length", int),
    ("Max Packet Length", int),
    ("Packet Length Mean", float),
    ("Packet Length Std", float),
    ("Packet Length Variance", float),
    ("FIN Flag Count", int),
    ("SYN Flag Count", int),
    ("RST Flag Count", int),
    ("PSH Flag Count", int),
    ("ACK Flag Count", int),
    ("URG Flag Count", int),
    ("CWR Flag Count", int),
    ("ECE Flag Count", int),
    ("Down/Up Ratio", float),
    ("Average Packet Size", float),
    ("Avg Fwd Segment Size", float),
    ("Avg Bwd Segment Size", float),
    ("Init Fwd Win Bytes", int),
    ("Init Bwd Win Bytes", int),
    ("Active Mean", float),
    ("Active Std", float),
    ("Active Max", int),
    ("Active Min", int),
    ("Idle Mean", float),
    ("Idle Std", float),
    ("Idle Max", int),
    ("Idle Min", int),
    ("Inbound", int),
)
FEATURE_NAMES = tuple(name for name, _ in FEATURE_COLUMNS)


class FeatureVector(NamedTuple):
    """One finalized flow: identity fields plus the 65 model features,
    ``values``, in ``FEATURE_COLUMNS`` order and of its types."""

    flow_id: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: int
    start_ts_us: int
    values: tuple


# Builds a FeatureVector from a field tuple without the Python-level __new__
# that NamedTuple generates; ``compute_features`` makes one per flow.
_tuple_new = tuple.__new__

# The text of the addresses of recent flows: scanners and popular servers
# recur flow after flow.
_address_text = lru_cache(maxsize=1024)(ip_to_str)


def _variance(n: int, s: int, q: int) -> float:
    """Sample variance of n integers with sum s and sum of squares q: the
    exact (n·q − s²) / (n(n−1)), correctly rounded by one int division; 0
    when n ≤ 1."""
    return (n * q - s * s) / (n * (n - 1)) if n > 1 else 0.0


# (mean, std, max, min) of an empty sample set.
_NO_SAMPLES = (0.0, 0.0, 0, 0)


def _moments(n: int, s: int, q: int, lo: int, hi: int) -> tuple:
    """(mean, std, max, min) of n integer samples with sum s, sum of squares
    q, least lo and greatest hi; all 0 when n ≤ 0.  The mean is the
    correctly rounded s / n, so it lies between the rounded lo and hi."""
    if n <= 0:
        return _NO_SAMPLES
    if n == 1:
        return s / n, 0.0, hi, lo
    return s / n, math.sqrt(_variance(n, s, q)), hi, lo


def _moments_of(values: list[int]) -> tuple:
    return _moments(len(values), sum(values), sum(v * v for v in values),
                    min(values, default=0), max(values, default=0))


def compute_features(flow: FlowAccumulator | tuple,
                     config: MeterConfig | None = None) -> FeatureVector:
    """Turn a finalized flow, its accumulator or the packet of a one-packet
    flow (a 10-tuple in ``PacketRecord`` field order), into its feature
    vector."""
    config = config or DEFAULT_CONFIG
    if flow.__class__ is not FlowAccumulator:
        flow = FlowAccumulator(flow)
    duration = flow.last_ts_us - flow.first_ts_us
    fwd_pkts = flow.fwd_n
    bwd_pkts = flow.bwd_n
    total_pkts = fwd_pkts + bwd_pkts
    total_bytes = flow.fwd_sum + flow.bwd_sum
    fwd_mean, fwd_std, fwd_max, fwd_min = _moments(
        fwd_pkts, flow.fwd_sum, flow.fwd_sq, flow.fwd_lo, flow.fwd_hi)
    bwd_mean, bwd_std, bwd_max, bwd_min = _moments(
        bwd_pkts, flow.bwd_sum, flow.bwd_sq, flow.bwd_lo, flow.bwd_hi)
    pkt_len_var = _variance(total_pkts, total_bytes, flow.fwd_sq + flow.bwd_sq)
    fwd_iat_total = flow.fwd_last_ts - flow.first_ts_us
    bwd_iat_total = flow.bwd_last_ts - flow.bwd_first_ts
    # Per-second rates; 0 over a zero-length flow.
    if duration > 0:
        bytes_per_s = total_bytes * 1_000_000 / duration
        pkts_per_s = total_pkts * 1_000_000 / duration
        fwd_per_s = fwd_pkts * 1_000_000 / duration
        bwd_per_s = bwd_pkts * 1_000_000 / duration
    else:
        bytes_per_s = pkts_per_s = fwd_per_s = bwd_per_s = 0.0
    last_active = flow.last_ts_us - flow.activity_start_ts
    if flow.periods is None:
        # No gap above the activity timeout: one active period, no idle one.
        active = (float(last_active), 0.0, last_active, last_active)
        idle = _NO_SAMPLES
    else:
        active = _moments_of([a for a, _ in flow.periods] + [last_active])
        idle = _moments_of([g for _, g in flow.periods])

    # ``addr in network`` in ipaddress is this same masked comparison.
    dst = int.from_bytes(flow.dst_ip, "big")
    inbound = 0
    for net, mask in config.home_networks[len(flow.dst_ip)]:
        if dst & mask == net:
            inbound = 1
            break
    # In FEATURE_NAMES order; (mean, std, max, min) and FIN..ECE already are.
    values = (
        duration, fwd_pkts, bwd_pkts, flow.fwd_sum, flow.bwd_sum,
        fwd_max, fwd_min, fwd_mean, fwd_std,
        bwd_max, bwd_min, bwd_mean, bwd_std,
        bytes_per_s, pkts_per_s,
        *_moments(total_pkts - 1, duration, flow.iat_sq, flow.iat_lo, flow.iat_hi),
        fwd_iat_total,
        *_moments(fwd_pkts - 1, fwd_iat_total, flow.fwd_iat_sq,
                  flow.fwd_iat_lo, flow.fwd_iat_hi),
        bwd_iat_total,
        *_moments(bwd_pkts - 1, bwd_iat_total, flow.bwd_iat_sq,
                  flow.bwd_iat_lo, flow.bwd_iat_hi),
        flow.fwd_psh, flow.bwd_psh, flow.fwd_urg, flow.bwd_urg,
        flow.fwd_header_bytes, flow.bwd_header_bytes,
        fwd_per_s, bwd_per_s,
        min(flow.fwd_lo, flow.bwd_lo), max(flow.fwd_hi, flow.bwd_hi),
        total_bytes / total_pkts, math.sqrt(pkt_len_var), pkt_len_var,
        *flow.flag_counts,
        bwd_pkts / fwd_pkts if fwd_pkts > 0 else 0.0,
        total_bytes / total_pkts, fwd_mean, bwd_mean,
        flow.init_fwd_win, flow.init_bwd_win,
        *active, *idle,
        inbound,
    )

    src_ip = _address_text(flow.fwd_ip)
    dst_ip = _address_text(flow.dst_ip)
    return _tuple_new(FeatureVector, (
        f"{src_ip}-{dst_ip}-{flow.fwd_port}-{flow.dst_port}-{flow.protocol}",
        src_ip, flow.fwd_port, dst_ip, flow.dst_port, flow.protocol,
        flow.first_ts_us, values))
