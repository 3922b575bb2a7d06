"""The canonical per-flow feature vector.

Durations and inter-arrival times are microseconds, rates are per second,
lengths are transport-payload bytes.  Rates over a zero-length flow and
statistics over empty sample sets are all defined as 0 so every field stays
finite and numeric.
"""

from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass
from functools import lru_cache

from .meter import FlowAccumulator, MeterConfig
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

# The 65 model features, in CSV column order.
FEATURE_NAMES = (
    "Flow Duration",
    "Total Fwd Packets",
    "Total Backward Packets",
    "Total Length of Fwd Packets",
    "Total Length of Bwd Packets",
    "Fwd Packet Length Max",
    "Fwd Packet Length Min",
    "Fwd Packet Length Mean",
    "Fwd Packet Length Std",
    "Bwd Packet Length Max",
    "Bwd Packet Length Min",
    "Bwd Packet Length Mean",
    "Bwd Packet Length Std",
    "Flow Bytes/s",
    "Flow Packets/s",
    "Flow IAT Mean",
    "Flow IAT Std",
    "Flow IAT Max",
    "Flow IAT Min",
    "Fwd IAT Total",
    "Fwd IAT Mean",
    "Fwd IAT Std",
    "Fwd IAT Max",
    "Fwd IAT Min",
    "Bwd IAT Total",
    "Bwd IAT Mean",
    "Bwd IAT Std",
    "Bwd IAT Max",
    "Bwd IAT Min",
    "Fwd PSH Flags",
    "Bwd PSH Flags",
    "Fwd URG Flags",
    "Bwd URG Flags",
    "Fwd Header Length",
    "Bwd Header Length",
    "Fwd Packets/s",
    "Bwd Packets/s",
    "Min Packet Length",
    "Max Packet Length",
    "Packet Length Mean",
    "Packet Length Std",
    "Packet Length Variance",
    "FIN Flag Count",
    "SYN Flag Count",
    "RST Flag Count",
    "PSH Flag Count",
    "ACK Flag Count",
    "URG Flag Count",
    "CWR Flag Count",
    "ECE Flag Count",
    "Down/Up Ratio",
    "Average Packet Size",
    "Avg Fwd Segment Size",
    "Avg Bwd Segment Size",
    "Init Fwd Win Bytes",
    "Init Bwd Win Bytes",
    "Active Mean",
    "Active Std",
    "Active Max",
    "Active Min",
    "Idle Mean",
    "Idle Std",
    "Idle Max",
    "Idle Min",
    "Inbound",
)


@dataclass(frozen=True)
class FeatureVector:
    """One finalized flow: identity fields plus the 65 model features,
    ``values``, in ``FEATURE_NAMES`` order."""

    flow_id: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: int
    start_ts_us: int
    values: tuple


@lru_cache(maxsize=8)
def _home_networks(prefixes: tuple[str, ...]) -> dict[int, tuple]:
    """Packed address length (4 or 16) -> the (network, netmask) integers
    of the prefixes of that family, in order."""
    nets: dict[int, list] = {4: [], 16: []}
    for p in prefixes:
        net = ipaddress.ip_network(p)
        nets[4 if net.version == 4 else 16].append(
            (int(net.network_address), int(net.netmask)))
    return {size: tuple(v) for size, v in nets.items()}


def _rate_per_s(count: float, duration_us: int) -> float:
    return count * 1_000_000 / duration_us if duration_us > 0 else 0.0


def _variance(n: int, s: int, q: int) -> float:
    """Sample variance of n integers with sum s and sum of squares q: the
    exact (n·q − s²) / (n(n−1)), correctly rounded by one int division; 0
    when n ≤ 1."""
    return (n * q - s * s) / (n * (n - 1)) if n > 1 else 0.0


def _moments(n: int, s: int, q: int, lo: int, hi: int) -> tuple:
    """(mean, std, max, min) of n integer samples with sum s, sum of squares
    q, least lo and greatest hi; all 0 when n ≤ 0.  The mean is the
    correctly rounded s / n, so it lies between the rounded lo and hi."""
    if n <= 0:
        return 0.0, 0.0, 0, 0
    return s / n, math.sqrt(_variance(n, s, q)), hi, lo


def _moments_of(values: list[int]) -> tuple:
    return _moments(len(values), sum(values), sum(v * v for v in values),
                    min(values, default=0), max(values, default=0))


def compute_features(flow: FlowAccumulator, config: MeterConfig | None = None) -> FeatureVector:
    """Turn a finalized flow accumulator into its feature vector."""
    config = config or MeterConfig()
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
    active = [a for a, _ in flow.periods]
    active.append(flow.last_ts_us - flow.activity_start_ts)

    # ``addr in network`` in ipaddress is this same masked comparison.
    dst = int.from_bytes(flow.dst_ip, "big")
    inbound = int(any(dst & mask == net for net, mask
                      in _home_networks(config.home_prefixes)[len(flow.dst_ip)]))
    # In FEATURE_NAMES order; (mean, std, max, min) and FIN..ECE already are.
    values = (
        duration, fwd_pkts, bwd_pkts, flow.fwd_sum, flow.bwd_sum,
        fwd_max, fwd_min, fwd_mean, fwd_std,
        bwd_max, bwd_min, bwd_mean, bwd_std,
        _rate_per_s(total_bytes, duration), _rate_per_s(total_pkts, duration),
        *_moments(total_pkts - 1, duration, flow.iat_sq, flow.iat_lo, flow.iat_hi),
        fwd_iat_total,
        *_moments(fwd_pkts - 1, fwd_iat_total, flow.fwd_iat_sq,
                  flow.fwd_iat_lo, flow.fwd_iat_hi),
        bwd_iat_total,
        *_moments(bwd_pkts - 1, bwd_iat_total, flow.bwd_iat_sq,
                  flow.bwd_iat_lo, flow.bwd_iat_hi),
        flow.fwd_psh, flow.bwd_psh, flow.fwd_urg, flow.bwd_urg,
        flow.fwd_header_bytes, flow.bwd_header_bytes,
        _rate_per_s(fwd_pkts, duration), _rate_per_s(bwd_pkts, duration),
        min(flow.fwd_lo, flow.bwd_lo), max(flow.fwd_hi, flow.bwd_hi),
        total_bytes / total_pkts, math.sqrt(pkt_len_var), pkt_len_var,
        *flow.flag_counts,
        bwd_pkts / fwd_pkts if fwd_pkts > 0 else 0.0,
        total_bytes / total_pkts, fwd_mean, bwd_mean,
        flow.init_fwd_win, flow.init_bwd_win,
        *_moments_of(active),
        *_moments_of([g for _, g in flow.periods]),
        inbound,
    )

    src_ip = ip_to_str(flow.fwd_ip)
    dst_ip = ip_to_str(flow.dst_ip)
    flow_id = f"{src_ip}-{dst_ip}-{flow.fwd_port}-{flow.dst_port}-{flow.protocol}"
    return FeatureVector(
        flow_id=flow_id, src_ip=src_ip, src_port=flow.fwd_port,
        dst_ip=dst_ip, dst_port=flow.dst_port, protocol=flow.protocol,
        start_ts_us=flow.first_ts_us, values=values)
