"""The canonical per-flow feature vector.

Durations and inter-arrival times are microseconds, rates are per second,
lengths are transport-payload bytes.  Rates over a zero-length flow and
statistics over empty sample sets are all defined as 0 so every field stays
finite and numeric.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache

from .meter import FlowAccumulator, MeterConfig
from .pcap import ip_to_str
from .stats import RunningStats

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

# Integer-valued features (counts, byte totals, microsecond extrema).
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


@dataclass(frozen=True)
class FeatureVector:
    """One finalized flow: identity fields plus the 65 model features."""

    flow_id: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: int
    start_ts_us: int
    features: dict[str, float]


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


def _stat_block(stats: RunningStats) -> tuple[float, float, float, float]:
    return stats.mean, stats.std, stats.max, stats.min


def compute_features(flow: FlowAccumulator, config: MeterConfig | None = None) -> FeatureVector:
    """Turn a finalized flow accumulator into its feature vector."""
    config = config or MeterConfig()
    duration = flow.last_ts_us - flow.first_ts_us
    fwd_pkts = flow.fwd_len.count
    bwd_pkts = flow.bwd_len.count
    total_pkts = flow.all_len.count
    total_bytes = flow.all_len.total
    pkt_len_std = flow.all_len.std

    f: dict[str, float] = {}
    f["Flow Duration"] = duration
    f["Total Fwd Packets"] = fwd_pkts
    f["Total Backward Packets"] = bwd_pkts
    f["Total Length of Fwd Packets"] = flow.fwd_len.total
    f["Total Length of Bwd Packets"] = flow.bwd_len.total
    f["Fwd Packet Length Max"] = flow.fwd_len.max
    f["Fwd Packet Length Min"] = flow.fwd_len.min
    f["Fwd Packet Length Mean"] = flow.fwd_len.mean
    f["Fwd Packet Length Std"] = flow.fwd_len.std
    f["Bwd Packet Length Max"] = flow.bwd_len.max
    f["Bwd Packet Length Min"] = flow.bwd_len.min
    f["Bwd Packet Length Mean"] = flow.bwd_len.mean
    f["Bwd Packet Length Std"] = flow.bwd_len.std
    f["Flow Bytes/s"] = _rate_per_s(total_bytes, duration)
    f["Flow Packets/s"] = _rate_per_s(total_pkts, duration)
    (f["Flow IAT Mean"], f["Flow IAT Std"],
     f["Flow IAT Max"], f["Flow IAT Min"]) = _stat_block(flow.flow_iat)
    f["Fwd IAT Total"] = flow.fwd_iat.total
    (f["Fwd IAT Mean"], f["Fwd IAT Std"],
     f["Fwd IAT Max"], f["Fwd IAT Min"]) = _stat_block(flow.fwd_iat)
    f["Bwd IAT Total"] = flow.bwd_iat.total
    (f["Bwd IAT Mean"], f["Bwd IAT Std"],
     f["Bwd IAT Max"], f["Bwd IAT Min"]) = _stat_block(flow.bwd_iat)
    f["Fwd PSH Flags"] = flow.fwd_psh
    f["Bwd PSH Flags"] = flow.bwd_psh
    f["Fwd URG Flags"] = flow.fwd_urg
    f["Bwd URG Flags"] = flow.bwd_urg
    f["Fwd Header Length"] = flow.fwd_header_bytes
    f["Bwd Header Length"] = flow.bwd_header_bytes
    f["Fwd Packets/s"] = _rate_per_s(fwd_pkts, duration)
    f["Bwd Packets/s"] = _rate_per_s(bwd_pkts, duration)
    f["Min Packet Length"] = flow.all_len.min
    f["Max Packet Length"] = flow.all_len.max
    f["Packet Length Mean"] = flow.all_len.mean
    f["Packet Length Std"] = pkt_len_std
    f["Packet Length Variance"] = pkt_len_std * pkt_len_std
    f["FIN Flag Count"] = flow.flag_counts[0]
    f["SYN Flag Count"] = flow.flag_counts[1]
    f["RST Flag Count"] = flow.flag_counts[2]
    f["PSH Flag Count"] = flow.flag_counts[3]
    f["ACK Flag Count"] = flow.flag_counts[4]
    f["URG Flag Count"] = flow.flag_counts[5]
    f["CWR Flag Count"] = flow.flag_counts[6]
    f["ECE Flag Count"] = flow.flag_counts[7]
    f["Down/Up Ratio"] = bwd_pkts / fwd_pkts if fwd_pkts > 0 else 0.0
    f["Average Packet Size"] = total_bytes / total_pkts
    f["Avg Fwd Segment Size"] = flow.fwd_len.mean
    f["Avg Bwd Segment Size"] = flow.bwd_len.mean
    f["Init Fwd Win Bytes"] = flow.init_fwd_win
    f["Init Bwd Win Bytes"] = flow.init_bwd_win
    (f["Active Mean"], f["Active Std"],
     f["Active Max"], f["Active Min"]) = _stat_block(flow.active)
    (f["Idle Mean"], f["Idle Std"],
     f["Idle Max"], f["Idle Min"]) = _stat_block(flow.idle)
    # ``addr in network`` in ipaddress is this same masked comparison.
    dst = int.from_bytes(flow.dst_ip, "big")
    f["Inbound"] = int(any(dst & mask == net for net, mask
                           in _home_networks(config.home_prefixes)[len(flow.dst_ip)]))

    src_ip = ip_to_str(flow.fwd_ip)
    dst_ip = ip_to_str(flow.dst_ip)
    flow_id = f"{src_ip}-{dst_ip}-{flow.fwd_port}-{flow.dst_port}-{flow.protocol}"
    return FeatureVector(
        flow_id=flow_id, src_ip=src_ip, src_port=flow.fwd_port,
        dst_ip=dst_ip, dst_port=flow.dst_port, protocol=flow.protocol,
        start_ts_us=flow.first_ts_us, features=f)
