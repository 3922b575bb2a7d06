"""Seeded synthetic inputs for the benchmark workloads.

Every builder draws from ``random.Random(seed)`` only, so one seed always
gives byte-identical files.  Each flow blueprint has a 5-tuple no other
blueprint uses, stays below the meter's activity and flow timeouts, and sends
nothing after a RST or after a FIN/FIN/ACK close.  Each blueprint therefore
meters into exactly one flow, and the expected results (flow count, packet
count, label counts) follow from the blueprints alone.

The pcap writer here is independent of ``botmeter.synth``: it streams frames
to disk instead of holding the whole capture in memory.
"""

from __future__ import annotations

import json
import random
import socket
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

FIN, SYN, RST, PSH, ACK = 0x01, 0x02, 0x04, 0x08, 0x10
TCP, UDP = 6, 17

# Epoch of every capture; flow start offsets are added to it.
BASE_US = 1_600_000_000 * 1_000_000
# Below the meter's 5 s activity and 120 s flow timeouts, with margin.
MAX_GAP_US = 4_000_000
MAX_SPAN_US = 100_000_000

RULE_HEADER = "src_ip,src_port,dst_ip,dst_port,protocol,label"

_PAYLOAD = bytes(range(256)) * 6  # content is irrelevant to the meter
_ETH = bytes.fromhex("020000000002020000000001") + b"\x08\x00"
_PCAP_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
_REC = struct.Struct("<IIII")
_IP = struct.Struct("!BBHHHBBH4s4s")
_TCP_HDR = struct.Struct("!HHIIBBHHH")
_UDP_HDR = struct.Struct("!HHHH")


@dataclass
class Flow:
    """One flow blueprint; ``packets`` holds (gap_us, forward, payload, flags)."""

    src: str
    sport: int
    dst: str
    dport: int
    proto: int
    start_us: int
    window: int
    packets: list
    label: str


@dataclass
class Capture:
    """A capture file plus what metering and labeling it must produce."""

    path: str            # relative to the workload directory
    flows: int
    packets: int
    labels: dict


@dataclass
class Corpus:
    """Everything set-up wrote for one workload, with its expected results."""

    captures: list       # of Capture
    config: str | None   # pipeline config path, relative, or None

    @property
    def packets(self) -> int:
        return sum(c.packets for c in self.captures)


def write_pcap(path: Path, flows) -> int:
    """Render flows into a classic little-endian microsecond Ethernet pcap.

    Packets go out in timestamp order, ties broken by flow then packet
    index.  Returns the number of packets written.
    """
    events = []
    for i, flow in enumerate(flows):
        ts = BASE_US + flow.start_us
        for j, pkt in enumerate(flow.packets):
            ts += pkt[0]
            events.append((ts, i, j))
    events.sort()
    addrs = [(socket.inet_aton(f.src), socket.inet_aton(f.dst)) for f in flows]
    with open(path, "wb") as fh:
        fh.write(_PCAP_HEADER)
        chunk = []
        for ts, i, j in events:
            flow = flows[i]
            _, forward, size, flags = flow.packets[j]
            src, dst = addrs[i]
            sport, dport = flow.sport, flow.dport
            if not forward:
                src, dst, sport, dport = dst, src, dport, sport
            payload = _PAYLOAD[:size]
            if flow.proto == TCP:
                transport = _TCP_HDR.pack(sport, dport, 0, 0, 5 << 4, flags,
                                          flow.window, 0, 0) + payload
            else:
                transport = _UDP_HDR.pack(sport, dport, 8 + size, 0) + payload
            frame = _ETH + _IP.pack(0x45, 0, 20 + len(transport), 0, 0, 64,
                                    flow.proto, 0, src, dst) + transport
            chunk.append(_REC.pack(ts // 1_000_000, ts % 1_000_000,
                                   len(frame), len(frame)))
            chunk.append(frame)
            if len(chunk) >= 8192:
                fh.write(b"".join(chunk))
                chunk.clear()
        fh.write(b"".join(chunk))
    return len(events)


def _write_capture(ds_dir: Path, name: str, flows) -> Capture:
    packets = write_pcap(ds_dir / name, flows)
    return Capture(f"{ds_dir.name}/{name}", len(flows), packets,
                   dict(Counter(f.label for f in flows)))


def _write_dataset(root: Path, name: str, captures, rules) -> tuple[list, str]:
    """Write a dataset directory: captures, rule file and manifest."""
    ds_dir = root / name
    ds_dir.mkdir(parents=True, exist_ok=True)
    written = [_write_capture(ds_dir, f"capture_{k}.pcap", flows)
               for k, flows in enumerate(captures)]
    (ds_dir / "rules.csv").write_text(
        "\n".join([RULE_HEADER, *rules]) + "\n", encoding="utf-8")
    manifest = (f"name = {name}\n"
                f"captures = {', '.join(c.path.split('/')[-1] for c in written)}\n"
                "rules = rules.csv\n"
                "default_label = Normal\n")
    (ds_dir / f"{name}.manifest").write_text(manifest, encoding="utf-8")
    return written, f"{name}/{name}.manifest"


def _exact_rule(flow: Flow, label: str, reversed_: bool) -> str:
    if reversed_:
        return f"{flow.dst},{flow.dport},{flow.src},{flow.sport},{flow.proto},{label}"
    return f"{flow.src},{flow.sport},{flow.dst},{flow.dport},{flow.proto},{label}"


def _bimodal_payload(rng: random.Random) -> int:
    return 0 if rng.random() < 0.5 else rng.randint(1, 1400)


# --- extract-long --------------------------------------------------------------

def _long_flow(rng: random.Random, n: int, src: str, sport: int, dst: str,
               dport: int, proto: int, label: str) -> Flow:
    """A long TCP or UDP conversation of exactly ``n`` packets."""
    max_gap = min(MAX_GAP_US, MAX_SPAN_US // n)
    if proto == UDP:
        body = [(rng.randint(50, max_gap), rng.random() < 0.5,
                 _bimodal_payload(rng), 0) for _ in range(n)]
    else:
        roll = rng.random()
        close = 3 if roll < 0.4 else 1 if roll < 0.5 else 0
        body = [(rng.randint(50, max_gap), True, 0, SYN),
                (rng.randint(50, max_gap), False, 0, SYN | ACK),
                (rng.randint(50, max_gap), True, 0, ACK)]
        for _ in range(n - 3 - close):
            size = _bimodal_payload(rng)
            body.append((rng.randint(50, max_gap), rng.random() < 0.5, size,
                         PSH | ACK if size else ACK))
        if close == 3:
            body += [(rng.randint(50, max_gap), True, 0, FIN | ACK),
                     (rng.randint(50, max_gap), False, 0, FIN | ACK),
                     (rng.randint(50, max_gap), True, 0, ACK)]
        elif close == 1:
            body.append((rng.randint(50, max_gap), rng.random() < 0.5, 0, RST))
    body[0] = (0, True) + body[0][2:]
    return Flow(src, sport, dst, dport, proto, rng.randint(0, 30_000_000),
                rng.randint(1024, 65535), body, label)


def build_extract_long(root: Path, seed: int, scale: float = 1.0) -> Corpus:
    """One capture of long flows; packet count is exactly 100 per flow."""
    rng = random.Random(seed)
    n_flows = max(20, int(1400 * scale)) // 2 * 2
    attackers = [f"10.66.0.{k}" for k in range(1, 5)]
    c2 = ("203.0.113.9", 6667)
    servers = [f"198.51.100.{k}" for k in range(1, 51)]
    flows = []
    for i in range(0, n_flows, 2):
        d = rng.randint(0, 40)
        for n in (100 + d, 100 - d):  # pairs keep the total fixed
            idx = len(flows)
            client = f"10.1.{idx // 250}.{idx % 250 + 1}"
            proto = TCP if rng.random() < 0.7 else UDP
            dst, dport, label = rng.choice(servers), rng.choice((80, 443, 53, 8080)), "Normal"
            roll = rng.random()
            if roll < 0.10:
                client, label = rng.choice(attackers), "Botnet"
            elif roll < 0.15:
                (dst, dport), proto, label = c2, TCP, "C2"
            flows.append(_long_flow(rng, n, client, 20000 + idx, dst, dport,
                                    proto, label))
    exact = rng.sample([f for f in flows if f.label == "Normal"], 3)
    for f in exact:
        f.label = "Exfil"
    rules = [f"{ip},*,*,*,*,Botnet" for ip in attackers]
    rules.append(f"*,*,{c2[0]},{c2[1]},6,C2")
    rules += [_exact_rule(f, "Exfil", k == 0) for k, f in enumerate(exact)]
    captures, _ = _write_dataset(root, "long", [flows], rules)
    return Corpus(captures, None)


# --- extract-scan --------------------------------------------------------------

def _scan_packets(rng: random.Random) -> list:
    """SYN probe answered by nothing, by RST/ACK, or by SYN/ACK then RST."""
    roll = rng.random()
    first = (0, True, 0, SYN)
    if roll < 0.45:
        return [first]
    if roll < 0.80:
        return [first, (rng.randint(50, 50_000), False, 0, RST | ACK)]
    return [first, (rng.randint(50, 50_000), False, 0, SYN | ACK),
            (rng.randint(50, 5_000), True, 0, RST)]


def build_extract_scan(root: Path, seed: int, scale: float = 1.0) -> Corpus:
    """One capture of one- to three-packet scan-style flows, 50 rules."""
    rng = random.Random(seed)
    n_flows = max(100, int(15_000 * scale))
    scanners = [f"203.0.113.{100 + k}" for k in range(1, 11)]
    darknet = [f"10.99.0.{k}" for k in range(1, 11)]
    ports = (21, 22, 23, 25, 80, 110, 139, 443, 445, 3389, 5900, 8080)
    flows = []
    for i in range(n_flows):
        sport = 10000 + i
        start = rng.randint(0, 60_000_000)
        roll = rng.random()
        if roll < 0.60:
            src, label = rng.choice(scanners), "Scan"
            dst = f"10.20.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
            flow = Flow(src, sport, dst, rng.choice(ports), TCP, start,
                        rng.randint(1024, 65535), _scan_packets(rng), label)
        else:
            client = f"10.30.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
            if roll < 0.62:
                dst, label = rng.choice(darknet), "Darknet"
            else:
                dst, label = f"192.0.2.{rng.randint(1, 200)}", "Normal"
            if rng.random() < 0.5:
                packets = [(0, True, rng.randint(20, 60), 0)]
                if rng.random() < 0.8:
                    packets.append((rng.randint(100, 80_000), False,
                                    rng.randint(40, 400), 0))
                flow = Flow(client, sport, dst, 53, UDP, start, 0, packets, label)
            else:
                flow = Flow(client, sport, dst, rng.choice(ports), TCP, start,
                            rng.randint(1024, 65535), _scan_packets(rng), label)
        flows.append(flow)
    exact = rng.sample([f for f in flows if f.label == "Normal"], 30)
    for f in exact:
        f.label = "Exact"
    rules = [f"{ip},*,*,*,*,Scan" for ip in scanners]
    rules += [f"*,*,{ip},*,*,Darknet" for ip in darknet]
    rules += [_exact_rule(f, "Exact", k % 3 == 0) for k, f in enumerate(exact)]
    captures, _ = _write_dataset(root, "scan", [flows], rules)
    return Corpus(captures, None)


# --- pipeline ------------------------------------------------------------------

# Per-dataset shifts, so the three rankings differ a little but overlap.
_PIPELINE_DATASETS = (("ds-a", 0.9), ("ds-b", 1.0), ("ds-c", 1.15))


def _mixed_flow(rng: random.Random, attack: bool, shift: float, src: str,
                sport: int, dst: str) -> Flow:
    """A flow whose statistics overlap between the two classes."""
    proto = TCP if rng.random() < 0.7 else UDP
    n = rng.randint(3, 24) if attack else rng.randint(3, 32)
    size_mean = rng.uniform(20, 700) * shift if attack else rng.uniform(80, 1100)
    gap_mean = rng.uniform(5_000, 250_000) if attack else rng.uniform(20_000, 600_000)
    fwd_share = 0.65 if attack else 0.5
    max_gap = min(MAX_GAP_US, MAX_SPAN_US // n)
    packets = []
    for j in range(n):
        forward = j == 0 or rng.random() < fwd_share
        size = 0 if rng.random() < 0.25 else min(1400, int(size_mean * rng.uniform(0.5, 1.5)))
        gap = 0 if j == 0 else min(max_gap, 1 + int(rng.expovariate(1.0 / gap_mean)))
        flags = 0
        if proto == TCP:
            flags = SYN if j == 0 else SYN | ACK if j == 1 and not forward \
                else PSH | ACK if size else ACK
        packets.append((gap, forward, size, flags))
    if proto == TCP and rng.random() < 0.5:
        packets += [(rng.randint(50, 20_000), True, 0, FIN | ACK),
                    (rng.randint(50, 20_000), False, 0, FIN | ACK),
                    (rng.randint(50, 20_000), True, 0, ACK)]
    dport = rng.choice((80, 443, 8080, 6667)) if proto == TCP else rng.choice((53, 123, 1900))
    return Flow(src, sport, dst, dport, proto, rng.randint(0, 60_000_000),
                rng.randint(1024, 65535), packets, "Botnet" if attack else "Normal")


def build_pipeline(root: Path, seed: int, scale: float = 1.0) -> Corpus:
    """Three labeled datasets of two captures each, plus a pipeline config."""
    n_flows = max(200, int(400 * scale))
    captures, manifests = [], []
    for d_idx, (name, shift) in enumerate(_PIPELINE_DATASETS):
        rng = random.Random(seed * 7919 + d_idx)
        bots_in = [f"10.{40 + d_idx}.0.{k}" for k in range(1, 4)]
        bots_out = [f"203.0.{113 + d_idx}.{k}" for k in range(1, 4)]
        flows = []
        for i in range(n_flows):
            attack = rng.random() < 0.4
            inside = f"10.{50 + d_idx}.{rng.randint(0, 200)}.{rng.randint(1, 254)}"
            outside = f"198.51.{100 + d_idx}.{rng.randint(1, 254)}"
            if attack:
                if rng.random() < 0.5:
                    inside = rng.choice(bots_in)
                else:
                    outside = rng.choice(bots_out)
            src, dst = (outside, inside) if rng.random() < 0.5 else (inside, outside)
            flows.append(_mixed_flow(rng, attack, shift, src, 10000 + i, dst))
        rules = [f"{ip},*,*,*,*,Botnet" for ip in bots_in + bots_out]
        half = n_flows // 2
        written, manifest = _write_dataset(root, name, [flows[:half], flows[half:]], rules)
        captures += written
        manifests.append(manifest)
    config = {"datasets": manifests, "out_dir": "pipeline_out", "seed": 0,
              "ratio": 0.8, "top_k": 10, "threshold": 2,
              "flow_timeout_s": 120.0, "activity_timeout_s": 5.0}
    (root / "config.json").write_text(json.dumps(config, indent=2) + "\n",
                                      encoding="utf-8")
    return Corpus(captures, "config.json")


BUILDERS = {
    "extract-long": build_extract_long,
    "extract-scan": build_extract_scan,
    "pipeline": build_pipeline,
}
