"""Engineered synthetic datasets for end-to-end runs without real captures.

Three small datasets with flood-style attack flows (short, fast, mostly
one-way packets from known attacker hosts) against varied normal traffic.
Each dataset gets two capture files, a ground-truth rule file matching the
attacker endpoints, a manifest and a ready-to-run pipeline config.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .labeling import LabelRule, write_rules
from .synth import FlowBlueprint, PacketBlueprint, write_synthetic_capture

_DATASETS = (
    # name, attacker ips, victim, normal client subnet, normal servers, attack protocol mix
    ("synth-ddos", ("203.0.113.66", "203.0.113.67"), "192.168.10.50",
     "192.168.10.{}", ("8.8.8.8", "1.1.1.1", "198.51.100.7"), (6, 6, 17)),
    ("synth-udpflood", ("198.51.100.99", "198.51.100.98"), "192.168.20.10",
     "192.168.20.{}", ("9.9.9.9", "198.51.100.7"), (17, 17, 6)),
    ("synth-scan", ("203.0.113.200",), "192.168.30.77",
     "192.168.30.{}", ("8.8.4.4", "1.0.0.1"), (6,)),
)


def _attack_flow(rng, attacker, victim, protocols):
    protocol = rng.choice(protocols)
    n = rng.randint(8, 16)
    packets = []
    for j in range(n):
        flags = ""
        if protocol == 6:
            flags = "S" if j == 0 else rng.choice(["PA", "A", "PA"])
        packets.append(PacketBlueprint(
            direction="fwd" if rng.random() < 0.9 else "bwd",
            payload_len=rng.randint(16, 64),
            gap_us=rng.randint(500, 20_000),
            flags=flags,
            window=rng.randint(100, 600)))
    return FlowBlueprint(
        src_ip=attacker, dst_ip=victim,
        src_port=rng.randint(1024, 65000),
        dst_port=rng.choice([80, 443, 53]),
        protocol=protocol,
        packets=tuple(packets),
        start_us=rng.randint(0, 30_000_000),
        label="Botnet")


def _normal_flow(rng, client_subnet, servers):
    protocol = rng.choice([6, 6, 17])
    n = rng.randint(4, 12)
    packets = []
    for j in range(n):
        flags = ""
        if protocol == 6:
            if j == 0:
                flags = "S"
            elif j == 1:
                flags = "SA"
            else:
                flags = rng.choice(["A", "PA", "A"])
        # Occasional long pause so active/idle statistics vary.
        gap = rng.randint(20_000, 900_000) if rng.random() < 0.85 \
            else rng.randint(5_500_000, 9_000_000)
        packets.append(PacketBlueprint(
            direction="fwd" if j % 2 == 0 else "bwd",
            payload_len=rng.randint(120, 1400),
            gap_us=gap if j else rng.randint(0, 1000),
            flags=flags,
            window=rng.randint(8000, 65535)))
    return FlowBlueprint(
        src_ip=client_subnet.format(rng.randint(2, 40)),
        dst_ip=rng.choice(servers),
        src_port=rng.randint(1024, 65000),
        dst_port=rng.choice([80, 443, 53, 8080]),
        protocol=protocol,
        packets=tuple(packets),
        start_us=rng.randint(0, 30_000_000))


def make_demo_corpus(out_dir, seed: int = 0, flows_per_class: int = 60) -> Path:
    """Write the three-dataset corpus under ``out_dir``; returns the path of
    the generated pipeline config."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_paths = []
    for d_idx, (name, attackers, victim, subnet, servers, protos) in enumerate(_DATASETS):
        rng = random.Random(seed * 1009 + d_idx)
        ds_dir = out_dir / name
        ds_dir.mkdir(exist_ok=True)
        blueprints = []
        for _ in range(flows_per_class):
            blueprints.append(_attack_flow(rng, rng.choice(attackers), victim, protos))
            blueprints.append(_normal_flow(rng, subnet, servers))
        half = len(blueprints) // 2
        write_synthetic_capture(blueprints[:half], seed + d_idx,
                                ds_dir / "capture_a.pcap")
        write_synthetic_capture(blueprints[half:], seed + d_idx + 1000,
                                ds_dir / "capture_b.pcap")
        write_rules(ds_dir / "rules.csv",
                    [LabelRule(ip, None, "*", None, None, "Botnet") for ip in attackers])
        manifest = (f"name = {name}\n"
                    "captures = capture_a.pcap, capture_b.pcap\n"
                    "rules = rules.csv\n"
                    "default_label = Normal\n")
        (ds_dir / f"{name}.manifest").write_text(manifest)
        manifest_paths.append(f"{name}/{name}.manifest")

    config = {
        "datasets": manifest_paths,
        "out_dir": "pipeline_out",
        "seed": seed,
        "ratio": 0.8,
        "top_k": 10,
        "threshold": 2,
        "flow_timeout_s": 120.0,
        "activity_timeout_s": 5.0,
    }
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    return config_path
