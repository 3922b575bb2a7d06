"""Randomized flow blueprints for round-trip and oracle tests."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from botmeter.synth import FlowBlueprint, PacketBlueprint

_V4_POOL = ["10.0.0.{}", "192.168.1.{}", "8.8.8.{}", "203.0.113.{}"]
_V6_POOL = ["2001:db8::{:x}", "fc00::{:x}"]


# Byte overwrites for mutation properties: (position, new byte) pairs, the
# position taken modulo the length of the data.
EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                 min_size=1, max_size=8)


def overwrite(data: bytes, edits) -> bytes:
    """``data`` with every (position, byte) of ``edits`` written in place."""
    out = bytearray(data)
    for position, value in edits:
        out[position % len(out)] = value
    return bytes(out)


def random_blueprints(rng: random.Random, max_flows=8, max_packets_per_flow=60,
                      timeout_us=2_000_000, ipv6_share=0.15):
    """Blueprints that straddle activity and flow timeouts, mix protocols
    and sometimes terminate TCP flows with FIN/FIN/ACK or RST."""
    blueprints = []
    n_flows = rng.randint(1, max_flows)
    for i in range(n_flows):
        v6 = rng.random() < ipv6_share
        pool = _V6_POOL if v6 else _V4_POOL
        src = rng.choice(pool).format(rng.randint(1, 40))
        dst = rng.choice(pool).format(rng.randint(1, 40))
        protocol = rng.choice([6, 6, 6, 17, 17, 58 if v6 else 1])
        if protocol in (1, 58):
            sport = dport = 0
        else:
            sport, dport = rng.randint(1024, 65000), rng.choice([80, 443, 53, 6667])
        n = rng.randint(1, max_packets_per_flow)
        packets = []
        closing = protocol == 6 and rng.random() < 0.4 and n >= 3
        for j in range(n):
            direction = "fwd" if j == 0 or rng.random() < 0.6 else "bwd"
            # Gaps mostly short, sometimes past the activity timeout,
            # occasionally past the flow timeout to force segmentation.
            roll = rng.random()
            if j == 0:
                gap = rng.randint(0, 1000)
            elif roll < 0.70:
                gap = rng.randint(1, 200_000)
            elif roll < 0.92:
                gap = rng.randint(600_000, 1_500_000)
            else:
                gap = rng.randint(timeout_us, 3 * timeout_us)
            flags = ""
            if protocol == 6:
                if j == 0:
                    flags = "S"
                elif j == 1 and direction == "bwd":
                    flags = "SA"
                else:
                    flags = rng.choice(["A", "A", "PA", "PA", "UA", "FA" , "A"])
                if rng.random() < 0.01:
                    flags = "R"
            packets.append(PacketBlueprint(
                direction=direction,
                payload_len=rng.randint(0, 1460),
                gap_us=gap,
                flags=flags,
                window=rng.randint(0, 65535) if protocol == 6 else 8192,
            ))
        if closing:
            packets.extend([
                PacketBlueprint("fwd", 0, rng.randint(10, 5000), "FA"),
                PacketBlueprint("bwd", 0, rng.randint(10, 5000), "FA"),
                PacketBlueprint("fwd", 0, rng.randint(10, 5000), "A"),
            ])
        blueprints.append(FlowBlueprint(
            src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
            protocol=protocol, packets=tuple(packets),
            start_us=rng.randint(0, 500_000)))
    return blueprints
