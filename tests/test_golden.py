"""Golden outputs: the labeled flow CSVs of two small seeded captures, and
the saved models of two seeded forests, must keep the exact bytes recorded
in ``GOLDEN`` and ``RF_GOLDEN``.

One capture is scan-like (one- to three-packet flows, IPv4 and IPv6, rule
labels that need CSV quoting); the other has long flows that cross the
activity and flow timeouts.  Each is labeled twice: by ``extract_and_label``
straight from the metered flows, and by the ``extract`` then ``label``
subcommands, which read the flow CSV back.  One forest is bootstrapped on
eight columns; the other is grown without bootstrap on columns of which
six are constant, so that nodes often scan past ``max_features`` for a
column that splits.  A change that means to alter output bytes must say so
and record the new digests here.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from botmeter import cli
from botmeter.classifiers import ModelSpec, fit, save_model
from botmeter.dataset import DatasetManifest
from botmeter.meter import MeterConfig
from botmeter.synth import FlowBlueprint, PacketBlueprint, write_synthetic_capture

import capgen

# SHA-256 of the labeled CSV; both ways of labeling give the same bytes.
GOLDEN = {
    "scan": "11d420b3f967616103fbff369ce5e6b8ea8dd289d9aae56e89097a66702c6ae4",
    "long": "c4444551749f556ee7b6e5e55bf6f77a2ddf84ec799e1ba1dccdd48145ad8b8a",
}

# SHA-256 of ``save_model``'s file for each forest of ``rf_case``.
RF_GOLDEN = {
    "bootstrap": "1badc7711045f5b33bba117bb5e02ee4c13bfe37a48fafd09e3f3fef2504f608",
    "constant": "61430a0fa50c1f11076ed1df5d82d48d6d6cecea21859672503e1986ce0dec2b",
}

# Activity timeout below the long flows' 0.6–1.5 s gaps, flow timeout below
# their longest ones, so both kinds of cut occur.
LONG_METER = MeterConfig(flow_timeout_us=2_000_000, activity_timeout_us=500_000)


def scan_blueprints(rng: random.Random, n_flows=400):
    """Scanners sweeping addresses: a SYN, sometimes answered by SYN-ACK or
    RST, UDP probes of one or two packets, and ICMP echoes."""
    scanners = ["10.1.0.7", "192.168.5.20", "203.0.113.9", "fc00::17"]
    out = []
    for i in range(n_flows):
        src = rng.choice(scanners)
        v6 = ":" in src
        dst = f"2001:db8::{i + 1:x}" if v6 else f"198.51.{i // 250}.{i % 250 + 1}"
        protocol = rng.choice([6, 6, 6, 17, 58 if v6 else 1])
        start = i * 997 + rng.randint(0, 900)
        if protocol == 6:
            packets = [PacketBlueprint("fwd", 0, 0, "S", rng.randint(0, 65535))]
            roll = rng.random()
            if roll < 0.3:
                packets.append(PacketBlueprint("bwd", 0, rng.randint(50, 4000), "SA"))
                packets.append(PacketBlueprint("fwd", 0, rng.randint(1, 300), "R"))
            elif roll < 0.5:
                packets.append(PacketBlueprint("bwd", 0, rng.randint(50, 4000), "RA"))
            sport, dport = rng.randint(1024, 65000), rng.choice([23, 2323, 80, 8080])
        elif protocol == 17:
            packets = [PacketBlueprint("fwd", rng.randint(0, 120), 0)]
            if rng.random() < 0.4:
                packets.append(PacketBlueprint("bwd", rng.randint(0, 500),
                                               rng.randint(100, 9000)))
            sport, dport = rng.randint(1024, 65000), rng.choice([53, 123, 1900])
        else:
            packets = [PacketBlueprint("fwd", 56, 0)]
            if rng.random() < 0.5:
                packets.append(PacketBlueprint("bwd", 56, rng.randint(100, 3000)))
            sport = dport = 0
        out.append(FlowBlueprint(src, dst, sport, dport, protocol,
                                 tuple(packets), start_us=start))
    return out


def scan_rules(path):
    lines = ["src_ip,src_port,dst_ip,dst_port,protocol,label",
             '10.1.0.7,*,*,*,6,"Mirai, scan"',
             'fc00::17,*,*,*,*,"Bashlite ""probe"""',
             '203.0.113.9,*,*,53,17,"Mirai, scan"',
             '*,*,*,*,1,"Bashlite ""probe"""']
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def long_rules(path, blueprints):
    lines = ["src_ip,src_port,dst_ip,dst_port,protocol,label"]
    for bp in blueprints[::3]:
        lines.append(f"{bp.src_ip},{bp.src_port},{bp.dst_ip},{bp.dst_port},"
                     f"{bp.protocol},Botnet")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build(kind, root):
    """Write the capture and rule file of one golden case; returns their
    paths and the meter configuration."""
    capture, rules = root / f"{kind}.pcap", root / f"{kind}.rules.csv"
    if kind == "scan":
        blueprints = scan_blueprints(random.Random(101))
        scan_rules(rules)
        meter = MeterConfig()
    else:
        rng = random.Random(202)
        blueprints = []
        for _ in range(6):
            blueprints += capgen.random_blueprints(rng, max_flows=8)
        long_rules(rules, blueprints)
        meter = LONG_METER
    write_synthetic_capture(blueprints, 7, str(capture))
    return capture, rules, meter


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module", params=["scan", "long"])
def case(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    return request.param, root, *build(request.param, root)


def test_extract_and_label_bytes(case):
    kind, root, capture, rules, meter = case
    out = root / "labeled.csv"
    cli.extract_and_label(
        DatasetManifest(name=kind, captures=(capture,), rules=rules), meter, out)
    assert digest(out) == GOLDEN[kind]


def test_extract_then_label_bytes(case):
    kind, root, capture, rules, meter = case
    flows, labeled = root / "flows.csv", root / "relabeled.csv"
    assert cli.main(["extract", str(capture), "--out", str(flows),
                     "--timeout-s", str(meter.flow_timeout_us / 1e6),
                     "--activity-timeout-s",
                     str(meter.activity_timeout_us / 1e6)]) == 0
    assert cli.main(["label", str(flows), "--rules", str(rules),
                     "--out", str(labeled)]) == 0
    assert digest(labeled) == GOLDEN[kind]


def rf_case(kind):
    """The spec and training data of one golden forest."""
    if kind == "bootstrap":
        rng = np.random.default_rng(1601)
        y = rng.integers(0, 2, 300)
        X = np.round(rng.normal(size=(300, 8))
                     + 0.8 * y[:, None] * (np.arange(8) % 3), 2)
        return ModelSpec(kind="RF", n_trees=25, seed=7), X, y
    rng = np.random.default_rng(1602)
    y = rng.integers(0, 2, 200)
    X = np.empty((200, 10))
    X[:, :6] = np.arange(6) * 1.5 - 2.0
    X[:, 6:] = (rng.integers(0, 4, (200, 4))
                + y[:, None] * (rng.random((200, 4)) < 0.3))
    return ModelSpec(kind="RF", n_trees=20, seed=3, bootstrap=False), X, y


@pytest.mark.parametrize("kind", sorted(RF_GOLDEN))
def test_forest_model_bytes(kind, tmp_path):
    path = tmp_path / "forest.json"
    save_model(fit(*rf_case(kind)), path)
    assert digest(path) == RF_GOLDEN[kind]
