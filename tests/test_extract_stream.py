"""Extraction and labeling stream flows in batches of at most
``cli.FLOW_BATCH``.

Every test but one shrinks the batch, so that a few dozen flows cross
several batch boundaries; the one keeps the real batch size.  The streamed file must hold the bytes of one ``write_flow_csv``
over the flows of the list-mode meter, appear only on success, and log each
label warning once for the whole extract.
"""

import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from botmeter import cli
from botmeter.dataset import parse_manifest, write_flow_csv
from botmeter.errors import PcapFormatError, ValidationError
from botmeter.labeling import label_flows, parse_rules
from botmeter.meter import FlowTable, MeterConfig, ingest_capture_detailed
from botmeter.pcap import read_capture
from botmeter.synth import FlowBlueprint, PacketBlueprint, generate_synthetic_capture

REAL_BATCH = cli.FLOW_BATCH
B = 4
CONFIG = MeterConfig(flow_timeout_us=2_000_000, activity_timeout_us=1_000_000)
HEADER = "src_ip,src_port,dst_ip,dst_port,protocol,label\n"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def small_batches(monkeypatch):
    monkeypatch.setattr(cli, "FLOW_BATCH", B)


def tcp(port, start, flags):
    """A TCP flow from 10.0.0.1:port whose packets are (dir, flags) pairs."""
    return FlowBlueprint("10.0.0.1", "8.8.8.8", port, 80, 6, tuple(
        PacketBlueprint(d, 10, 0 if i == 0 else 1_000, f)
        for i, (d, f) in enumerate(flags)), start_us=start)


def units(n_flows):
    """Blueprints giving exactly ``n_flows`` flows, cycling through flows
    that end mid-capture on an RST, on FIN/FIN/ACK and on the flow timeout
    (two flows, the second live at the end), and flows live at the end."""
    out, made, i = [], 0, 0
    while made < n_flows:
        port, start = 1000 + i, 10_000 * i
        kind = i % 4
        if kind == 3 and n_flows - made >= 2:  # times out, then starts again
            out.append(FlowBlueprint("10.0.0.2", "8.8.4.4", port, 53, 17, (
                PacketBlueprint("fwd", 20, 0),
                PacketBlueprint("fwd", 20, 3_000_000)), start_us=start))
            made += 2
        else:
            out.append(tcp(port, start, [
                [("fwd", "S"), ("bwd", "R")],
                [("fwd", "S"), ("bwd", "SA"), ("fwd", "FA"), ("bwd", "FA"),
                 ("fwd", "A")],
                [("fwd", "S"), ("bwd", "SA"), ("fwd", "A")],
                [("fwd", "S"), ("bwd", "SA"), ("fwd", "PA")]][kind]))
            made += 1
        i += 1
    return out


def capture(path, blueprints):
    if blueprints:
        path.write_bytes(generate_synthetic_capture(blueprints, 1))
    else:  # no decodable packets: the global header alone
        path.write_bytes(generate_synthetic_capture(units(1), 1)[:24])
    return path


def dataset(tmp_path, n_flows, rules_text):
    """A manifest of two captures holding ``n_flows`` flows between them."""
    blueprints = units(n_flows)
    half = len(blueprints) // 2
    capture(tmp_path / "a.pcap", blueprints[:half])
    capture(tmp_path / "b.pcap", blueprints[half:])
    (tmp_path / "rules.csv").write_text(HEADER + rules_text)
    (tmp_path / "ds.manifest").write_text(
        "name = ds\ncaptures = a.pcap, b.pcap\nrules = rules.csv\n")
    return parse_manifest(tmp_path / "ds.manifest")


def write_sizes(monkeypatch):
    """The number of flows each ``cli.write_flow_csv`` call receives, as a
    list that fills while the spy is installed."""
    sizes = []

    def spy(path, batch, *args, **kwargs):
        sizes.append(len(batch))
        return write_flow_csv(path, batch, *args, **kwargs)

    monkeypatch.setattr(cli, "write_flow_csv", spy)
    return sizes


def listed_flows(manifest):
    flows = []
    for path in manifest.captures:
        flows += ingest_capture_detailed(str(path), CONFIG)[0]
    return flows


@pytest.mark.parametrize("n_flows", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_batched_extract_writes_the_bytes_of_one_write(tmp_path, monkeypatch,
                                                       caplog, n_flows):
    # The second rule matches TCP flows; the third matches nothing.
    manifest = dataset(tmp_path, n_flows,
                       "*,*,8.8.8.8,80,6,Bot\n9.9.9.9,*,*,*,*,Never\n")
    flows = listed_flows(manifest)
    assert len(flows) == n_flows
    rules = parse_rules(str(manifest.rules))
    write_flow_csv(tmp_path / "expected.csv", flows, label_flows(flows, rules)[0])

    sizes = write_sizes(monkeypatch)
    with caplog.at_level(logging.WARNING):
        report = cli.extract_and_label(manifest, CONFIG, tmp_path / "labeled.csv")
    assert ((tmp_path / "labeled.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())
    assert report.total == n_flows
    assert max(sizes) <= B
    assert sum(sizes) == n_flows
    assert len(sizes) == 1 + -(-n_flows // B)  # the header, then each batch
    assert sorted(tmp_path.iterdir()) == sorted(
        tmp_path / name for name in ("a.pcap", "b.pcap", "rules.csv",
                                     "ds.manifest", "expected.csv", "labeled.csv"))
    unmatched = [r for r in caplog.records if "matched no rule" in r.message]
    idle = [r.message for r in caplog.records if "matched no flow" in r.message]
    assert len(unmatched) == (1 if report.unmatched else 0)
    assert idle == (["1 of 2 rules matched no flow: line 3"] if n_flows
                    else ["2 of 2 rules matched no flow: line 2, line 3"])

    # The stage commands write the same bytes, in batches too.
    sizes.clear()
    assert cli.main(["extract", *map(str, manifest.captures), "--out",
                     str(tmp_path / "features.csv"), "--timeout-s", "2",
                     "--activity-timeout-s", "1"]) == 0
    assert cli.main(["label", str(tmp_path / "features.csv"), "--rules",
                     str(manifest.rules), "--out", str(tmp_path / "staged.csv")]) == 0
    assert ((tmp_path / "staged.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())
    assert max(sizes) <= B
    assert sum(sizes) == 2 * n_flows
    assert len(sizes) == 2 * (1 + -(-n_flows // B))

    # Labeling a file in place, too.
    assert cli.main(["label", str(tmp_path / "features.csv"), "--rules",
                     str(manifest.rules), "--out", str(tmp_path / "features.csv")]) == 0
    assert ((tmp_path / "features.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())
    assert max(sizes) <= B
    assert not list(tmp_path.glob(".*.partial"))


def test_no_write_exceeds_the_real_batch(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "FLOW_BATCH", REAL_BATCH)
    n_flows = 2 * REAL_BATCH + 3
    manifest = dataset(tmp_path, n_flows, "*,*,8.8.8.8,80,6,Bot\n")
    sizes = write_sizes(monkeypatch)
    report = cli.extract_and_label(manifest, CONFIG, tmp_path / "labeled.csv")
    assert report.total == n_flows
    assert sizes == [0, REAL_BATCH, REAL_BATCH, 3]  # the header, then each batch


def test_a_rule_matching_only_in_the_last_batch_is_not_idle(tmp_path, caplog):
    n_flows = 2 * B + 3
    manifest = dataset(tmp_path, n_flows, "")
    # The last flow restarted a flow that timed out: the window tells
    # them apart.
    last = listed_flows(manifest)[-1]
    assert last.protocol == 17
    (tmp_path / "rules.csv").write_text(
        HEADER.replace("\n", ",start,end\n") + "9.9.9.9,*,*,*,*,Never,,\n"
        f"{last.src_ip},{last.src_port},{last.dst_ip},{last.dst_port},"
        f"{last.protocol},Late,{last.start_ts_us},{last.start_ts_us}\n")
    with caplog.at_level(logging.WARNING):
        report = cli.extract_and_label(manifest, CONFIG, tmp_path / "labeled.csv")
    assert report.counts == {"Normal": n_flows - 1, "Late": 1}
    assert report.rule_matches == [0, 1]
    assert [r.message for r in caplog.records] == [
        f"{n_flows - 1} of {n_flows} flows matched no rule and were labeled 'Normal'",
        "1 of 2 rules matched no flow: line 2"]


@pytest.fixture
def broken(tmp_path):
    """A manifest whose second capture is not a pcap."""
    manifest = dataset(tmp_path, 2 * B + 3, "*,*,8.8.8.8,*,*,Bot\n")
    manifest.captures[1].write_bytes(b"this is not a pcap file at all")
    return manifest


def test_a_failed_extract_writes_no_file(tmp_path, broken):
    out = tmp_path / "labeled.csv"
    with pytest.raises(PcapFormatError):
        cli.extract_and_label(broken, CONFIG, out)
    assert not out.exists()
    before = sorted(tmp_path.iterdir())

    out.write_bytes(b"an earlier run's output\n")
    with pytest.raises(PcapFormatError):
        cli.extract_and_label(broken, CONFIG, out)
    assert out.read_bytes() == b"an earlier run's output\n"
    assert sorted(tmp_path.iterdir()) == sorted(before + [out])


def test_a_failed_extract_command_prints_one_error(tmp_path, broken, capsys):
    out = tmp_path / "features.csv"
    assert cli.main(["extract", *map(str, broken.captures), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_a_failed_extract_fails_the_pipeline_in_its_extract_stage(tmp_path, broken):
    (tmp_path / "config.json").write_text(json.dumps(
        {"datasets": ["ds.manifest"], "out_dir": "out", "threshold": 1}))
    assert cli.main(["pipeline", "--config", str(tmp_path / "config.json")]) == 1
    marker = (tmp_path / "out/FAILED").read_text()
    assert marker.startswith("stage: extract\nPcapFormatError: ")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["FAILED"]


def test_an_empty_rule_list_fails_before_any_capture_is_metered(tmp_path,
                                                                monkeypatch):
    manifest = dataset(tmp_path, 0, "")
    metered = []
    monkeypatch.setattr(cli, "ingest_capture_detailed",
                        lambda *a: metered.append(a))
    with pytest.raises(ValidationError, match="^need at least one label rule$"):
        cli.extract_and_label(manifest, CONFIG, tmp_path / "labeled.csv")
    assert metered == []
    assert not (tmp_path / "labeled.csv").exists()


def test_a_failed_label_writes_no_file(tmp_path, capsys):
    manifest = dataset(tmp_path, 2 * B + 3, "*,*,8.8.8.8,80,6,Bot\n")
    features, out = tmp_path / "features.csv", tmp_path / "labeled.csv"
    write_flow_csv(features, listed_flows(manifest))
    text = features.read_bytes()
    assert text.count(b"\n") == 1 + 2 * B + 3
    # A bad cell in the last row, after two full batches.
    features.write_bytes(text[:text.rindex(b",")] + b",12x\r\n")
    bad = features.read_bytes()
    label = ["label", str(features), "--rules", str(manifest.rules), "--out"]
    error = (f"error: {features}: non-integer value '12x' in column 'Inbound' "
             f"at line {2 * B + 4}\n")
    assert cli.main([*label, str(out)]) == 1
    assert capsys.readouterr().err == error
    assert not out.exists()

    out.write_bytes(b"an earlier run's output\n")
    assert cli.main([*label, str(out)]) == 1
    assert out.read_bytes() == b"an earlier run's output\n"
    assert cli.main([*label, str(features)]) == 1  # in place
    assert features.read_bytes() == bad
    assert capsys.readouterr().err == 2 * error
    assert not list(tmp_path.glob(".*.partial"))


def test_an_empty_rule_list_fails_before_the_flow_csv_is_opened(tmp_path, capsys):
    (tmp_path / "rules.csv").write_text(HEADER)
    out = tmp_path / "labeled.csv"
    # The flow CSV does not exist, so opening it would fail otherwise.
    assert cli.main(["label", str(tmp_path / "missing.csv"), "--rules",
                     str(tmp_path / "rules.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: need at least one label rule\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "rules.csv"]


# Loads bench/spans.py as a file (it is not a package), installs its
# tracer, and meters a capture of several batches under it, as a traced
# benchmark run does.
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from time import perf_counter
from botmeter import cli
from botmeter.dataset import parse_manifest
from botmeter.meter import MeterConfig
cli.FLOW_BATCH = int(sys.argv[3])
tracer = spans.Tracer()
untraced = spans.install(tracer)
manifest = parse_manifest(sys.argv[2])
config = MeterConfig(flow_timeout_us=2_000_000, activity_timeout_us=1_000_000)
t0 = perf_counter()
tracer.call(spans.ROOT, cli.extract_and_label,
            (manifest, config, manifest.rules.parent / "labeled.csv"), {})
wall = perf_counter() - t0
labeled = sum(attrs["flows"] for name, attrs, _ in tracer.self_times()
              if name == "labeling.label_flows")
print(json.dumps({"untraced": untraced, "labeled": labeled,
                  "layers": spans.layer_metrics(tracer, wall)}))
"""


def test_the_benchmark_tracer_still_sees_every_layer(tmp_path):
    manifest = dataset(tmp_path, 300, "*,*,8.8.8.8,80,6,Bot\n")
    flows = len(listed_flows(manifest))
    packets = sum(len(bp.packets) for bp in units(300))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "bench" / "spans.py"),
         str(tmp_path / "ds.manifest"), "16"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    layers = result["layers"]
    assert result["untraced"] == ["selection.standardize"]
    assert layers["pcap.decoded"] == packets
    assert layers["dataset.rows_written"] == result["labeled"] == flows
    assert layers["meter.flows"] == flows
    # The tracer wraps FlowTable.flush and offer_packet: flush must still
    # run once per capture and return a sized list of the live flows.
    live = 0
    for path in manifest.captures:
        table = FlowTable(CONFIG)
        for pkt in read_capture(str(path)):
            table.offer_packet(pkt)
        live += len(table.flush())
    assert layers["meter.flows_at_flush"] == live > 0
    assert layers["meter.offer_s"] > 0
    assert layers["trace.self_sum_share"] == pytest.approx(1, abs=0.05)
