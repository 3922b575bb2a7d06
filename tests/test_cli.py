import csv
import json
import re
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from botmeter import classifiers, cli, meter
from botmeter.dataset import (FeatureTable, format_number, read_feature_csv,
                              read_flow_csv, write_flow_csv)
from botmeter.demo import make_demo_corpus
from botmeter.errors import CsvFormatError, ValidationError
from botmeter.features import FEATURE_COLUMNS
from botmeter.meter import MeterConfig
from botmeter.selection import derive_universal_set, rank_features_lr
from botmeter.synth import FlowBlueprint, PacketBlueprint, generate_synthetic_capture

import capgen
import oracle
from test_dataset import ZEROS
from test_labeling import flow


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    config = make_demo_corpus(root, seed=3, flows_per_class=30)
    return config


class TestStageCommands:
    def test_extract_label_rank_universal_train_evaluate(self, corpus, tmp_path, capsys):
        base = corpus.parent
        ds = base / "synth-ddos"
        features = tmp_path / "features.csv"
        assert run_cli("extract", ds / "capture_a.pcap", ds / "capture_b.pcap",
                       "--out", features) == 0
        labeled = tmp_path / "labeled.csv"
        assert run_cli("label", features, "--rules", ds / "rules.csv",
                       "--out", labeled) == 0
        out = capsys.readouterr().out
        assert "Botnet" in out and "Normal" in out

        ranked1 = tmp_path / "ranked1.csv"
        assert run_cli("rank", labeled, "--top-k", 10, "--out", ranked1) == 0

        ds2 = base / "synth-udpflood"
        features2 = tmp_path / "features2.csv"
        run_cli("extract", ds2 / "capture_a.pcap", ds2 / "capture_b.pcap",
                "--out", features2)
        labeled2 = tmp_path / "labeled2.csv"
        run_cli("label", features2, "--rules", ds2 / "rules.csv", "--out", labeled2)
        ranked2 = tmp_path / "ranked2.csv"
        run_cli("rank", labeled2, "--top-k", 10, "--out", ranked2)

        universal = tmp_path / "universal.csv"
        assert run_cli("universal", ranked1, ranked2, "--threshold", 2,
                       "--out", universal) == 0
        names = cli.read_universal_features(universal)
        assert names
        # No feature can be selected by three of two lists.
        capsys.readouterr()
        assert run_cli("universal", ranked1, ranked2, "--threshold", 3,
                       "--out", tmp_path / "unreachable.csv") == 1
        assert capsys.readouterr().err == (
            "error: threshold must be within 1..2 (the number of ranked lists), "
            "got 3\n")
        assert not (tmp_path / "unreachable.csv").exists()

        models = tmp_path / "models"
        assert run_cli("train", labeled, "--universal", universal,
                       "--name", "ds", "--out", models) == 0
        assert sorted(p.name for p in models.iterdir()) == [
            f"model_ds_{k}.json" for k in ("KNN", "LR", "NB", "RF")]

        metrics = tmp_path / "metrics.csv"
        assert run_cli("evaluate", labeled, "--universal", universal,
                       "--models", models, "--name", "ds", "--out", metrics) == 0
        lines = metrics.read_text().splitlines()
        assert lines[0] == "dataset,classifier,accuracy,precision,recall,f1"
        assert len(lines) == 5
        # A broken model file is one error line that names it.
        capsys.readouterr()
        nb = (models / "model_ds_NB.json").read_text()
        (models / "model_ds_NB.json").write_text("not json")
        assert run_cli("evaluate", labeled, "--universal", universal,
                       "--models", models, "--name", "ds") == 1
        assert capsys.readouterr().err.startswith(
            f"error: {models / 'model_ds_NB.json'}: not a JSON model: ")
        # So is a forest with a split too many for its node count, whose
        # last split's children would lie past the end of the table.
        (models / "model_ds_NB.json").write_text(nb)
        rf = models / "model_ds_RF.json"
        doc = json.loads(rf.read_text())
        doc["state"]["feature"][-1] = 0
        rf.write_text(json.dumps(doc))
        assert run_cli("evaluate", labeled, "--universal", universal,
                       "--models", models, "--name", "ds") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rf}: RF model state 'feature': ")
        assert err.count("\n") == 1

    def test_unexpected_exception_is_one_error_line(self, tmp_path, capsys,
                                                    caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "train_models", fail)
        universal = tmp_path / "universal.csv"
        universal.write_text("name,count\nFlow IAT Mean,2\n", encoding="utf-8")
        (tmp_path / "labeled.csv").write_text(
            "Flow IAT Mean,Label\n1,Normal\n2,Botnet\n3,Normal\n4,Botnet\n",
            encoding="utf-8")
        with caplog.at_level("DEBUG", logger="botmeter.cli"):
            code = run_cli("train", tmp_path / "labeled.csv", "--universal",
                           universal, "--out", tmp_path / "models")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: ValueError: boom"]
        [record] = [r for r in caplog.records if r.exc_info]
        assert record.levelname == "DEBUG"
        assert record.exc_info[0] is ValueError

    def test_rank_rejects_non_finite_cell_with_line_and_column(self, tmp_path,
                                                              capsys):
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("Flow Duration,Flow Bytes/s,Label\n1,2,Normal\n"
                           "3,Infinity,Botnet\n5,6,Normal\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("rank", labeled, "--top-k", 1,
                           "--out", tmp_path / "ranked.csv")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {labeled}: non-finite value 'Infinity' in column "
            "'Flow Bytes/s' at line 3"]
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("cell", ["Infinity", "inf", "-inf", "NaN", "nan"])
    def test_label_rejects_non_finite_feature_cell(self, tmp_path, capsys, cell):
        rows = [flow(sport=sport, values=ZEROS)
                for sport in (1000, 1001)]
        features = tmp_path / "features.csv"
        write_flow_csv(features, rows)
        lines = features.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index("Flow Bytes/s")] = cell
        lines[2] = ",".join(cells)
        features.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rules = tmp_path / "rules.csv"
        rules.write_text("src_ip,src_port,dst_ip,dst_port,protocol,label\n"
                         "10.0.0.5,*,*,*,*,Botnet\n", encoding="utf-8")
        labeled = tmp_path / "labeled.csv"
        code = run_cli("label", features, "--rules", rules, "--out", labeled)
        assert code != 0
        assert capsys.readouterr().err.splitlines() == [
            f"error: {features}: non-finite value {cell!r} in column "
            "'Flow Bytes/s' at line 3"]
        assert not labeled.exists()

    def test_label_rejects_non_utf8_flow_csv(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        write_flow_csv(features, [flow(values=ZEROS)])
        features.write_bytes(features.read_bytes().replace(b"8.8.8.8-", b"\xff-"))
        rules = tmp_path / "rules.csv"
        rules.write_text("src_ip,src_port,dst_ip,dst_port,protocol,label\n"
                         "10.0.0.5,*,*,*,*,Botnet\n", encoding="utf-8")
        labeled = tmp_path / "labeled.csv"
        assert run_cli("label", features, "--rules", rules, "--out", labeled) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {features}: not UTF-8 text at line 2 (invalid start byte)"]
        assert not labeled.exists()

    def test_label_refuses_number_text_no_writer_emits(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        write_flow_csv(features, [flow(values=ZEROS)])
        lines = features.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index("Flow Duration")] = "1_000"
        lines[1] = ",".join(cells)
        features.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rules = tmp_path / "rules.csv"
        rules.write_text("src_ip,src_port,dst_ip,dst_port,protocol,label\n"
                         "10.0.0.5,*,*,*,*,Botnet\n", encoding="utf-8")
        labeled = tmp_path / "labeled.csv"
        assert run_cli("label", features, "--rules", rules, "--out", labeled) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {features}: non-integer value '1_000' in column "
            "'Flow Duration' at line 2"]
        assert not labeled.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("text, message", [
        ("name,count\n", "names no feature"),
        ("name,count\nFlow IAT Mean,2\nFlow Duration,2\nFlow IAT Mean,2\n",
         "column(s) named more than once: 'Flow IAT Mean'"),
    ], ids=["empty", "repeated"])
    def test_a_bad_universal_set_is_refused_naming_the_file(
            self, tmp_path, capsys, command, text, message):
        # A repeated name would give every model that column twice.
        labeled = tmp_path / "labeled.csv"
        write_flow_csv(labeled, [flow(values=ZEROS)] * 4, ["Botnet", "Normal"] * 2)
        universal = tmp_path / "universal.csv"
        universal.write_text(text, encoding="utf-8")
        models = tmp_path / "models"
        assert run_cli(command, labeled, "--universal", universal,
                       "--models" if command == "evaluate" else "--out", models) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {universal}: {message}"]
        assert not models.exists()

    def test_train_refuses_a_split_with_an_empty_half(self, tmp_path, capsys):
        labeled = tmp_path / "labeled.csv"
        write_flow_csv(labeled, [flow(values=ZEROS)] * 10, ["Botnet", "Normal"] * 5)
        universal = tmp_path / "universal.csv"
        universal.write_text("name,count\nFlow Duration,1\n", encoding="utf-8")
        assert run_cli("train", labeled, "--universal", universal, "--ratio", 0.04,
                       "--out", tmp_path / "models") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: split ratio 0.04 of 10 rows leaves the train half empty"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_train_refuses_a_model_it_cannot_save(self, tmp_path, capsys):
        # The NB variances of a column of +-1e300 overflow to inf, which a
        # model file cannot hold.
        at = [name for name, _ in FEATURE_COLUMNS].index("Flow IAT Mean")
        flows = [flow(values=ZEROS[:at] + (value,) + ZEROS[at + 1:])
                 for value in (1e300, -1e300) * 10]
        labeled = tmp_path / "labeled.csv"
        write_flow_csv(labeled, flows, ["Botnet", "Botnet", "Normal", "Normal"] * 5)
        universal = tmp_path / "universal.csv"
        universal.write_text("name,count\nFlow IAT Mean,1\n", encoding="utf-8")
        models = tmp_path / "models"
        assert run_cli("train", labeled, "--universal", universal,
                       "--out", models) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot save NB model: state 'variances' holds a non-finite value"]
        assert not list(models.glob("*_NB.json"))

    @pytest.mark.parametrize("argv", [
        ["rank", "l.csv", "--out", "r.csv"],
        ["train", "l.csv", "--universal", "u.csv", "--out", "models"],
        ["evaluate", "l.csv", "--universal", "u.csv", "--models", "models"],
    ])
    @pytest.mark.parametrize("name", ["", "a/b", "a\\b"])
    def test_a_name_that_cannot_be_a_file_name_part_is_refused(
            self, tmp_path, capsys, argv, name):
        assert run_cli(*argv, "--name", name) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --name: dataset name {name!r} cannot be part of a file name"]

    def test_rank_has_no_seed_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_cli("rank", tmp_path / "labeled.csv", "--seed", 1,
                    "--out", tmp_path / "ranked.csv")
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--timeout-s", "inf", "flow_timeout_s must be a finite number, got inf"),
        ("--timeout-s", "nan", "flow_timeout_s must be a finite number, got nan"),
        ("--activity-timeout-s", "inf",
         "activity_timeout_s must be a finite number, got inf"),
        ("--timeout-s", "1e307",
         "flow_timeout_s is too large to count in microseconds"),
        ("--activity-timeout-s", "0", "flow_timeout_s must exceed activity_timeout_s, "
                                      "both > 0 (got 120.0 s, 0.0 s)"),
    ])
    def test_extract_rejects_a_timeout_it_cannot_count(self, tmp_path, capsys,
                                                       flag, value, message):
        capture = tmp_path / "cap.pcap"
        capture.write_bytes(generate_synthetic_capture([FlowBlueprint(
            "10.0.0.1", "8.8.8.8", 1000, 80, 6, (PacketBlueprint("fwd", 10, 0),))],
            1))
        argv = ["extract", str(capture), "--out", str(tmp_path / "f.csv"),
                flag, value]
        with pytest.raises(ValidationError) as info:
            cli._dispatch(cli.build_parser().parse_args(argv))
        assert str(info.value) == message
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("reader, text, message", [
        (cli.read_ranked_csv, b"name,score\nFlow Duration,0.5\nIdle Max,high\n",
         "non-numeric value 'high' in column 'score' at line 3"),
        (cli.read_ranked_csv, b"name,score\nFlow Duration,0.5\nIdle Max\n",
         r"ragged row at line 3 \(1 cells, expected 2\)"),
        (cli.read_ranked_csv, b"name,score\nFlow Duration,0.5\nIdle M\xe4x,0.2\n",
         r"not UTF-8 text at line 3 \(invalid continuation byte\)"),
        (cli.read_ranked_csv, b"feature,score\nFlow Duration,0.5\n",
         "not a ranked-list CSV"),
        (cli.read_ranked_csv, b"name,score\nFlow Duration,nan\n",
         "non-finite value 'nan' in column 'score' at line 2"),
        (cli.read_ranked_csv, b"name,score\nFlow Duration, inf\n",
         "non-numeric value ' inf' in column 'score' at line 2"),
        (cli.read_ranked_csv, b"name,score\nFlow Duration,1_0\n",
         "non-numeric value '1_0' in column 'score' at line 2"),
        (cli.read_universal_features, b"name,count\nFlow Duration,2\nIdle Max\n",
         r"ragged row at line 3 \(1 cells, expected 2\)"),
        (cli.read_universal_features, b"name,count\nFlow Duration,2\n\xff,2\n",
         r"not UTF-8 text at line 3 \(invalid start byte\)"),
        (cli.read_universal_features, b"", "missing header row"),
    ], ids=["ranked-score", "ranked-one-cell", "ranked-utf8", "ranked-header",
            "ranked-nan", "ranked-space", "ranked-digit-group", "universal-one-cell", "universal-utf8", "universal-empty"])
    def test_ranked_and_universal_files_refuse_bad_rows(self, tmp_path, reader,
                                                        text, message):
        path = tmp_path / "list.csv"
        path.write_bytes(text)
        with pytest.raises(CsvFormatError, match=f"^{re.escape(str(path))}: {message}$"):
            reader(path)

    def test_universal_stage_names_a_bad_ranked_file(self, tmp_path, capsys):
        ranked = tmp_path / "ranked.csv"
        ranked.write_text("name,score\nFlow Duration,x\n", encoding="utf-8")
        assert run_cli("universal", ranked, ranked, "--out",
                       tmp_path / "universal.csv") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ranked}: non-numeric value 'x' in column 'score' at line 2"]

    def test_universal_stage_refuses_a_set_that_names_no_feature(self, tmp_path,
                                                                  capsys):
        # The pipeline's universal stage refuses this case with the same
        # message (both call cli.universal_set).
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("name,score\nFlow Duration,0.5\n", encoding="utf-8")
        second.write_text("name,score\nFlow IAT Mean,0.5\n", encoding="utf-8")
        out = tmp_path / "universal.csv"
        assert run_cli("universal", first, second, "--threshold", 2,
                       "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: no feature reached selection count 2"]
        assert not out.exists()

    def test_synth_blueprint_roundtrip(self, tmp_path):
        blueprint = {
            "seed": 9,
            "flows": [
                {"src_ip": "10.0.0.1", "dst_ip": "8.8.8.8", "src_port": 5,
                 "dst_port": 80, "protocol": 6, "label": "Botnet",
                 "packets": [{"dir": "fwd", "payload": 10, "flags": "S"},
                             {"dir": "bwd", "payload": 20, "gap_us": 50,
                              "flags": "SA"}]},
            ],
        }
        bp_path = tmp_path / "bp.json"
        bp_path.write_text(json.dumps(blueprint))
        out = tmp_path / "cap.pcap"
        assert run_cli("synth", "--blueprint", bp_path, "--out", out) == 0
        from botmeter.meter import ingest_capture_detailed
        flows, _ = ingest_capture_detailed(str(out))
        assert len(flows) == 1
        assert oracle.named(flows[0])["Total Backward Packets"] == 1
        assert out.with_suffix(".rules.csv").read_bytes() == (
            b"src_ip,src_port,dst_ip,dst_port,protocol,label\n"
            b"10.0.0.1,5,8.8.8.8,80,6,Botnet\n")

    BLUEPRINT_FLOW = {"src_ip": "10.0.0.1", "dst_ip": "8.8.8.8", "src_port": 5,
                      "dst_port": 80, "protocol": 6, "packets": [{"payload": 10}]}

    @pytest.mark.parametrize("label", ["Bot,net", 'Bot"net'])
    def test_synth_blueprint_label_that_needs_quoting(self, tmp_path, label):
        bp_path = tmp_path / "bp.json"
        bp_path.write_text(json.dumps(
            {"flows": [{**self.BLUEPRINT_FLOW, "label": label}]}))
        capture, features = tmp_path / "cap.pcap", tmp_path / "features.csv"
        labeled = tmp_path / "labeled.csv"
        assert run_cli("synth", "--blueprint", bp_path, "--out", capture) == 0
        assert run_cli("extract", capture, "--out", features) == 0
        assert run_cli("label", features, "--rules", capture.with_suffix(".rules.csv"),
                       "--out", labeled) == 0
        assert [cell for _, cell in read_flow_csv(labeled)] == [label]

    @pytest.mark.parametrize("doc, message", [
        ({"flows": [{"dst_ip": "8.8.8.8", "src_port": 5, "dst_port": 80,
                     "protocol": 6}]}, "flows[0]: missing key(s) 'src_ip'"),
        ([BLUEPRINT_FLOW], "blueprint must be a JSON object"),
        ({"flows": [{**BLUEPRINT_FLOW, "src_port": "x"}]},
         "flows[0]: src_port must be an integer, got 'x'"),
        (b'{"flows": [], "seed": "\xff"}',
         "not a JSON blueprint: 'utf-8' codec can't decode byte 0xff in "
         "position 23: invalid start byte"),
        ({"flows": [{**BLUEPRINT_FLOW, "src_port": 70000}]},
         "flows[0]: src_port must be an integer within 0..65535, got 70000"),
        ({"flows": [BLUEPRINT_FLOW, {**BLUEPRINT_FLOW, "packets": [{"window": -1}]}]},
         "flows[1]: packets[0]: window must be an integer within 0..65535, got -1"),
        ({"flows": [{**BLUEPRINT_FLOW, "dst_ip": "8.8.8"}]},
         "flows[0]: dst_ip is not an IP address: '8.8.8'"),
        ({"flows": [BLUEPRINT_FLOW, {**BLUEPRINT_FLOW, "label": " Bot "}]},
         "flows[1]: label must be a non-empty string without surrounding "
         "whitespace, got ' Bot '"),
        ({"flows": [{**BLUEPRINT_FLOW, "label": ""}]},
         "flows[0]: label must be a non-empty string without surrounding "
         "whitespace, got ''"),
        ({"flows": [{**BLUEPRINT_FLOW, "label": 5}]},
         "flows[0]: label must be a non-empty string without surrounding "
         "whitespace, got 5"),
        # A misspelled key would otherwise leave its default in force.
        ({"sede": 3, "flows": [BLUEPRINT_FLOW]}, "unknown key(s) 'sede'"),
        ({"flows": [BLUEPRINT_FLOW, {**BLUEPRINT_FLOW, "start": 5000000}]},
         "flows[1]: unknown key(s) 'start'"),
        ({"flows": [{**BLUEPRINT_FLOW, "packets": [{"payload_len": 64, "gap": 10}]}]},
         "flows[0]: packets[0]: unknown key(s) 'gap', 'payload_len'"),
        ({"flows": [{"src_ip": "10.0.0.1", "dst_port": 80, "protocol": 6,
                     "sport": 5}]},
         "flows[0]: missing key(s) 'dst_ip', 'src_port'; unknown key(s) 'sport'"),
        ({"flows": [{**BLUEPRINT_FLOW, "protocol": 6.0}]},
         "flows[0]: protocol must be an integer, got 6.0"),
    ])
    def test_synth_blueprint_input_errors_name_file_flow_and_key(
            self, tmp_path, capsys, doc, message):
        bp_path = tmp_path / "bp.json"
        bp_path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        out = tmp_path / "cap.pcap"
        assert run_cli("synth", "--blueprint", bp_path, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bp_path}: {message}"]
        assert not out.exists()

    def test_stage_commands_match_the_pipeline(self, corpus, tmp_path):
        config = cli.load_pipeline_config(corpus)
        pipe = tmp_path / "pipe"
        assert cli.run_pipeline(cli.PipelineConfig(
            manifests=config.manifests, meter=config.meter, out_dir=pipe,
            seed=4, ratio=0.75, top_k=8, threshold=2)) == 0

        stages = tmp_path / "stages"
        stages.mkdir()
        names = [m.name for m in config.manifests]
        for name in names:
            assert run_cli("rank", pipe / f"labeled_{name}.csv", "--top-k", 8,
                           "--name", name,
                           "--out", stages / f"ranked_{name}.csv") == 0
        assert run_cli("universal", *(stages / f"ranked_{n}.csv" for n in names),
                       "--threshold", 2, "--out", stages / "universal.csv") == 0
        metrics = ["dataset,classifier,accuracy,precision,recall,f1"]
        for name in names:
            labeled = pipe / f"labeled_{name}.csv"
            assert run_cli("train", labeled, "--universal", stages / "universal.csv",
                           "--seed", 4, "--ratio", 0.75, "--name", name,
                           "--out", stages) == 0
            out = stages / f"metrics_{name}.csv"
            assert run_cli("evaluate", labeled, "--universal",
                           stages / "universal.csv", "--models", stages,
                           "--seed", 4, "--ratio", 0.75, "--name", name,
                           "--out", out) == 0
            metrics += out.read_text(encoding="utf-8").splitlines()[1:]

        shared = ["universal.csv"] + [f"ranked_{n}.csv" for n in names] + [
            f"model_{n}_{k}.json" for n in names for k in classifiers.KINDS]
        for file_name in shared:
            assert (stages / file_name).read_bytes() == \
                (pipe / file_name).read_bytes(), file_name
        assert metrics == (pipe / "metrics.csv").read_text(
            encoding="utf-8").splitlines()


def test_build_model_specs_default_order():
    specs = cli.build_model_specs(7, None)
    assert [s.kind for s in specs] == ["NB", "KNN", "RF", "LR"]
    assert all(s.seed == 7 for s in specs)


@pytest.mark.parametrize("overrides, message", [
    ({"LR": {"learning_rate": 0.5}}, "models.LR: unknown key(s) 'learning_rate'"),
    ({"LR": {"tol": 1e-3, "max_iters": 50}}, "models.LR: unknown key(s) 'tol'"),
    ({"RF": {"n_tree": 5, "seed": 1}}, "models.RF: unknown key(s) 'n_tree', 'seed'"),
    ({"SVM": {}}, "models: unknown key(s) 'SVM'"),
    ({"KNN": 5}, "models: expected an object of settings per kind"),
    ([{"k": 5}], "models: expected an object of settings per kind"),
    ({"LR": {"max_iters": 0}}, "models.LR: max_iters must be >= 1"),
    ({"KNN": {"k": "5"}}, "models.KNN: k must be an integer, got '5'"),
    ({"KNN": {"k": 5.0}}, "models.KNN: k must be an integer, got 5.0"),
    ({"RF": {"n_trees": True}}, "models.RF: n_trees must be an integer, got True"),
    ({"RF": {"max_features": 2.5}},
     "models.RF: max_features must be an integer, got 2.5"),
    ({"RF": {"min_samples_split": "2"}},
     "models.RF: min_samples_split must be an integer, got '2'"),
    ({"RF": {"min_samples_split": -5}}, "models.RF: min_samples_split must be >= 2"),
    ({"RF": {"bootstrap": 1}}, "models.RF: bootstrap must be true or false, got 1"),
    ({"LR": {"max_iters": 50.0}}, "models.LR: max_iters must be an integer, got 50.0"),
    ({"LR": {"l2_lambda": "1"}},
     "models.LR: l2_lambda must be a finite number, got '1'"),
    ({"NB": {"var_smoothing": None}},
     "models.NB: var_smoothing must be a finite number, got None"),
    ({"NB": {"n_trees": 5, "k": 99}}, "models.NB: unknown key(s) 'k', 'n_trees'"),
    ({"LR": {"bootstrap": False}}, "models.LR: unknown key(s) 'bootstrap'"),
    ({"KNN": {"k": 3, "var_smoothing": 1e-9}},
     "models.KNN: unknown key(s) 'var_smoothing'"),
    ({"RF": {"n_trees": 5, "l2_lambda": 2.0, "max_iters": 9}},
     "models.RF: unknown key(s) 'l2_lambda', 'max_iters'"),
])
def test_build_model_specs_rejects_bad_overrides(overrides, message):
    with pytest.raises(ValidationError) as info:
        cli.build_model_specs(0, overrides)
    assert str(info.value) == message


def test_each_kind_takes_its_own_hyperparameters():
    specs = cli.build_model_specs(0, {
        "NB": {"var_smoothing": 1e-8}, "KNN": {"k": 3},
        "RF": {"n_trees": 5, "max_features": 2, "min_samples_split": 4,
               "bootstrap": False},
        "LR": {"l2_lambda": 0.5, "max_iters": 50}})
    assert [(s.kind, s.var_smoothing, s.k, s.n_trees, s.l2_lambda) for s in specs] == [
        ("NB", 1e-8, 5, 100, 1.0), ("KNN", 1e-9, 3, 100, 1.0),
        ("RF", 1e-9, 5, 5, 1.0), ("LR", 1e-9, 5, 100, 0.5)]
    # Every ModelSpec hyperparameter belongs to exactly one kind.
    keys = [key for params in classifiers.PARAMS.values() for key in params]
    assert sorted(keys) == sorted(
        f.name for f in fields(classifiers.ModelSpec) if f.name not in ("kind", "seed"))


def test_bad_model_override_fails_at_config_load(tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps(
        {"datasets": ["gone.manifest"], "models": {"LR": {"tol": 1e-3}}}))
    (tmp_path / "gone.manifest").write_text(
        "name = ds\ncaptures = gone.pcap\nrules = rules.csv\n")
    assert run_cli("pipeline", "--config", tmp_path / "config.json") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {tmp_path / 'config.json'}: models.LR: unknown key(s) 'tol'"]
    assert not (tmp_path / "pipeline_out").exists()


def json_input(tmp_path, kind):
    """A valid JSON input of ``kind``: its path, its document and the
    function that loads it."""
    path = tmp_path / f"{kind}.json"
    if kind == "config":
        (tmp_path / "ds.manifest").write_text(
            "name = ds\ncaptures = gone.pcap\nrules = rules.csv\n")
        doc = {"datasets": ["ds.manifest"], "threshold": 1,
               "models": {"LR": {"l2_lambda": 1.0}, "RF": {"n_trees": 5}}}
        return path, doc, cli.load_pipeline_config
    if kind == "blueprint":
        flow = json.loads(json.dumps(TestStageCommands.BLUEPRINT_FLOW))  # a deep copy
        return path, {"seed": 1, "flows": [flow]}, cli.blueprints_from_json
    classifiers.save_model(classifiers.fit(
        classifiers.ModelSpec(kind="LR"), [[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1]), path)
    return path, json.loads(path.read_text()), classifiers.load_model


INTEGER, REAL = "an integer", "a finite number"


@pytest.mark.parametrize("kind, field, rule", [
    ("config", ("flow_timeout_s",), REAL),
    ("config", ("models", "LR", "l2_lambda"), REAL),
    ("config", ("seed",), INTEGER),
    ("config", ("models", "RF", "n_trees"), INTEGER),
    ("blueprint", ("flows", 0, "protocol"), INTEGER),
    ("blueprint", ("flows", 0, "packets", 0, "gap_us"), INTEGER),
    ("blueprint", ("flows", 0, "packets", 0, "payload"), INTEGER),
    ("blueprint", ("flows", 0, "packets", 0, "dir"), "fwd or bwd"),
    ("blueprint", ("seed",), INTEGER),
    ("model", ("spec", "l2_lambda"), REAL),
    ("model", ("state", "bias"), REAL),
    ("model", ("spec", "n_trees"), INTEGER),
    ("model", ("state", "n_iters"), INTEGER),
])
@pytest.mark.parametrize("text, value", [
    ("NaN", "nan"), ("Infinity", "inf"), ("1e999", "inf"), ("6.0", "6.0"),
    ("true", "True")])
def test_every_json_input_takes_a_bom_and_refuses_a_number_its_field_cannot_hold(
        tmp_path, kind, field, rule, text, value):
    path, doc, load = json_input(tmp_path, kind)
    # A byte-order mark, as Windows editors write one, is dropped.
    path.write_text("\ufeff" + json.dumps(doc), encoding="utf-8")
    load(path)
    *parents, key = field
    holder = doc
    for step in parents:
        holder = holder[step]
    holder[key] = "@"
    path.write_text("\ufeff" + json.dumps(doc).replace('"@"', text), encoding="utf-8")
    if text == "6.0" and rule == REAL:
        load(path)  # a real field takes 6.0
        return
    with pytest.raises(ValidationError) as caught:
        load(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: ")
    assert re.search(rf"\b{key}\b.* must be {rule}, got {value}$", message), message


def test_capture_summary_logs_each_skip_reason(tmp_path, caplog):
    data = generate_synthetic_capture([FlowBlueprint(
        "10.0.0.1", "8.8.8.8", 1000, 80, 6,
        (PacketBlueprint("fwd", 10, 1, "S"), PacketBlueprint("bwd", 0, 1, "SA")))], 1)
    frame = data[40:40 + struct.unpack_from("<I", data, 32)[0]]
    arp = frame[:12] + b"\x08\x06" + bytes(28)
    fragment = bytearray(frame)
    fragment[20] |= 0x20   # more fragments
    frames = [arp, bytes(fragment), frame[:30]]
    records = b"".join(struct.pack("<IIII", 2, 0, len(f), len(f)) + f for f in frames)
    capture = tmp_path / "skips.pcap"
    capture.write_bytes(data + records)
    with caplog.at_level("INFO", logger="botmeter.cli"):
        assert run_cli("extract", capture, "--out", tmp_path / "flows.csv") == 0
    assert len(list(read_flow_csv(tmp_path / "flows.csv"))) == 1
    assert caplog.messages == [
        f"{capture}: 5 records -> 1 flows (3 skipped: 1 truncated, 1 link, "
        "1 fragment, 0 protocol; 0 reordered)"]


PIPELINE_IMPORTS = """
import json, sys
from botmeter import cli
code = cli.main(["pipeline", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, "numpy.ma" in sys.modules]))
"""


def test_pipeline_does_not_import_numpy_ma(corpus, tmp_path):
    # numpy.ma adds about 1.3 MB to the peak; np.unique and np.median, for
    # example, import it.
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE_IMPORTS, str(corpus), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, False]


COMMAND_IMPORTS = """
import json, sys
from botmeter import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("numpy."))]))
"""


def test_only_the_modeling_commands_load_numpy(tmp_path):
    # numpy is about 13 MB of a process's peak, and metering, labeling and
    # the universal set use no arrays.  botmeter._numpy puts an unloaded
    # numpy in sys.modules, so its submodules (numpy._core from numpy 2 on,
    # numpy.core before) appear only once some code reads an attribute of np.
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}

    def numpy_modules(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", COMMAND_IMPORTS, *map(str, argv)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        return loaded

    demo, out = tmp_path / "demo", tmp_path / "out"
    scan = demo / "synth-scan"
    assert numpy_modules("synth", "--demo", "--out", demo) == []
    assert numpy_modules("extract", scan / "capture_a.pcap", scan / "capture_b.pcap",
                         "--out", tmp_path / "flows.csv") == []
    assert numpy_modules("label", tmp_path / "flows.csv", "--rules",
                         scan / "rules.csv", "--out", tmp_path / "labeled.csv") == []
    assert numpy_modules("pipeline", "--config", demo / "config.json",
                         "--out", out) != []
    ranked = sorted(out.glob("ranked_*.csv"))
    assert len(ranked) == 3
    assert numpy_modules("universal", *ranked, "--out", tmp_path / "u.csv") == []
    # numpy imported first is the module botmeter uses, not a second copy.
    proc = subprocess.run(
        [sys.executable, "-c", "import numpy, botmeter._numpy; "
                               "print(botmeter._numpy.np is numpy)"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.stdout == "True\n", proc.stderr


def test_python_m_botmeter_runs_the_command():
    proc = subprocess.run(
        [sys.executable, "-m", "botmeter", "--help"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(Path(cli.__file__).parents[1]),
             "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: botmeter ")


class TestPipeline:
    def test_single_dataset_smoke(self, corpus, tmp_path):
        config = cli.load_pipeline_config(corpus)
        single = cli.PipelineConfig(
            manifests=config.manifests[:1], meter=config.meter,
            out_dir=tmp_path / "out", seed=1, ratio=0.8, top_k=10, threshold=1)
        assert cli.run_pipeline(single) == 0
        metrics = (tmp_path / "out/metrics.csv").read_text().splitlines()
        assert len(metrics) == 1 + 4  # header + one row per classifier
        for row in metrics[1:]:
            cells = row.split(",")
            assert all(0.0 <= float(v) <= 100.0 for v in cells[2:])

    def test_missing_capture_fails_in_extract_stage(self, corpus, tmp_path, capsys):
        base = tmp_path / "broken"
        base.mkdir()
        (base / "rules.csv").write_text(
            "src_ip,src_port,dst_ip,dst_port,protocol,label\n1.2.3.4,*,*,*,*,X\n")
        (base / "ds.manifest").write_text(
            "name = broken\ncaptures = gone.pcap\nrules = rules.csv\n")
        (base / "config.json").write_text(json.dumps(
            {"datasets": ["ds.manifest"], "out_dir": "out", "threshold": 1}))
        assert run_cli("pipeline", "--config", base / "config.json") == 1
        err = capsys.readouterr().err
        assert "extract" in err
        marker = (base / "out/FAILED").read_text()
        assert "extract" in marker

    def test_bad_rule_file_fails_before_any_capture_is_read(
            self, corpus, tmp_path, monkeypatch, capsys):
        reads = []
        monkeypatch.setattr(meter, "read_capture", lambda *a: reads.append(a))
        # A call is counted even if its rows are never read.
        monkeypatch.setattr(cli, "read_flow_csv",
                            lambda *a: reads.append(a) or iter(()))
        rules = tmp_path / "rules.csv"
        rules.write_text("src_ip,src_port,dst_ip,dst_port,protocol,label\n"
                         "10.0.0.5,x,8.8.8.8,80,6,Botnet\n")
        manifest = replace(cli.load_pipeline_config(corpus).manifests[0], rules=rules)
        with pytest.raises(CsvFormatError, match="non-integer value 'x'"):
            cli.extract_and_label(manifest, MeterConfig(), tmp_path / "labeled.csv")
        assert run_cli("label", tmp_path / "features.csv", "--rules", rules,
                       "--out", tmp_path / "labeled.csv") == 1
        assert "non-integer value 'x'" in capsys.readouterr().err
        assert reads == []
        assert not (tmp_path / "labeled.csv").exists()

    def test_metrics_csv_quotes_a_dataset_name(self, corpus, tmp_path):
        config = cli.load_pipeline_config(corpus)
        manifests = (replace(config.manifests[0], name='ddos,"a"'),
                     config.manifests[1])
        out = tmp_path / "out"
        assert cli.run_pipeline(cli.PipelineConfig(
            manifests=manifests, meter=config.meter, out_dir=out, threshold=1)) == 0
        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {6}
        assert [row[0] for row in rows[1:5]] == ['ddos,"a"'] * 4

    @pytest.mark.parametrize("target, exc_type, stage", [
        ("rank_dataset", ValueError, "rank"),
        # What an RF too deep for the recursive grower used to raise.
        ("train_models", RecursionError, "train"),
        ("evaluate_predictions", ZeroDivisionError, "evaluate"),
    ])
    def test_unexpected_exception_writes_marker(self, corpus, tmp_path, capsys,
                                                monkeypatch, target, exc_type,
                                                stage):
        def fail(*args, **kwargs):
            raise exc_type("boom")

        monkeypatch.setattr(cli, target, fail)
        config = cli.load_pipeline_config(corpus)
        run_config = cli.PipelineConfig(
            manifests=config.manifests, meter=config.meter,
            out_dir=tmp_path / "out", seed=1)
        assert cli.run_pipeline(run_config) == 1
        marker = (tmp_path / "out/FAILED").read_text()
        assert marker == f"stage: {stage}\n{exc_type.__name__}: boom\n"
        err = capsys.readouterr().err.splitlines()
        assert err == [f"pipeline failed at stage {stage!r}: "
                       f"{exc_type.__name__}: boom"]

    def test_a_split_with_an_empty_half_fails_in_train_stage(self, corpus,
                                                            tmp_path):
        config = cli.load_pipeline_config(corpus)
        out = tmp_path / "out"
        assert cli.run_pipeline(cli.PipelineConfig(
            manifests=config.manifests[:1], meter=config.meter, out_dir=out,
            ratio=0.999, threshold=1)) == 1
        rows = len(read_feature_csv(
            out / f"labeled_{config.manifests[0].name}.csv").rows)
        assert (out / "FAILED").read_text() == (
            f"stage: train\nValidationError: split ratio 0.999 of {rows} rows "
            "leaves the test half empty\n")

    def test_scores_the_models_it_fit_without_reading_them_back(
            self, corpus, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the pipeline read a model file")

        monkeypatch.setattr(classifiers, "load_model", fail)
        config = cli.load_pipeline_config(corpus)
        out = tmp_path / "out"
        assert cli.run_pipeline(cli.PipelineConfig(
            manifests=config.manifests, meter=config.meter, out_dir=out,
            seed=3)) == 0
        assert not (out / "FAILED").exists()
        assert len((out / "metrics.csv").read_text().splitlines()) == 13

    def test_reads_and_splits_each_dataset_once(self, corpus, tmp_path,
                                                 monkeypatch):
        calls = {"read_feature_csv": [], "train_test_split": []}
        for name in calls:
            def spy(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls[_name].append(args[0])
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        config = cli.load_pipeline_config(corpus)
        assert len(config.manifests) == 3
        assert cli.run_pipeline(cli.PipelineConfig(
            manifests=config.manifests, meter=config.meter,
            out_dir=tmp_path / "out", seed=2)) == 0
        assert calls["read_feature_csv"] == [
            tmp_path / "out" / f"labeled_{m.name}.csv" for m in config.manifests]
        assert len(calls["train_test_split"]) == 3

    def test_manifest_default_label_is_the_negative_class(self, corpus, tmp_path):
        # The same corpus with its unmatched flows labeled Benign, not
        # Normal, gives the same rankings, models and metrics.
        benign = tmp_path / "benign"
        shutil.copytree(corpus.parent, benign)
        for manifest in benign.glob("*/*.manifest"):
            text = manifest.read_text(encoding="utf-8")
            assert "default_label = Normal" in text
            manifest.write_text(text.replace("default_label = Normal",
                                             "default_label = Benign"),
                                encoding="utf-8")
        outputs = []
        for root in (corpus.parent, benign):
            config = cli.load_pipeline_config(root / corpus.name)
            out_dir = tmp_path / f"out_{root.name}"
            assert cli.run_pipeline(cli.PipelineConfig(
                manifests=config.manifests, meter=config.meter,
                out_dir=out_dir, seed=5)) == 0
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()
                            if not p.name.startswith("labeled_")})
        assert "Benign" in (tmp_path / "out_benign/labeled_synth-ddos.csv"
                            ).read_text(encoding="utf-8")
        assert outputs[0] == outputs[1]

    def test_lr_settings_do_not_change_results(self, corpus, tmp_path,
                                                monkeypatch, caplog):
        config = cli.load_pipeline_config(corpus)
        fit_lr = classifiers._FITTERS["LR"]

        def run(name):
            out_dir = tmp_path / name
            assert cli.run_pipeline(cli.PipelineConfig(
                manifests=config.manifests, meter=config.meter,
                out_dir=out_dir, seed=5)) == 0
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

        with caplog.at_level("INFO", logger="botmeter.classifiers"):
            base = run("base")
        fits = [r for r in caplog.records if r.name == "botmeter.classifiers"]
        assert len(fits) == 6  # three rankings, three trainings
        assert all("LR converged" in r.message for r in fits)

        monkeypatch.setitem(classifiers._FITTERS, "LR", lambda spec, X, y: fit_lr(
            replace(spec, max_iters=2 * spec.max_iters), X, y))
        assert run("doubled_cap") == base
        monkeypatch.setitem(classifiers._FITTERS, "LR", fit_lr)

        monkeypatch.setattr(classifiers, "LR_GRAD_TOL",
                            classifiers.LR_GRAD_TOL / 100)
        tight = run("tight_tol")
        selection = [n for n in base if n.startswith("ranked_")] + ["universal.csv"]
        assert len(selection) == 4
        for name in selection:
            assert tight[name] == base[name], name

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        config = cli.load_pipeline_config(corpus)
        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            run_config = cli.PipelineConfig(
                manifests=config.manifests, meter=config.meter,
                out_dir=out_dir, seed=5, ratio=0.8, top_k=10, threshold=2)
            assert cli.run_pipeline(run_config) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out_dir.iterdir())})
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name


class TestEngineeredUniversalSix:
    def test_controlled_overlap_yields_six_and_six_wide_models(self, tmp_path):
        # Three datasets whose informative features are controlled so the
        # top-10 lists overlap in exactly six canonical names.
        rng = np.random.default_rng(0)
        all_names = [f"F{i:02d}" for i in range(20)]
        shared = all_names[:6]            # informative everywhere
        per_dataset = [all_names[6 + 4 * i: 10 + 4 * i] for i in range(3)]

        labeled_paths = []
        for d in range(3):
            informative = shared + per_dataset[d]
            n = 400
            X = rng.normal(size=(n, len(all_names)))
            signal = sum(X[:, all_names.index(f)] for f in informative)
            y = (signal > 0).astype(int)
            path = tmp_path / f"ds{d}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([*all_names, "Label"])
                writer.writerows([*map(format_number, row), label]
                                 for row, label in zip(X, y))
            labeled_paths.append(path)

        ranked_lists = []
        for d, path in enumerate(labeled_paths):
            table = read_feature_csv(path)
            ranked = rank_features_lr(table, k=10, dataset=f"ds{d}")
            assert set(ranked.names()) == set(shared + per_dataset[d])
            ranked_lists.append(ranked)

        universal = derive_universal_set(ranked_lists, threshold=2)
        assert sorted(universal.features) == sorted(shared)
        assert len(universal.features) == 6

        from botmeter.classifiers import ModelSpec, fit
        table = read_feature_csv(labeled_paths[0]).select(universal.features)
        model = fit(ModelSpec(kind="LR"), table.rows, table.labels)
        assert len(model.weights) == 6


class TestPipelineConfig:
    @pytest.fixture
    def config_path(self, tmp_path):
        base = tmp_path / "cfg"
        base.mkdir()
        (base / "ds.manifest").write_text(
            "name = ds\ncaptures = gone.pcap\nrules = rules.csv\n")
        path = base / "config.json"
        path.write_text(json.dumps({"datasets": ["ds.manifest"],
                                    "out_dir": "from_config", "threshold": 1}))
        return path

    def test_relative_out_flag_resolves_against_working_directory(
            self, config_path, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        # The capture is missing, so the run fails fast in extract and
        # leaves its marker wherever the output directory went.
        assert run_cli("pipeline", "--config", config_path, "--out", "rel") == 1
        assert (work / "rel/FAILED").exists()
        assert not (config_path.parent / "rel").exists()

    def test_relative_out_dir_in_config_resolves_against_config(
            self, config_path, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        args = cli.build_parser().parse_args(
            ["pipeline", "--config", str(config_path)])
        config = cli.load_pipeline_config(config_path, args)
        assert config.out_dir == config_path.parent / "from_config"

    @pytest.mark.parametrize("text, message", [
        ('{"datasets": ["ds.manifest"]', "not a JSON config: Expecting"),
        ('["ds.manifest"]', "config must be a JSON object"),
        ('{"datasets": "ds.manifest"}',
         "datasets must be a list of manifest paths, got 'ds.manifest'"),
        ('{"datasets": ["ds.manifest", 5]}', "datasets must be a list of manifest paths"),
        ('{"datasets": ["ds.manifest"], "seed": "abc"}',
         "seed must be an integer, got 'abc'"),
        ('{"datasets": ["ds.manifest"], "seed": 1.0}', "seed must be an integer, got 1.0"),
        ('{"datasets": ["ds.manifest"], "top_k": null}', "top_k must be an integer, got None"),
        ('{"datasets": ["ds.manifest"], "threshold": true}',
         "threshold must be an integer, got True"),
        ('{"datasets": ["ds.manifest"], "ratio": "x"}', "ratio must be a finite number, got 'x'"),
        ('{"datasets": ["ds.manifest"], "ratio": NaN}', "ratio must be a finite number, got nan"),
        ('{"datasets": ["ds.manifest"], "flow_timeout_s": "x"}',
         "flow_timeout_s must be a finite number, got 'x'"),
        ('{"datasets": ["ds.manifest"], "flow_timeout_s": Infinity}',
         "flow_timeout_s must be a finite number, got inf"),
        pytest.param('{"datasets": ["ds.manifest"], "activity_timeout_s": 1'
                     + "0" * 400 + "}",
                     "activity_timeout_s must be a finite number, got 1",
                     id="int-beyond-float-range"),
        ('{"datasets": ["ds.manifest"], "flow_timeout_s": 1e307}',
         "flow_timeout_s is too large to count in microseconds"),
        ('{"datasets": ["ds.manifest"], "out_dir": 5}', "out_dir must be a path, got 5"),
        ('{"datasets": []}', "config.json: pipeline config needs at least one dataset"),
        ('{"datasets": ["ds.manifest"], "ratio": 1.5}',
         "config.json: ratio must be in (0, 1), got 1.5"),
        ('{"datasets": ["ds.manifest"], "top_k": 0}',
         "config.json: top_k must be at least 1, got 0"),
        ('{"datasets": ["ds.manifest"], "threshold": 9}',
         "config.json: threshold must be within 1..1 (the number of datasets), got 9"),
        ('{"datasets": ["ds.manifest"], "models": {"KNN": {"k": 0}}}',
         "config.json: models.KNN: k must be >= 1"),
        ('{"datasets": ["ds.manifest"], "flow_timeout_s": 1}',
         "config.json: flow_timeout_s must exceed activity_timeout_s, both > 0 "
         "(got 1.0 s, 5.0 s)"),
        # A misspelled key would otherwise leave its default in force.
        ('{"datasets": ["ds.manifest"], "top-k": 3, "thresold": 1}',
         "config.json: unknown key(s) 'thresold', 'top-k'"),
    ])
    def test_malformed_config_is_a_validation_error(self, config_path, text, message):
        config_path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            cli.load_pipeline_config(config_path)
        assert message in str(info.value)

    @pytest.mark.parametrize("flag, value, message", [
        ("--threshold", 0, "threshold must be within 1..3 (the number of datasets), "
                           "got 0"),
        ("--threshold", 4, "threshold must be within 1..3 (the number of datasets), "
                           "got 4"),
        ("--top-k", 0, "top_k must be at least 1, got 0"),
        ("--timeout-s", 1, "flow_timeout_s must exceed activity_timeout_s, both > 0 "
                           "(got 1.0 s, 5.0 s)"),
    ])
    def test_count_out_of_range_fails_before_any_capture(self, corpus, tmp_path,
                                                         capsys, flag, value, message):
        assert run_cli("pipeline", "--config", corpus, "--out", tmp_path / "out",
                       flag, value) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.rglob("labeled_*.csv")) == []

    @pytest.mark.parametrize("datasets", [["ds.manifest", "ds.manifest"],
                                          ["ds.manifest", "other.manifest"]])
    def test_a_dataset_named_twice_is_refused(self, config_path, datasets):
        # It would count twice towards every feature of the universal set,
        # and its second run would overwrite the first one's files.
        (config_path.parent / "other.manifest").write_text(
            "name = ds\ncaptures = other.pcap\nrules = rules.csv\n")
        config_path.write_text(json.dumps({"datasets": datasets}))
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(config_path))}: "
                                                  r"pipeline config lists dataset "
                                                  r"'ds' twice$"):
            cli.load_pipeline_config(config_path)

    def test_non_utf8_config_is_a_validation_error(self, config_path):
        config_path.write_bytes(b'{"datasets": ["\xff.manifest"]}')
        with pytest.raises(ValidationError, match="not a JSON config: 'utf-8' codec"):
            cli.load_pipeline_config(config_path)

    def test_bad_flag_value_is_a_validation_error(self, config_path):
        args = cli.build_parser().parse_args(
            ["pipeline", "--config", str(config_path), "--timeout-s", "inf"])
        with pytest.raises(ValidationError, match="flow_timeout_s must be a finite"):
            cli.load_pipeline_config(config_path, args)

    def test_a_manifest_name_with_a_slash_fails_at_config_load(
            self, config_path, capsys):
        manifest = config_path.parent / "ds.manifest"
        manifest.write_text("name = ddos/x\ncaptures = a.pcap\nrules = r.csv\n")
        assert run_cli("pipeline", "--config", config_path) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}: dataset name 'ddos/x' cannot be part of a "
            f"file name"]
        assert not (config_path.parent / "from_config").exists()

    def test_flags_and_a_bare_config_take_the_config_classes_defaults(
            self, config_path):
        pipeline = {"seed": 0, "ratio": 0.8, "top_k": 10, "threshold": 2}
        assert {key: getattr(cli.PipelineConfig, key) for key in pipeline} \
            == pipeline
        meter = MeterConfig()
        assert (meter.flow_timeout_us, meter.activity_timeout_us) \
            == (120_000_000, 5_000_000)
        stages = [
            (["extract", "a.pcap", "--out", "f.csv"],
             {"timeout_s": 120.0, "activity_timeout_s": 5.0}),
            (["rank", "l.csv", "--out", "r.csv"], {"top_k": 10}),
            (["universal", "a.csv", "b.csv", "--out", "u.csv"], {"threshold": 2}),
            (["train", "l.csv", "--universal", "u.csv", "--out", "m"],
             {"seed": 0, "ratio": 0.8}),
            (["evaluate", "l.csv", "--universal", "u.csv", "--models", "m"],
             {"seed": 0, "ratio": 0.8}),
        ]
        for argv, want in stages:
            args = vars(cli.build_parser().parse_args(argv))
            got = {key: args[key] for key in want}
            assert got == want and list(map(type, got.values())) \
                == list(map(type, want.values())), argv
        (config_path.parent / "other.manifest").write_text(
            "name = other\ncaptures = a.pcap\nrules = rules.csv\n")
        config_path.write_text(json.dumps(
            {"datasets": ["ds.manifest", "other.manifest"]}))
        for args in (None, cli.build_parser().parse_args(
                ["pipeline", "--config", str(config_path)])):
            config = cli.load_pipeline_config(config_path, args)
            got = {key: getattr(config, key) for key in pipeline}
            assert got == pipeline and list(map(type, got.values())) \
                == list(map(type, pipeline.values()))
            assert config.meter == meter

    VALID = json.dumps({"datasets": ["ds.manifest"], "out_dir": "out", "seed": 3,
                        "ratio": 0.75, "top_k": 4, "threshold": 1,
                        "flow_timeout_s": 60.0, "activity_timeout_s": 2.5,
                        "models": {"RF": {"n_trees": 5}, "KNN": {"k": 3}}})

    @settings(max_examples=200, deadline=None)
    @given(edits=capgen.EDITS)
    def test_mutated_config_loads_or_is_refused(self, tmp_path_factory, edits):
        base = tmp_path_factory.mktemp("config")
        (base / "ds.manifest").write_text(
            "name = ds\ncaptures = a.pcap\nrules = rules.csv\n", encoding="utf-8")
        path = base / "config.json"
        path.write_bytes(capgen.overwrite(self.VALID.encode(), edits))
        try:
            config = cli.load_pipeline_config(path)
        except (CsvFormatError, ValidationError, OSError):
            return  # OSError: a mutated manifest path names no file
        assert config.manifests and 0 < config.ratio < 1
