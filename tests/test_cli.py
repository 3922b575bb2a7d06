import json
import shutil
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from botmeter import classifiers, cli
from botmeter.dataset import (FeatureTable, read_feature_csv, write_feature_csv,
                              write_flow_csv)
from botmeter.demo import make_demo_corpus
from botmeter.errors import CsvFormatError, ValidationError
from botmeter.features import FEATURE_NAMES
from botmeter.meter import MeterConfig
from botmeter.selection import derive_universal_set, rank_features_lr
from botmeter.synth import FlowBlueprint, PacketBlueprint, generate_synthetic_capture

import capgen
import oracle


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

    def test_unexpected_exception_is_one_error_line(self, tmp_path, capsys,
                                                    caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "train_models", fail)
        universal = tmp_path / "universal.csv"
        universal.write_text("name,count\nFlow IAT Mean,2\n", encoding="utf-8")
        (tmp_path / "labeled.csv").write_text(
            "Flow IAT Mean,Label\n1,Normal\n2,Botnet\n", encoding="utf-8")
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
        from test_labeling import flow

        rows = [flow(sport=sport, values=(0.0,) * len(FEATURE_NAMES))
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
        from test_labeling import flow

        features = tmp_path / "features.csv"
        write_flow_csv(features, [flow(values=(0.0,) * len(FEATURE_NAMES))])
        features.write_bytes(features.read_bytes().replace(b"8.8.8.8-", b"\xff-"))
        rules = tmp_path / "rules.csv"
        rules.write_text("src_ip,src_port,dst_ip,dst_port,protocol,label\n"
                         "10.0.0.5,*,*,*,*,Botnet\n", encoding="utf-8")
        labeled = tmp_path / "labeled.csv"
        assert run_cli("label", features, "--rules", rules, "--out", labeled) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {features}: not UTF-8 text at line 2 (invalid start byte)"]
        assert not labeled.exists()

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
        rules = out.with_suffix(".rules.csv")
        assert rules.exists() and "Botnet" in rules.read_text()

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
                           "--seed", 4, "--name", name,
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
            f"model_{n}_{k}.json" for n in names for k in cli.MODEL_KINDS]
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
    ({"SVM": {}}, "models: unknown classifier kind 'SVM'"),
    ({"KNN": 5}, "models: expected an object of settings per kind"),
    ([{"k": 5}], "models: expected an object of settings per kind"),
    ({"LR": {"max_iters": 0}}, "max_iters must be >= 1"),
    ({"KNN": {"k": "5"}}, "k must be an integer, got '5'"),
    ({"KNN": {"k": 5.0}}, "k must be an integer, got 5.0"),
    ({"RF": {"n_trees": True}}, "n_trees must be an integer, got True"),
    ({"RF": {"max_features": 2.5}}, "max_features must be an integer, got 2.5"),
    ({"RF": {"min_samples_split": "2"}}, "min_samples_split must be an integer, got '2'"),
    ({"RF": {"bootstrap": 1}}, "bootstrap must be true or false, got 1"),
    ({"LR": {"max_iters": 50.0}}, "max_iters must be an integer, got 50.0"),
    ({"LR": {"l2_lambda": "1"}}, "l2_lambda must be a real number, got '1'"),
    ({"NB": {"var_smoothing": None}}, "var_smoothing must be a real number, got None"),
])
def test_build_model_specs_rejects_bad_overrides(overrides, message):
    with pytest.raises(ValidationError) as info:
        cli.build_model_specs(0, overrides)
    assert str(info.value) == message


def test_bad_model_override_fails_at_config_load(tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps(
        {"datasets": ["gone.manifest"], "models": {"LR": {"tol": 1e-3}}}))
    (tmp_path / "gone.manifest").write_text(
        "name = ds\ncaptures = gone.pcap\nrules = rules.csv\n")
    assert run_cli("pipeline", "--config", tmp_path / "config.json") == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: models.LR: unknown key(s) 'tol'"]
    assert not (tmp_path / "pipeline_out").exists()


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
        flows = cli._meter_captures([capture], MeterConfig())
    assert len(flows) == 1
    assert caplog.messages == [
        f"{capture}: 5 records -> 1 flows (3 skipped: 1 truncated, 1 link, "
        "1 fragment, 0 protocol; 0 reordered)"]


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
            {"datasets": ["ds.manifest"], "out_dir": "out"}))
        assert run_cli("pipeline", "--config", base / "config.json") == 1
        err = capsys.readouterr().err
        assert "extract" in err
        marker = (base / "out/FAILED").read_text()
        assert "extract" in marker

    @pytest.mark.parametrize("target, exc_type, stage", [
        ("rank_dataset", ValueError, "rank"),
        # What an RF too deep for the recursive grower used to raise.
        ("train_models", RecursionError, "train"),
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
            # Boost informative columns so they dominate the LR weights.
            table = FeatureTable(all_names, X, labels=y)
            path = tmp_path / f"ds{d}.csv"
            write_feature_csv(table, path)
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
                                    "out_dir": "from_config"}))
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
        ('{"datasets": []}', "pipeline config needs at least one dataset"),
        ('{"datasets": ["ds.manifest"], "ratio": 1.5}', "ratio must be in (0, 1), got 1.5"),
    ])
    def test_malformed_config_is_a_validation_error(self, config_path, text, message):
        config_path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            cli.load_pipeline_config(config_path)
        assert message in str(info.value)

    def test_non_utf8_config_is_a_validation_error(self, config_path):
        config_path.write_bytes(b'{"datasets": ["\xff.manifest"]}')
        with pytest.raises(ValidationError, match="not a JSON config: 'utf-8' codec"):
            cli.load_pipeline_config(config_path)

    def test_bad_flag_value_is_a_validation_error(self, config_path):
        args = cli.build_parser().parse_args(
            ["pipeline", "--config", str(config_path), "--timeout-s", "inf"])
        with pytest.raises(ValidationError, match="flow_timeout_s must be a finite"):
            cli.load_pipeline_config(config_path, args)

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
