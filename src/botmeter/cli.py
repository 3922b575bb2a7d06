"""Command-line front end.

Subcommands mirror the pipeline stages (extract, label, rank, universal,
train, evaluate) plus the all-in-one ``pipeline`` driver and ``synth`` for
generating synthetic captures.  Every stage reads the files the previous
stage wrote, so runs can enter anywhere.  The rank, train and evaluate
stages work on in-memory tables: their subcommands read and split a labeled
CSV, while the pipeline reads each dataset's CSV once and shares the table.
The evaluate subcommand scores the model files that train wrote; the
pipeline scores the models it has just fit.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import classifiers, demo
from .dataset import (FeatureTable, csv_rows, dataset_name, number_cells,
                      parse_manifest, read_feature_csv, read_flow_csv,
                      refuse_repeated_names, train_test_split, write_flow_csv)
from .errors import BotmeterError, CsvFormatError, ValidationError
from .evaluation import evaluate_predictions, render_report
from .labeling import (LabelReport, LabelRule, RuleIndex, label_flows,
                       log_label_warnings, parse_rules, write_rules)
from .meter import MeterConfig, ingest_capture_detailed
from .selection import RankedFeatureList, derive_universal_set, rank_features_lr
from .synth import FlowBlueprint, PacketBlueprint, write_synthetic_capture

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    manifests: tuple
    meter: MeterConfig
    out_dir: Path
    seed: int = 0
    ratio: float = 0.8
    top_k: int = 10
    threshold: int = 2
    model_overrides: dict | None = None

    def __post_init__(self):
        if not self.manifests:
            raise ValidationError("pipeline config needs at least one dataset")
        names = [manifest.name for manifest in self.manifests]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValidationError(f"pipeline config lists dataset {name!r} twice")
        if not 0 < self.ratio < 1:
            raise ValidationError(f"ratio must be in (0, 1), got {self.ratio}")
        build_model_specs(self.seed, self.model_overrides)  # reject bad overrides now
        if self.top_k < 1:
            raise ValidationError(f"top_k must be at least 1, got {self.top_k}")
        if not 1 <= self.threshold <= len(self.manifests):
            raise ValidationError(
                f"threshold must be within 1..{len(self.manifests)} (the number "
                f"of datasets), got {self.threshold}")


# MeterConfig's timeouts in seconds, the unit of the config and the flags.
_FLOW_TIMEOUT_S = MeterConfig.flow_timeout_us / 1e6
_ACTIVITY_TIMEOUT_S = MeterConfig.activity_timeout_us / 1e6

_CONFIG_KEYS = {"datasets", "out_dir", "seed", "ratio", "top_k", "threshold",
                "flow_timeout_s", "activity_timeout_s", "models"}


def load_pipeline_config(path, args=None) -> PipelineConfig:
    """JSON config (see README for the schema); CLI flags override.  A file
    that is not a JSON object, a key outside the schema, or a value of the
    wrong type, is a ValidationError naming the file or the key."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"{path}: not a JSON config: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ValidationError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")
    base = path.parent

    def pick(key, default, flag=None):
        """The flag ``flag`` (by default ``key``), else the config's ``key``,
        else ``default``; an integer default asks for an integer."""
        value = getattr(args, flag or key, None)
        if value is None:
            value = doc.get(key, default)
        return _config_number(key, value, isinstance(default, int))

    datasets = doc.get("datasets", [])
    if not (isinstance(datasets, list) and all(isinstance(m, str) for m in datasets)):
        raise ValidationError(
            f"datasets must be a list of manifest paths, got {datasets!r}")
    manifests = tuple(parse_manifest(base / m) for m in datasets)
    meter = MeterConfig(
        flow_timeout_us=_timeout_us(
            "flow_timeout_s", pick("flow_timeout_s", _FLOW_TIMEOUT_S, "timeout_s")),
        activity_timeout_us=_timeout_us(
            "activity_timeout_s", pick("activity_timeout_s", _ACTIVITY_TIMEOUT_S)))
    # A relative --out is taken from the working directory, a relative
    # out_dir in the config from the config's directory.
    if getattr(args, "out", None) is not None:
        out_dir = Path(args.out)
    else:
        out_dir = doc.get("out_dir", "pipeline_out")
        if not isinstance(out_dir, str):
            raise ValidationError(f"out_dir must be a path, got {out_dir!r}")
        out_dir = base / out_dir
    return PipelineConfig(
        manifests=manifests,
        meter=meter,
        out_dir=out_dir,
        seed=pick("seed", PipelineConfig.seed),
        ratio=pick("ratio", PipelineConfig.ratio),
        top_k=pick("top_k", PipelineConfig.top_k),
        threshold=pick("threshold", PipelineConfig.threshold),
        model_overrides=doc.get("models"),
    )


def _config_number(key: str, value, integer: bool):
    """A config value as an int (``integer``) or a finite float; anything
    else, booleans included, is a ValidationError naming the key."""
    if not isinstance(value, bool):
        if integer and isinstance(value, int):
            return value
        # The bound also rejects nan, inf and ints beyond the float range.
        if (not integer and isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max):
            return float(value)
    what = "an integer" if integer else "a finite number"
    raise ValidationError(f"{key} must be {what}, got {value!r}")


def _timeout_us(key: str, seconds) -> int:
    """A timeout in seconds, from a config or the command line, in whole
    microseconds.  A value that is not a finite number, or is too large to
    count in microseconds, is a ValidationError naming the config key."""
    us = _config_number(key, seconds, False) * 1e6
    if not math.isfinite(us):
        raise ValidationError(f"{key} is too large to count in microseconds")
    return int(us)


# Hyperparameters a config's ``models.<KIND>`` may set, by kind.
_MODEL_PARAMS = {
    "NB": {"var_smoothing"},
    "KNN": {"k"},
    "RF": {"n_trees", "max_features", "min_samples_split", "bootstrap"},
    "LR": {"l2_lambda", "max_iters"},
}


def build_model_specs(seed: int, overrides: dict | None) -> list[classifiers.ModelSpec]:
    overrides = {} if overrides is None else overrides
    if not (isinstance(overrides, dict)
            and all(isinstance(params, dict) for params in overrides.values())):
        raise ValidationError("models: expected an object of settings per kind")
    for kind, params in overrides.items():
        if kind not in classifiers.KINDS:
            raise ValidationError(f"models: unknown classifier kind {kind!r}")
        unknown = sorted(set(params) - _MODEL_PARAMS[kind])
        if unknown:
            raise ValidationError(
                f"models.{kind}: unknown key(s) {', '.join(map(repr, unknown))}")
    return [classifiers.ModelSpec(kind=kind, seed=seed, **overrides.get(kind, {}))
            for kind in classifiers.KINDS]


# --- pipeline stages ----------------------------------------------------------

# Flow CSVs are written in batches of at most this many flows, so memory
# holds one batch (and, when extracting, the live flows), not every flow.
# A finished flow's vector is about 1.3 KB, so a batch holds about 0.3 MB;
# label_flows and write_flow_csv run once per batch.
FLOW_BATCH = 256


def _write_flows(out_path, feed, rules=None, default_label: str = "Normal"):
    """Write each flow that ``feed(emit)`` passes to ``emit`` to the flow CSV
    ``out_path``, labeled by ``rules`` when given; returns the row count and
    the label report.  Flows are labeled and written in batches of at most
    FLOW_BATCH, in the order fed, to a temporary file beside ``out_path``
    that replaces it once ``feed`` returns: a failed write leaves no file,
    or the old one as it was, even when ``feed`` reads ``out_path``."""
    out_path = Path(out_path)
    tmp = out_path.with_name(f".{out_path.name}.partial")
    index = None if rules is None else RuleIndex(rules)
    report = LabelReport(rule_matches=[0] * len(rules or ()))
    batch = []
    written = 0

    def write_batch():
        nonlocal batch, written
        labels = None
        if index is not None:
            labels, part = label_flows(batch, index, default_label)
            report.merge(part)
        write_flow_csv(tmp, batch, labels, append=True)
        written += len(batch)
        batch = []

    def emit(flow):
        batch.append(flow)
        if len(batch) >= FLOW_BATCH:
            write_batch()

    try:
        write_flow_csv(tmp, [], None if index is None else [])  # the header
        feed(emit)
        if batch:
            write_batch()
        os.replace(tmp, out_path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if index is not None:
        log_label_warnings(report, rules, default_label)
    return written, report


def _meter(captures, meter: MeterConfig, emit) -> None:
    """Meter each capture in turn, handing each finished flow to ``emit``."""
    for capture in captures:
        _, stats = ingest_capture_detailed(str(capture), meter, emit)
        logger.info("%s: %d records -> %d flows (%d skipped: %d truncated, "
                    "%d link, %d fragment, %d protocol; %d reordered)",
                    capture, stats.records, stats.flows, stats.skipped,
                    stats.truncated, stats.skipped_link, stats.skipped_fragment,
                    stats.skipped_protocol, stats.reordered)


def extract_and_label(manifest, meter: MeterConfig, out_path: Path):
    """pcaps + rules -> labeled flow CSV; returns the label report."""
    manifest.validate()
    return _write_flows(out_path, partial(_meter, manifest.captures, meter),
                        parse_rules(str(manifest.rules)), manifest.default_label)[1]


def rank_dataset(table: FeatureTable, top_k: int, dataset: str) -> RankedFeatureList:
    """Rank a labeled table's raw features; LR standardizes them itself."""
    return rank_features_lr(table, k=top_k, dataset=dataset)


def write_ranked_csv(ranked: RankedFeatureList, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "score"])
        for name, score in ranked.ranked:
            writer.writerow([name, f"{score:.9f}"])


def read_ranked_csv(path) -> RankedFeatureList:
    """A ranked list written by ``write_ranked_csv``.  A file of another
    header, a ragged row, a score that ``dataset.number_cells`` refuses or
    text that is not UTF-8 is a CsvFormatError naming the file (and the
    line)."""
    with closing(csv_rows(path)) as records:
        if next(records)[:2] != ["name", "score"]:
            raise CsvFormatError(f"{path}: not a ranked-list CSV")
        ranked = [(row[0], number_cells(path, row, (1,), (("score", float),),
                                        line_no)[0])
                  for line_no, row in records]
    return RankedFeatureList(Path(path).stem, tuple(ranked))


def universal_set(ranked_lists, threshold: int):
    """``derive_universal_set``, refusing a set that names no feature."""
    universal = derive_universal_set(ranked_lists, threshold=threshold)
    if not universal.features:
        raise BotmeterError(f"no feature reached selection count {threshold}")
    return universal


def write_universal_csv(universal, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "count"])
        for name, count in universal.counts:
            writer.writerow([name, count])


def read_universal_features(path) -> list[str]:
    """The feature names of a universal-set CSV; format errors as in
    ``read_ranked_csv``.  A file that names no feature, or one feature
    twice, is a CsvFormatError naming the file too."""
    with closing(csv_rows(path)) as records:
        if next(records)[:1] != ["name"]:
            raise CsvFormatError(f"{path}: not a universal-set CSV")
        names = [row[0] for _, row in records]
    if not names:
        raise CsvFormatError(f"{path}: names no feature")
    refuse_repeated_names(path, names)
    return names


def model_path(models_dir: Path, dataset: str, kind: str) -> Path:
    return models_dir / f"model_{dataset}_{kind}.json"


def train_models(train: FeatureTable, seed: int, out_dir: Path, dataset: str,
                 overrides: dict | None = None) -> dict:
    """Fit the four classifiers on a train half and save each to its model
    file; returns the models by kind."""
    models = {}
    for spec in build_model_specs(seed, overrides):
        model = classifiers.fit(spec, train.rows, train.labels)
        if spec.kind == "LR":
            classifiers.log_lr_fit(model, f"training {dataset}")
        classifiers.save_model(model, model_path(out_dir, dataset, spec.kind))
        models[spec.kind] = model
    return models


def evaluate_models(test: FeatureTable, models: dict, dataset: str):
    """Score a dataset's models (by kind) on its test half."""
    return [evaluate_predictions(test.labels,
                                 classifiers.predict(models[kind], test.rows),
                                 dataset, kind)
            for kind in classifiers.KINDS]


def run_pipeline(config: PipelineConfig) -> int:
    """extract -> label -> rank -> universal -> train -> evaluate, the last
    two one dataset at a time.

    Artifacts land in config.out_dir; a FAILED marker naming the stage is
    written (and partial artifacts kept) if any stage errors out.
    """
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "FAILED"
    if marker.exists():
        marker.unlink()
    stage = "setup"
    try:
        stage = "extract"
        for manifest in config.manifests:
            report = extract_and_label(manifest, config.meter,
                                       out / f"labeled_{manifest.name}.csv")
            logger.info("dataset %s: %s flows labeled %s", manifest.name,
                        report.total, dict(report.counts))

        stage = "rank"
        tables = {}
        ranked_lists = []
        for manifest in config.manifests:
            name = manifest.name
            tables[name] = read_feature_csv(
                out / f"labeled_{name}.csv", negative_label=manifest.default_label)
            ranked = rank_dataset(tables[name], config.top_k, name)
            write_ranked_csv(ranked, out / f"ranked_{name}.csv")
            ranked_lists.append(ranked)

        stage = "universal"
        universal = universal_set(ranked_lists, config.threshold)
        write_universal_csv(universal, out / "universal.csv")

        stage = "train"
        splits = {name: train_test_split(table.select(universal.features),
                                         config.ratio, config.seed)
                  for name, table in tables.items()}
        del tables  # only the universal columns are needed from here on
        all_reports = []
        # Each dataset's models are scored as fitted, not read back from
        # their files, and dropped before the next dataset's are fitted.
        for name, (train, test) in splits.items():
            stage = "train"
            models = train_models(train, config.seed, out, name,
                                  config.model_overrides)
            stage = "evaluate"
            all_reports.extend(evaluate_models(test, models, name))
            del models
        (out / "metrics.csv").write_text(render_report(all_reports, "csv"),
                                         encoding="utf-8")
        report_text = _run_report(ranked_lists, universal, all_reports)
        (out / "report.txt").write_text(report_text, encoding="utf-8")
        print(report_text, end="")
        return 0
    except Exception as exc:
        # Any failure, expected or not, ends in the marker and exit code 1;
        # the traceback is logged at debug level (-v).
        what = f"{type(exc).__name__}: {exc}"
        marker.write_text(f"stage: {stage}\n{what}\n", encoding="utf-8")
        logger.error("pipeline failed at stage %r: %s", stage, what)
        logger.debug("traceback of the failure", exc_info=True)
        print(f"pipeline failed at stage {stage!r}: {what}", file=sys.stderr)
        return 1


def _run_report(ranked_lists, universal, reports) -> str:
    lines = []
    for ranked in ranked_lists:
        lines.append(f"top {len(ranked.ranked)} features [{ranked.dataset}]")
        for name, score in ranked.ranked:
            lines.append(f"  {score:12.6f}  {name}")
        lines.append("")
    lines.append(f"universal feature set (selected by >= {universal.threshold} datasets)")
    for name, count in universal.counts:
        lines.append(f"  {count}  {name}")
    lines.append("")
    lines.append(render_report(reports, "text"))
    return "\n".join(lines)


# --- synth helpers -------------------------------------------------------------

def blueprints_from_json(path) -> tuple[list[FlowBlueprint], int]:
    """The flows and seed of a blueprint JSON file (see README).  A file
    that is not a UTF-8 JSON object, a missing key, and a value of the
    wrong type or range are ValidationErrors naming the file and, within a
    flow, its index and the key."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"{path}: not a JSON blueprint: {exc}") from None
    flows, where = [], path
    try:
        if not isinstance(doc, dict):
            raise ValidationError("blueprint must be a JSON object")
        seed = _config_number("seed", doc.get("seed", 0), True)
        for i, item in enumerate(_json_objects(doc, "flows")):
            where = f"{path}: flows[{i}]"
            packets = tuple(PacketBlueprint(
                direction=p.get("dir", "fwd"), payload_len=p.get("payload", 0),
                gap_us=p.get("gap_us", 0), flags=p.get("flags", ""),
                window=p.get("window", 8192)) for p in _json_objects(item, "packets"))
            flows.append(FlowBlueprint(
                item["src_ip"], item["dst_ip"], item["src_port"], item["dst_port"],
                item["protocol"], packets, item.get("start_us", 0), item.get("label")))
    except KeyError as exc:
        raise ValidationError(f"{where}: missing key {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    return flows, seed


def _json_objects(obj: dict, key: str) -> list[dict]:
    """``obj[key]``, a list of JSON objects; [] when the key is absent."""
    items = obj.get(key, [])
    if not (isinstance(items, list) and all(isinstance(x, dict) for x in items)):
        raise ValidationError(f"key {key!r} must be a list of objects")
    return items


# --- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botmeter",
        description="Flow metering, labeling, feature selection and "
                    "botnet-detection models for packet captures.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="meter pcaps into a feature CSV")
    p.add_argument("captures", nargs="+", help="classic pcap files")
    p.add_argument("--out", required=True, help="output feature CSV")
    p.add_argument("--timeout-s", type=float, default=_FLOW_TIMEOUT_S)
    p.add_argument("--activity-timeout-s", type=float, default=_ACTIVITY_TIMEOUT_S)

    p = sub.add_parser("label", help="attach ground-truth labels to flows")
    p.add_argument("features", help="feature CSV from extract")
    p.add_argument("--rules", required=True, help="rule CSV")
    p.add_argument("--default-label", default="Normal")
    p.add_argument("--out", required=True, help="labeled CSV")

    p = sub.add_parser("rank", help="rank features by LR weight")
    p.add_argument("labeled", help="labeled CSV")
    p.add_argument("--top-k", type=int, default=PipelineConfig.top_k)
    p.add_argument("--name", default=None, help="dataset name for the list")
    p.add_argument("--out", required=True, help="ranked CSV")

    p = sub.add_parser("universal", help="derive the cross-dataset feature set")
    p.add_argument("ranked", nargs="+", help="ranked CSVs (>= 2)")
    p.add_argument("--threshold", type=int, default=PipelineConfig.threshold)
    p.add_argument("--out", required=True, help="universal-set CSV")

    p = sub.add_parser("train", help="train the four classifiers")
    p.add_argument("labeled", help="labeled CSV")
    p.add_argument("--universal", required=True, help="universal-set CSV")
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--ratio", type=float, default=PipelineConfig.ratio)
    p.add_argument("--name", default=None, help="dataset name for model files")
    p.add_argument("--out", required=True, help="directory for model files")

    p = sub.add_parser("evaluate", help="evaluate trained models on the holdout")
    p.add_argument("labeled", help="labeled CSV")
    p.add_argument("--universal", required=True)
    p.add_argument("--models", required=True, help="directory with model files")
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--ratio", type=float, default=PipelineConfig.ratio)
    p.add_argument("--name", default=None)
    p.add_argument("--out", default=None, help="optional metrics CSV path")

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument("--activity-timeout-s", type=float, default=None)

    p = sub.add_parser("synth", help="generate synthetic captures")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--blueprint", help="blueprint JSON file")
    group.add_argument("--demo", action="store_true",
                       help="emit the 3-dataset demo corpus")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True,
                   help="output pcap (blueprint) or directory (demo)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _dispatch(args)
    except BotmeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # An unexpected failure also ends in one line and exit code 1; the
        # traceback is logged at debug level (-v).
        logger.debug("traceback of the failure", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _stage_name(args) -> str:
    """A stage command's dataset name: ``--name``, which ``dataset_name``
    checks, else the labeled CSV's stem."""
    if args.name is None:
        return Path(args.labeled).stem
    return dataset_name("--name", args.name)


def _split_labeled(args) -> tuple[FeatureTable, FeatureTable]:
    """The train and test halves of a stage command's labeled CSV, on the
    universal-set columns."""
    table = read_feature_csv(args.labeled).select(
        read_universal_features(args.universal))
    return train_test_split(table, args.ratio, args.seed)


def _dispatch(args) -> int:
    if args.command == "extract":
        meter = MeterConfig(
            flow_timeout_us=_timeout_us("flow_timeout_s", args.timeout_s),
            activity_timeout_us=_timeout_us("activity_timeout_s",
                                            args.activity_timeout_s))
        total, _ = _write_flows(args.out, partial(_meter, args.captures, meter))
        print(f"wrote {total} flows to {args.out}")
        return 0

    if args.command == "label":
        def feed(emit):
            for flow, _ in read_flow_csv(args.features):
                emit(flow)

        _, report = _write_flows(args.out, feed, parse_rules(args.rules),
                                 args.default_label)
        counts = ", ".join(f"{k}={v}" for k, v in sorted(report.counts.items()))
        print(f"labeled {report.total} flows ({counts}; "
              f"{report.unmatched} unmatched)")
        return 0

    if args.command == "rank":
        name = _stage_name(args)
        ranked = rank_dataset(read_feature_csv(args.labeled), args.top_k, name)
        write_ranked_csv(ranked, Path(args.out))
        for feat, score in ranked.ranked:
            print(f"{score:12.6f}  {feat}")
        return 0

    if args.command == "universal":
        lists = [read_ranked_csv(p) for p in args.ranked]
        universal = universal_set(lists, args.threshold)
        write_universal_csv(universal, Path(args.out))
        for feat, count in universal.counts:
            print(f"{count}  {feat}")
        return 0

    if args.command == "train":
        name = _stage_name(args)
        train, _ = _split_labeled(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for kind in train_models(train, args.seed, out_dir, name):
            print(model_path(out_dir, name, kind))
        return 0

    if args.command == "evaluate":
        name = _stage_name(args)
        _, test = _split_labeled(args)
        models_dir = Path(args.models)
        models = {kind: classifiers.load_model(model_path(models_dir, name, kind))
                  for kind in classifiers.KINDS}
        reports = evaluate_models(test, models, name)
        print(render_report(reports, "text"), end="")
        if args.out:
            Path(args.out).write_text(render_report(reports, "csv"),
                                      encoding="utf-8")
        return 0

    if args.command == "pipeline":
        config = load_pipeline_config(args.config, args)
        return run_pipeline(config)

    if args.command == "synth":
        if args.demo:
            config_path = demo.make_demo_corpus(args.out, seed=args.seed or 0)
            print(f"demo corpus ready; run: botmeter pipeline --config {config_path}")
            return 0
        flows, doc_seed = blueprints_from_json(args.blueprint)
        seed = args.seed if args.seed is not None else doc_seed
        out = Path(args.out)
        write_synthetic_capture(flows, seed, out)
        rules = [LabelRule(bp.src_ip, bp.src_port, bp.dst_ip, bp.dst_port,
                           bp.protocol, bp.label) for bp in flows if bp.label]
        if rules:
            write_rules(out.with_suffix(".rules.csv"), rules)
        print(f"wrote {out}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
