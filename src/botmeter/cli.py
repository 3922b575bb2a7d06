"""Command-line front end.

Subcommands mirror the pipeline stages (extract, label, rank, universal,
train, evaluate) plus the all-in-one ``pipeline`` driver and ``synth`` for
generating synthetic captures.  Every stage reads the files the previous
stage wrote, so runs can enter anywhere.  The rank, train and evaluate
stages work on in-memory tables: their subcommands read and split a labeled
CSV, while the pipeline reads each dataset's CSV once and shares the table.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import classifiers, demo
from .dataset import (FeatureTable, parse_manifest, read_feature_csv,
                      read_flow_csv, train_test_split, write_flow_csv)
from .errors import BotmeterError, ValidationError
from .evaluation import evaluate_predictions, render_report
from .labeling import label_flows, parse_rules
from .meter import MeterConfig, ingest_capture_detailed
from .selection import RankedFeatureList, derive_universal_set, rank_features_lr
from .synth import FlowBlueprint, PacketBlueprint, write_synthetic_capture

logger = logging.getLogger(__name__)

MODEL_KINDS = classifiers.KINDS


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
        if not 0 < self.ratio < 1:
            raise ValidationError(f"ratio must be in (0, 1), got {self.ratio}")
        build_model_specs(self.seed, self.model_overrides)  # reject bad overrides now


def load_pipeline_config(path, args=None) -> PipelineConfig:
    """JSON config (see README for the schema); CLI flags override.  A file
    that is not a JSON object, or a value of the wrong type, is a
    ValidationError naming the file or the key."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"{path}: not a JSON config: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    base = path.parent

    def pick(flag, key, default, integer=False):
        value = getattr(args, flag, None) if args is not None else None
        if value is None:
            value = doc.get(key, default)
        return _config_number(key, value, integer)

    def timeout_us(flag, key, default):
        us = pick(flag, key, default) * 1e6
        if not math.isfinite(us):
            raise ValidationError(f"{key} is too large to count in microseconds")
        return int(us)

    datasets = doc.get("datasets", [])
    if not (isinstance(datasets, list) and all(isinstance(m, str) for m in datasets)):
        raise ValidationError(
            f"datasets must be a list of manifest paths, got {datasets!r}")
    manifests = tuple(parse_manifest(base / m) for m in datasets)
    meter = MeterConfig(
        flow_timeout_us=timeout_us("timeout_s", "flow_timeout_s", 120.0),
        activity_timeout_us=timeout_us("activity_timeout_s", "activity_timeout_s", 5.0))
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
        seed=pick("seed", "seed", 0, integer=True),
        ratio=pick("ratio", "ratio", 0.8),
        top_k=pick("top_k", "top_k", 10, integer=True),
        threshold=pick("threshold", "threshold", 2, integer=True),
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


# Hyperparameters a config's ``models.<KIND>`` may set.
_MODEL_PARAMS = frozenset(f.name for f in fields(classifiers.ModelSpec)) - {"kind", "seed"}


def build_model_specs(seed: int, overrides: dict | None) -> list[classifiers.ModelSpec]:
    overrides = {} if overrides is None else overrides
    if not (isinstance(overrides, dict)
            and all(isinstance(params, dict) for params in overrides.values())):
        raise ValidationError("models: expected an object of settings per kind")
    for kind, params in overrides.items():
        if kind not in MODEL_KINDS:
            raise ValidationError(f"models: unknown classifier kind {kind!r}")
        unknown = sorted(set(params) - _MODEL_PARAMS)
        if unknown:
            raise ValidationError(
                f"models.{kind}: unknown key(s) {', '.join(map(repr, unknown))}")
    return [classifiers.ModelSpec(kind=kind, seed=seed, **overrides.get(kind, {}))
            for kind in MODEL_KINDS]


# --- pipeline stages ----------------------------------------------------------

def _meter_captures(captures, meter: MeterConfig) -> list:
    """Meter each capture in turn; returns their flows in capture order."""
    flows = []
    for capture in captures:
        metered, stats = ingest_capture_detailed(str(capture), meter)
        logger.info("%s: %d records -> %d flows (%d skipped: %d truncated, "
                    "%d link, %d fragment, %d protocol; %d reordered)",
                    capture, stats.records, stats.flows, stats.skipped,
                    stats.truncated, stats.skipped_link, stats.skipped_fragment,
                    stats.skipped_protocol, stats.reordered)
        flows.extend(metered)
    return flows


def extract_and_label(manifest, meter: MeterConfig, out_path: Path):
    """pcaps + rules -> labeled flow CSV; returns the label report."""
    manifest.validate()
    flows = _meter_captures(manifest.captures, meter)
    rules = parse_rules(str(manifest.rules))
    labels, report = label_flows(flows, rules, manifest.default_label)
    write_flow_csv(out_path, flows, labels)
    return report


def rank_dataset(table: FeatureTable, top_k: int, seed: int,
                 dataset: str) -> RankedFeatureList:
    """Rank a labeled table's raw features; LR standardizes them itself."""
    spec = classifiers.ModelSpec(kind="LR", seed=seed)
    return rank_features_lr(table, k=top_k, spec=spec, dataset=dataset)


def write_ranked_csv(ranked: RankedFeatureList, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "score"])
        for name, score in ranked.ranked:
            writer.writerow([name, f"{score:.9f}"])


def read_ranked_csv(path) -> RankedFeatureList:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["name", "score"]:
            raise BotmeterError(f"{path}: not a ranked-list CSV")
        ranked = tuple((row[0], float(row[1])) for row in reader if row)
    return RankedFeatureList(Path(path).stem, ranked)


def write_universal_csv(universal, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "count"])
        for name, count in universal.counts:
            writer.writerow([name, count])


def read_universal_features(path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:1] != ["name"]:
            raise BotmeterError(f"{path}: not a universal-set CSV")
        return [row[0] for row in reader if row]


def train_models(train: FeatureTable, seed: int, out_dir: Path, dataset: str,
                 overrides: dict | None = None) -> list[Path]:
    """Fit the four classifiers on a train half; returns the model files."""
    paths = []
    for spec in build_model_specs(seed, overrides):
        model = classifiers.fit(spec, train.rows, train.labels)
        if spec.kind == "LR":
            classifiers.log_lr_fit(model, f"training {dataset}")
        path = out_dir / f"model_{dataset}_{spec.kind}.json"
        classifiers.save_model(model, path)
        paths.append(path)
    return paths


def evaluate_models(test: FeatureTable, models_dir: Path, dataset: str):
    """Score the saved models of a dataset on its test half."""
    reports = []
    for kind in MODEL_KINDS:
        model = classifiers.load_model(models_dir / f"model_{dataset}_{kind}.json")
        y_pred = classifiers.predict(model, test.rows)
        reports.append(evaluate_predictions(test.labels, y_pred, dataset, kind))
    return reports


def run_pipeline(config: PipelineConfig) -> int:
    """extract -> label -> rank -> universal -> train -> evaluate.

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
            ranked = rank_dataset(tables[name], config.top_k, config.seed, name)
            write_ranked_csv(ranked, out / f"ranked_{name}.csv")
            ranked_lists.append(ranked)

        stage = "universal"
        universal = derive_universal_set(ranked_lists, threshold=config.threshold)
        if not universal.features:
            raise BotmeterError(
                f"no feature reached selection count {config.threshold}")
        write_universal_csv(universal, out / "universal.csv")

        stage = "train"
        splits = {name: train_test_split(table.select(universal.features),
                                         config.ratio, config.seed)
                  for name, table in tables.items()}
        del tables  # only the universal columns are needed from here on
        for name, (train, _) in splits.items():
            train_models(train, config.seed, out, name, config.model_overrides)

        stage = "evaluate"
        all_reports = []
        for name, (_, test) in splits.items():
            all_reports.extend(evaluate_models(test, out, name))
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

def blueprints_from_json(doc: dict) -> tuple[list[FlowBlueprint], int]:
    flows = []
    for item in doc.get("flows", []):
        packets = tuple(PacketBlueprint(
            direction=p.get("dir", "fwd"),
            payload_len=int(p.get("payload", 0)),
            gap_us=int(p.get("gap_us", 0)),
            flags=p.get("flags", ""),
            window=int(p.get("window", 8192)),
        ) for p in item.get("packets", []))
        flows.append(FlowBlueprint(
            src_ip=item["src_ip"], dst_ip=item["dst_ip"],
            src_port=int(item["src_port"]), dst_port=int(item["dst_port"]),
            protocol=int(item["protocol"]), packets=packets,
            start_us=int(item.get("start_us", 0)),
            label=item.get("label")))
    return flows, int(doc.get("seed", 0))


def _write_rules_for_blueprints(flows, path: Path) -> None:
    lines = ["src_ip,src_port,dst_ip,dst_port,protocol,label"]
    for bp in flows:
        if bp.label:
            lines.append(f"{bp.src_ip},{bp.src_port},{bp.dst_ip},"
                         f"{bp.dst_port},{bp.protocol},{bp.label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    p.add_argument("--timeout-s", type=float, default=120.0)
    p.add_argument("--activity-timeout-s", type=float, default=5.0)

    p = sub.add_parser("label", help="attach ground-truth labels to flows")
    p.add_argument("features", help="feature CSV from extract")
    p.add_argument("--rules", required=True, help="rule CSV")
    p.add_argument("--default-label", default="Normal")
    p.add_argument("--out", required=True, help="labeled CSV")

    p = sub.add_parser("rank", help="rank features by LR weight")
    p.add_argument("labeled", help="labeled CSV")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: the LR fit uses no randomness")
    p.add_argument("--name", default=None, help="dataset name for the list")
    p.add_argument("--out", required=True, help="ranked CSV")

    p = sub.add_parser("universal", help="derive the cross-dataset feature set")
    p.add_argument("ranked", nargs="+", help="ranked CSVs (>= 2)")
    p.add_argument("--threshold", type=int, default=2)
    p.add_argument("--out", required=True, help="universal-set CSV")

    p = sub.add_parser("train", help="train the four classifiers")
    p.add_argument("labeled", help="labeled CSV")
    p.add_argument("--universal", required=True, help="universal-set CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--name", default=None, help="dataset name for model files")
    p.add_argument("--out", required=True, help="directory for model files")

    p = sub.add_parser("evaluate", help="evaluate trained models on the holdout")
    p.add_argument("labeled", help="labeled CSV")
    p.add_argument("--universal", required=True)
    p.add_argument("--models", required=True, help="directory with model files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", type=float, default=0.8)
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


def _split_labeled(args) -> tuple[FeatureTable, FeatureTable]:
    """The train and test halves of a stage command's labeled CSV, on the
    universal-set columns."""
    table = read_feature_csv(args.labeled).select(
        read_universal_features(args.universal))
    return train_test_split(table, args.ratio, args.seed)


def _dispatch(args) -> int:
    if args.command == "extract":
        meter = MeterConfig(
            flow_timeout_us=int(args.timeout_s * 1e6),
            activity_timeout_us=int(args.activity_timeout_s * 1e6))
        flows = _meter_captures(args.captures, meter)
        write_flow_csv(args.out, flows)
        print(f"wrote {len(flows)} flows to {args.out}")
        return 0

    if args.command == "label":
        flows, _ = read_flow_csv(args.features)
        rules = parse_rules(args.rules)
        labels, report = label_flows(flows, rules, args.default_label)
        write_flow_csv(args.out, flows, labels)
        counts = ", ".join(f"{k}={v}" for k, v in sorted(report.counts.items()))
        print(f"labeled {report.total} flows ({counts}; "
              f"{report.unmatched} unmatched)")
        return 0

    if args.command == "rank":
        name = args.name or Path(args.labeled).stem
        ranked = rank_dataset(read_feature_csv(args.labeled), args.top_k,
                              args.seed, name)
        write_ranked_csv(ranked, Path(args.out))
        for feat, score in ranked.ranked:
            print(f"{score:12.6f}  {feat}")
        return 0

    if args.command == "universal":
        lists = [read_ranked_csv(p) for p in args.ranked]
        universal = derive_universal_set(lists, threshold=args.threshold)
        write_universal_csv(universal, Path(args.out))
        for feat, count in universal.counts:
            print(f"{count}  {feat}")
        return 0

    if args.command == "train":
        name = args.name or Path(args.labeled).stem
        train, _ = _split_labeled(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = train_models(train, args.seed, out_dir, name)
        print("\n".join(str(p) for p in paths))
        return 0

    if args.command == "evaluate":
        name = args.name or Path(args.labeled).stem
        _, test = _split_labeled(args)
        reports = evaluate_models(test, Path(args.models), name)
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
        doc = json.loads(Path(args.blueprint).read_text(encoding="utf-8"))
        flows, doc_seed = blueprints_from_json(doc)
        seed = args.seed if args.seed is not None else doc_seed
        out = Path(args.out)
        write_synthetic_capture(flows, seed, out)
        if any(bp.label for bp in flows):
            _write_rules_for_blueprints(flows, out.with_suffix(".rules.csv"))
        print(f"wrote {out}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
