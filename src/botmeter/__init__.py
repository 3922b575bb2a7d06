"""Flow metering, ground-truth labeling, universal feature selection and
botnet-detection classifiers for packet captures."""

from .classifiers import ModelSpec, fit, load_model, predict, save_model
from .dataset import (FeatureTable, normalize_feature_name, read_feature_csv,
                      read_flow_csv, train_test_split, write_flow_csv)
from .errors import BotmeterError, CsvFormatError, PcapFormatError, ValidationError
from .evaluation import (ConfusionMatrix, MetricsReport, compute_metrics,
                         confusion, render_report)
from .features import FEATURE_COLUMNS, FEATURE_NAMES, FeatureVector, compute_features
from .labeling import LabelRule, label_flows, parse_rules
from .meter import FlowTable, MeterConfig, ingest_capture_detailed
from .selection import (RankedFeatureList, UniversalFeatureSet,
                        derive_universal_set, rank_features_lr)
from .synth import FlowBlueprint, PacketBlueprint, generate_synthetic_capture

__version__ = "0.1.0"

__all__ = [
    "BotmeterError", "ConfusionMatrix", "CsvFormatError", "FEATURE_COLUMNS",
    "FEATURE_NAMES", "FeatureTable", "FeatureVector", "FlowBlueprint",
    "FlowTable", "LabelRule", "MeterConfig", "MetricsReport",
    "ModelSpec", "PacketBlueprint", "PcapFormatError", "RankedFeatureList",
    "UniversalFeatureSet", "ValidationError", "compute_features",
    "compute_metrics", "confusion", "derive_universal_set", "fit",
    "generate_synthetic_capture", "ingest_capture_detailed", "label_flows",
    "load_model", "normalize_feature_name", "parse_rules", "predict",
    "rank_features_lr", "read_feature_csv", "read_flow_csv", "render_report",
    "save_model", "train_test_split", "write_flow_csv",
]
