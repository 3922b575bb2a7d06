"""Confusion accounting and the four detection metrics.

Metrics are reported on the 0..100 percentage scale.  Degenerate
denominators (no predicted positives / no actual positives) yield 0 with an
explicit flag instead of NaN so reports stay total and machine-readable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValidationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy/precision/recall/F1 percentages for one (dataset, classifier)."""

    dataset: str
    classifier: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: tuple[str, ...] = ()

    def as_row(self) -> list[str]:
        return [self.dataset, self.classifier] + \
            [f"{v:.2f}" for v in (self.accuracy, self.precision, self.recall, self.f1)]


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or len(y_true) == 0:
        raise ValidationError("y_true and y_pred must be equal-length, non-empty")
    for name, v in (("y_true", y_true), ("y_pred", y_pred)):
        if not np.isin(v, (0, 1)).all():
            raise ValidationError(f"{name} must be binary 0/1")
    return ConfusionMatrix(
        tp=int(((y_true == 1) & (y_pred == 1)).sum()),
        tn=int(((y_true == 0) & (y_pred == 0)).sum()),
        fp=int(((y_true == 0) & (y_pred == 1)).sum()),
        fn=int(((y_true == 1) & (y_pred == 0)).sum()),
    )


def compute_metrics(cm: ConfusionMatrix, dataset: str = "",
                    classifier: str = "") -> MetricsReport:
    if cm.total == 0:
        raise ValidationError("cannot compute metrics over zero samples")
    degenerate = []
    accuracy = (cm.tp + cm.tn) / cm.total * 100.0
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp) * 100.0
    else:
        precision = 0.0
        degenerate.append("precision")
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn) * 100.0
    else:
        recall = 0.0
        degenerate.append("recall")
    if precision + recall > 0:
        f1 = 2.0 * recall * precision / (recall + precision)
    else:
        f1 = 0.0
    return MetricsReport(dataset, classifier, accuracy, precision, recall, f1,
                         tuple(degenerate))


def evaluate_predictions(y_true, y_pred, dataset: str = "",
                         classifier: str = "") -> MetricsReport:
    return compute_metrics(confusion(y_true, y_pred), dataset, classifier)


_COLUMNS = ("dataset", "classifier", "accuracy", "precision", "recall", "f1")


def render_report(reports, fmt: str = "text") -> str:
    """Reports as an aligned text table or a CSV (RFC 4180 quoting), metrics
    to two decimals."""
    rows = [r.as_row() for r in reports]
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(rows)
        return out.getvalue()
    if fmt != "text":
        raise ValidationError(f"unknown report format {fmt!r}")
    widths = [max(len(col), *(len(row[i]) for row in rows)) if rows else len(col)
              for i, col in enumerate(_COLUMNS)]
    lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(_COLUMNS))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"
