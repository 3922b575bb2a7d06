"""Per-dataset feature ranking and the cross-dataset universal feature set.

Significance is the absolute weight of the shared logistic-regression
trainer, which standardizes the features internally; the universal set
keeps every canonical feature name selected by at least ``threshold`` of
the per-dataset top-k lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ._numpy import np
from .classifiers import ModelSpec, constant_columns, fit, log_lr_fit
from .dataset import FeatureTable, normalize_feature_name
from .errors import ValidationError


@dataclass(frozen=True)
class RankedFeatureList:
    dataset: str
    ranked: tuple[tuple[str, float], ...]  # (canonical name, |weight|), descending

    def names(self) -> list[str]:
        return [name for name, _ in self.ranked]


@dataclass(frozen=True)
class UniversalFeatureSet:
    features: tuple[str, ...]
    counts: tuple[tuple[str, int], ...]
    threshold: int


def rank_features_lr(table: FeatureTable, k: int = 10,
                     dataset: str = "") -> RankedFeatureList:
    """Top-k features of a labeled table by |LR weight|.

    The LR trainer standardizes the raw features itself, so the weights
    are per standard deviation.  Constant columns (every value equal)
    never rank; |w| ties break by name.  Uses the same LR trainer as the
    classifiers, always at the default ``ModelSpec(kind="LR")``; its fit is
    the objective's unique optimum, so rankings depend only on the table.
    """
    if table.labels is None:
        raise ValidationError("ranking needs a labeled table")
    variable = np.flatnonzero(~constant_columns(table.rows)) if table.n_rows else []
    if k < 1 or k > len(variable):
        raise ValidationError(
            f"k={k} must be within the {len(variable)} non-constant features")
    model = fit(ModelSpec(kind="LR"), table.rows, table.labels)
    log_lr_fit(model, f"ranking {dataset or 'table'}")
    scored = sorted(
        ((table.columns[i], float(abs(model.weights[i]))) for i in variable),
        key=lambda pair: (-pair[1], pair[0]))
    return RankedFeatureList(dataset, tuple(scored[:k]))


def derive_universal_set(lists, threshold: int = 2) -> UniversalFeatureSet:
    """Frequency-count canonical names across ranked lists; keep those
    selected by at least ``threshold`` lists, ordered (count desc, name asc)."""
    lists = list(lists)
    if not lists:
        raise ValidationError("need at least one ranked list")
    if not 1 <= threshold <= len(lists):
        raise ValidationError(f"threshold must be within 1..{len(lists)} (the "
                              f"number of ranked lists), got {threshold}")
    counts: Counter[str] = Counter()
    for ranked in lists:
        names = ranked.names() if isinstance(ranked, RankedFeatureList) else ranked
        canonical = {normalize_feature_name(name)[0] for name in names}
        counts.update(canonical)
    selected = sorted(((name, n) for name, n in counts.items() if n >= threshold),
                      key=lambda pair: (-pair[1], pair[0]))
    return UniversalFeatureSet(
        features=tuple(name for name, _ in selected),
        counts=tuple(selected),
        threshold=threshold,
    )
