"""Spans around the program's layer boundaries, recorded from outside it.

``install`` replaces each layer's public functions, under the names the
program calls them by, with wrappers that record a span per call.  Calls
made once per packet or per flow (decoder ``next``, ``offer_packet``,
``compute_features``) are aggregated into (count, total time) under their
enclosing span instead, so a trace stays small.  Spans stay in memory until
``dump``.  A name the program no longer has is skipped: its time then shows
as self time of the enclosing span.

Self time of a span is its duration minus the time its child spans and
aggregates cover; calls are sequential, so children never overlap.  The
whole run sits under one root span, ``ROOT``, which belongs to no layer: its
self time is the part of the run that no wrapped function accounts for.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

KINDS = ("NB", "KNN", "RF", "LR")
ROOT = "bench.run"
LAYERS = ("cli", "pcap", "meter", "features", "labeling", "dataset",
          "selection", "classifiers", "evaluation")


class Tracer:
    def __init__(self):
        self.spans = []        # [id, parent id, name, start, end, attrs]
        self.aggregates = {}   # (parent id, name) -> [count, total seconds]
        self._stack = []

    def call(self, name, fn, args, kwargs, attrs=None):
        parent = self._stack[-1][0] if self._stack else None
        record = [len(self.spans), parent, name, perf_counter(), None, {}]
        self.spans.append(record)
        self._stack.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[4] = perf_counter()
            self._stack.pop()
        if attrs is not None:
            record[5] = attrs(args, result)
        return result

    def add(self, name, seconds):
        key = (self._stack[-1][0] if self._stack else None, name)
        agg = self.aggregates.get(key)
        if agg is None:
            self.aggregates[key] = [1, seconds]
        else:
            agg[0] += 1
            agg[1] += seconds

    def self_times(self):
        """(name, attrs, self seconds) per span, then per aggregate."""
        covered = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            covered[parent] += end - start
        for (parent, _), (_, total) in self.aggregates.items():
            covered[parent] += total
        out = [(name, attrs, end - start - covered[sid])
               for sid, _, name, start, end, attrs in self.spans]
        out += [(name, {"calls": count}, total)
                for (_, name), (count, total) in self.aggregates.items()]
        return out

    def dump(self, path) -> None:
        doc = {"spans": self.spans,
               "aggregates": [[p, n, c, t] for (p, n), (c, t) in self.aggregates.items()]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _span(tracer, name, fn, attrs=None):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)
    return wrapper


def _aggregated(tracer, name, fn):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(name, perf_counter() - t0)
    return wrapper


def _aggregated_iter(tracer, name, fn):
    """Time every ``next`` on the iterator ``fn`` returns."""
    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        while True:
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                tracer.add(name, perf_counter() - t0)
                return
            tracer.add(name, perf_counter() - t0)
            yield item
    return wrapper


def _kind(obj):
    spec = getattr(obj, "spec", obj)
    return getattr(spec, "kind", "?")


def _fit_attrs(args, model):
    spec = args[0]
    attrs = {"kind": spec.kind, "rows": len(args[1])}
    if spec.kind == "LR":
        attrs["iters"] = getattr(model, "n_iters", 0)
        attrs["capped"] = attrs["iters"] >= getattr(spec, "max_iters", float("inf"))
    return attrs


def _save_attrs(args, _):
    return {"kind": _kind(args[0]), "bytes": os.path.getsize(args[1])}


def _ingest_attrs(_, result):
    stats = result[1]
    return {"decoded": stats.decoded, "skipped": stats.skipped, "flows": stats.flows}


# (module, attribute, span name, how, attrs); "how" is span, agg or iter.
# Names the program imported with ``from x import y`` are patched where
# they are looked up, which is the importing module.
_TARGETS = (
    ("cli", "load_pipeline_config", "cli.load_pipeline_config", "span", None),
    ("cli", "run_pipeline", "cli.run_pipeline", "span", None),
    ("cli", "extract_and_label", "cli.extract_and_label", "span", None),
    ("cli", "rank_dataset", "cli.rank_dataset", "span", None),
    ("cli", "train_models", "cli.train_models", "span", None),
    ("cli", "evaluate_models", "cli.evaluate_models", "span", None),
    ("cli", "write_ranked_csv", "cli.write_ranked_csv", "span", None),
    ("cli", "write_universal_csv", "cli.write_universal_csv", "span", None),
    ("cli", "ingest_capture_detailed", "meter.ingest", "span", _ingest_attrs),
    ("meter", "read_capture", "pcap.decode", "iter", None),
    ("meter.FlowTable", "offer_packet", "meter.offer_packet", "agg", None),
    ("meter.FlowTable", "flush", "meter.flush", "span",
     lambda a, r: {"flows": len(r)}),
    ("features", "compute_features", "features.compute_features", "agg", None),
    ("cli", "parse_rules", "labeling.parse_rules", "span",
     lambda a, r: {"rules": len(r)}),
    ("cli", "label_flows", "labeling.label_flows", "span",
     lambda a, r: {"flows": r[1].total, "unmatched": r[1].unmatched}),
    ("cli", "write_flow_csv", "dataset.write_flow_csv", "span",
     lambda a, r: {"rows": len(a[1])}),
    ("cli", "read_feature_csv", "dataset.read_feature_csv", "span",
     lambda a, r: {"rows": r.n_rows}),
    ("cli", "train_test_split", "dataset.train_test_split", "span", None),
    ("cli", "parse_manifest", "dataset.parse_manifest", "span", None),
    ("dataset", "parse_manifest", "dataset.parse_manifest", "span", None),
    ("selection", "standardize", "selection.standardize", "span", None),
    ("cli", "rank_features_lr", "selection.rank_features_lr", "span", None),
    ("cli", "derive_universal_set", "selection.derive_universal_set", "span", None),
    ("selection", "fit", "classifiers.fit", "span", _fit_attrs),
    ("classifiers", "fit", "classifiers.fit", "span", _fit_attrs),
    ("classifiers", "predict", "classifiers.predict", "span",
     lambda a, r: {"kind": _kind(a[0]), "rows": len(a[1])}),
    ("classifiers", "save_model", "classifiers.save_model", "span", _save_attrs),
    ("classifiers", "load_model", "classifiers.load_model", "span",
     lambda a, r: {"kind": _kind(r)}),
    ("cli", "evaluate_predictions", "evaluation.evaluate_predictions", "span", None),
    ("cli", "render_report", "evaluation.render_report", "span", None),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target the program still has; returns the ones missing."""
    import importlib

    missing = []
    for owner, attr, name, how, attrs in _TARGETS:
        module_name, _, cls = owner.partition(".")
        target = importlib.import_module(f"botmeter.{module_name}")
        if cls:
            target = getattr(target, cls, None)
        fn = getattr(target, attr, None) if target is not None else None
        if fn is None:
            missing.append(f"{owner}.{attr}")
            continue
        if how == "span":
            wrapped = _span(tracer, name, fn, attrs)
        elif how == "agg":
            wrapped = _aggregated(tracer, name, fn)
        else:
            wrapped = _aggregated_iter(tracer, name, fn)
        setattr(target, attr, wrapped)
    return missing


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """The per-layer metrics of one traced run, from its spans."""
    self_s = defaultdict(float)
    kind_self = defaultdict(float)
    sums = defaultdict(float)
    lr_iters, lr_fits, lr_capped = [], 0, 0
    for name, attrs, seconds in tracer.self_times():
        self_s[name] += seconds
        self_s[name.split(".")[0] + ".self"] += seconds
        kind = attrs.get("kind")
        if kind is not None:
            kind_self[(name, kind)] += seconds
            sums[(name, kind, "rows")] += attrs.get("rows", 0)
        for key in ("decoded", "skipped", "flows", "rules", "unmatched", "rows",
                    "bytes", "calls"):
            if key in attrs:
                sums[(name, key)] += attrs[key]
        if name == "classifiers.fit" and kind == "LR":
            lr_fits += 1
            lr_iters.append(attrs["iters"])
            lr_capped += bool(attrs["capped"])
        elif name == "dataset.train_test_split":
            sums["splits"] += 1

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    decoded = sums[("meter.ingest", "decoded")]
    flows = sums[("features.compute_features", "calls")]
    written = sums[("dataset.write_flow_csv", "rows")]
    read = sums[("dataset.read_feature_csv", "rows")]
    labeled = sums[("labeling.label_flows", "flows")]
    m = {
        "pcap.decode_s": self_s["pcap.decode"],
        "pcap.decoded": decoded,
        "pcap.skipped": sums[("meter.ingest", "skipped")],
        "pcap.pkts_per_s": rate(decoded, self_s["pcap.decode"]),
        "meter.offer_s": self_s["meter.offer_packet"],
        "meter.flush_s": self_s["meter.flush"],
        "meter.ingest_loop_s": self_s["meter.ingest"],
        "meter.flows": sums[("meter.ingest", "flows")],
        "meter.flows_at_flush": sums[("meter.flush", "flows")],
        "meter.pkts_per_s": rate(decoded, self_s["meter.offer_packet"]),
        "features.compute_s": self_s["features.compute_features"],
        "features.flows_per_s": rate(flows, self_s["features.compute_features"]),
        "labeling.parse_rules_s": self_s["labeling.parse_rules"],
        "labeling.label_s": self_s["labeling.label_flows"],
        "labeling.rules": sums[("labeling.parse_rules", "rules")],
        "labeling.unmatched": sums[("labeling.label_flows", "unmatched")],
        "labeling.flows_per_s": rate(labeled, self_s["labeling.label_flows"]),
        "dataset.write_s": self_s["dataset.write_flow_csv"],
        "dataset.rows_written": written,
        "dataset.read_s": self_s["dataset.read_feature_csv"],
        "dataset.rows_read": read,
        "dataset.read_amplification": read / written if written else 0.0,
        "dataset.split_s": self_s["dataset.train_test_split"],
        "dataset.splits": sums["splits"],
        "selection.standardize_s": self_s["selection.standardize"],
        "selection.rank_s": self_s["selection.rank_features_lr"],
        "selection.universal_s": self_s["selection.derive_universal_set"],
    }
    for kind in KINDS:
        predict_s = kind_self[("classifiers.predict", kind)]
        m[f"classifiers.{kind}.fit_s"] = kind_self[("classifiers.fit", kind)]
        m[f"classifiers.{kind}.predict_s"] = predict_s
        m[f"classifiers.{kind}.predict_rows_per_s"] = rate(
            sums[("classifiers.predict", kind, "rows")], predict_s)
    m["classifiers.LR.iters_max"] = max(lr_iters, default=0)
    m["classifiers.LR.capped_share"] = lr_capped / lr_fits if lr_fits else 0.0
    m["classifiers.save_s"] = self_s["classifiers.save_model"]
    m["classifiers.load_s"] = self_s["classifiers.load_model"]
    m["classifiers.model_bytes"] = sums[("classifiers.save_model", "bytes")]
    m["evaluation.s"] = (self_s["evaluation.evaluate_predictions"]
                         + self_s["evaluation.render_report"])
    m["cli.self_s"] = self_s["cli.self"]
    layer_sum = sum(self_s[f"{layer}.self"] for layer in LAYERS)
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = self_s[ROOT]
    m["trace.self_sum_share"] = layer_sum / wall_s
    return m
