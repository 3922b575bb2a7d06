"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import contextlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from botmeter import cli
from botmeter.classifiers import ModelSpec, fit, lr_loss_and_grad, predict
from botmeter.dataset import FeatureTable, train_test_split
from botmeter.demo import make_demo_corpus
from botmeter.evaluation import ConfusionMatrix, compute_metrics
from botmeter.meter import MeterConfig, ingest_capture_detailed
from botmeter.pcap import CaptureStats, read_capture
from botmeter.selection import derive_universal_set
from botmeter.synth import generate_synthetic_capture

import capgen
import oracle
from name_corpus import REFERENCE_TOP10, UNIVERSAL_SIX


@contextlib.contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s")
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)", flush=True)


def test_criterion_1_flow_meter_oracle_equivalence(tmp_path):
    config = MeterConfig(flow_timeout_us=2_000_000, activity_timeout_us=500_000)
    with criterion(1, "flow-meter oracle equivalence, 200 captures", 10.0):
        total_packets = 0
        for seed in range(200):
            rng = random.Random(1000 + seed)
            blueprints = capgen.random_blueprints(
                rng, max_flows=8, max_packets_per_flow=55,
                timeout_us=config.flow_timeout_us)
            path = tmp_path / f"c{seed}.pcap"
            path.write_bytes(generate_synthetic_capture(blueprints, seed))
            flows, stats = ingest_capture_detailed(str(path), config)
            packets = list(read_capture(str(path), CaptureStats()))
            assert len(packets) <= 500
            total_packets += len(packets)
            oracle.assert_flows_match(
                flows, oracle.expected_flows(packets, config), rel_tol=1e-9)
        assert total_packets > 10_000  # the corpus is not trivially small


def test_criterion_2_metric_fidelity():
    with criterion(2, "metric fidelity on 1000 random confusion matrices", 1.0):
        rng = random.Random(7)
        for case in range(1000):
            if case < 10:  # force degenerate denominators
                tp, fp = 0, 0
                tn, fn = rng.randint(1, 50), rng.randint(0, 50)
            else:
                tp, tn, fp, fn = (rng.randint(0, 10_000) for _ in range(4))
            if tp + tn + fp + fn == 0:
                continue
            r = compute_metrics(ConfusionMatrix(tp, tn, fp, fn))
            total = tp + tn + fp + fn
            acc = float(Fraction(tp + tn, total) * 100)
            prec = float(Fraction(tp, tp + fp) * 100) if tp + fp else 0.0
            rec = float(Fraction(tp, tp + fn) * 100) if tp + fn else 0.0
            f1 = 2 * rec * prec / (rec + prec) if prec + rec else 0.0
            assert abs(r.accuracy - acc) < 1e-12
            assert abs(r.precision - prec) < 1e-12
            assert abs(r.recall - rec) < 1e-12
            assert abs(r.f1 - f1) < 1e-9
            if tp + fp == 0:
                assert r.precision == 0.0 and "precision" in r.degenerate
            if tp + fn == 0:
                assert r.recall == 0.0 and "recall" in r.degenerate


def test_criterion_3_universal_set_reproduction():
    with criterion(3, "universal set from the published top-10 lists", 1.0):
        result = derive_universal_set(REFERENCE_TOP10.values(), threshold=2)
        assert dict(result.counts) == UNIVERSAL_SIX
        assert len(result.features) == 6
        assert set(result.features) == {
            "Packet Length Mean", "Average Packet Size",
            "Fwd Packet Length Mean", "Bwd Packet Length Min",
            "Min Packet Length", "Down/Up Ratio"}


def _separable_flow_dataset(seed=11, n=2000, d=6):
    rng = np.random.default_rng(seed)
    w = np.array([3.0, 0.4, 0.3, 0.2, 0.1, 0.05])
    X = rng.normal(size=(n, d))
    z = X @ w
    y = (z > 0).astype(int)
    X += np.outer(np.where(y == 1, 0.8, -0.8), w / np.linalg.norm(w))
    names = ["Packet Length Mean", "Average Packet Size",
             "Fwd Packet Length Mean", "Bwd Packet Length Min",
             "Min Packet Length", "Down/Up Ratio"]
    return FeatureTable(names, X, labels=y)


def _correlated_flow_dataset(seed=12, n=2000):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    y = ((a > 0) ^ (b > 0)).astype(int)
    X = np.column_stack([
        a, b,
        a + rng.normal(scale=0.05, size=n),
        b + rng.normal(scale=0.05, size=n),
        a + b, rng.normal(size=n)])
    names = [f"corr{i}" for i in range(6)]
    return FeatureTable(names, X, labels=y)


def test_criterion_4_classifier_sanity():
    with criterion(4, "classifier sanity on separable + correlated data", 60.0):
        table = _separable_flow_dataset()
        train, test = train_test_split(table, 0.8, seed=4)
        for kind in ("LR", "KNN", "RF"):
            model = fit(ModelSpec(kind=kind, seed=4), train.rows, train.labels)
            acc = (predict(model, test.rows) == test.labels).mean()
            assert acc >= 0.99, f"{kind} test accuracy {acc:.4f} < 0.99"

        corr = _correlated_flow_dataset()
        ctrain, ctest = train_test_split(corr, 0.8, seed=4)
        rf = fit(ModelSpec(kind="RF", seed=4), ctrain.rows, ctrain.labels)
        nb = fit(ModelSpec(kind="NB"), ctrain.rows, ctrain.labels)
        rf_acc = (predict(rf, ctest.rows) == ctest.labels).mean()
        nb_acc = (predict(nb, ctest.rows) == ctest.labels).mean()
        assert rf_acc >= nb_acc, f"RF {rf_acc:.4f} < NB {nb_acc:.4f}"


def test_criterion_5_lr_gradient_check():
    with criterion(5, "LR analytic gradient vs central differences", 5.0):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            d = int(rng.integers(1, 7))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n).astype(np.int64)
            w = rng.normal(size=d)
            b = float(rng.normal())
            lam = float(rng.uniform(0.0, 3.0))
            _, grad_w, grad_b = lr_loss_and_grad(w, b, X, y, lam)
            eps = 1e-6
            for j in range(d):
                step = np.zeros(d)
                step[j] = eps
                hi, _, _ = lr_loss_and_grad(w + step, b, X, y, lam)
                lo, _, _ = lr_loss_and_grad(w - step, b, X, y, lam)
                fd = (hi - lo) / (2 * eps)
                assert grad_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            hi, _, _ = lr_loss_and_grad(w, b + eps, X, y, lam)
            lo, _, _ = lr_loss_and_grad(w, b - eps, X, y, lam)
            assert grad_b == pytest.approx((hi - lo) / (2 * eps), rel=1e-5, abs=1e-8)


ARTIFACTS = ("labeled_*.csv", "ranked_*.csv", "universal.csv", "metrics.csv")


def test_criterion_6_pipeline_determinism(tmp_path):
    with criterion(6, "byte-identical artifacts across pipeline reruns"):
        config_path = make_demo_corpus(tmp_path / "corpus", seed=6,
                                       flows_per_class=40)
        base = cli.load_pipeline_config(config_path)
        snapshots = []
        for run in ("first", "second"):
            out_dir = tmp_path / run
            run_config = cli.PipelineConfig(
                manifests=base.manifests, meter=base.meter, out_dir=out_dir,
                seed=6, ratio=0.8, top_k=10, threshold=2)
            assert cli.run_pipeline(run_config) == 0
            snapshot = {}
            for pattern in ARTIFACTS:
                for path in sorted(out_dir.glob(pattern)):
                    snapshot[path.name] = path.read_bytes()
            snapshots.append(snapshot)
        first, second = snapshots
        assert first and first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"


# Runs ``botmeter pipeline`` as ``python -m botmeter`` does, then reports on
# stderr whether the run loaded numpy.random.
PIPELINE_PROBE = """
import sys
from botmeter.cli import main
code = main(sys.argv[1:])
print("numpy.random loaded:", "numpy.random" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_criterion_6_across_processes(tmp_path):
    # Reruns in one process share its hash seed, its allocator state and its
    # imported modules; two fresh processes with different hash seeds share
    # none of them.  Every file in out_dir must still match, models and
    # report included, and no run may load numpy.random.
    with criterion(6, "byte-identical artifacts across processes"):
        config_path = make_demo_corpus(tmp_path / "corpus", seed=6,
                                       flows_per_class=40)
        src = Path(cli.__file__).resolve().parents[1]
        snapshots = []
        for hash_seed in ("1", "2"):
            out_dir = tmp_path / f"hash-seed-{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, (str(src), os.environ.get("PYTHONPATH")))))
            proc = subprocess.run(
                [sys.executable, "-c", PIPELINE_PROBE, "pipeline",
                 "--config", str(config_path), "--out", str(out_dir)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert "numpy.random loaded: False" in proc.stderr
            snapshots.append({str(path.relative_to(out_dir)): path.read_bytes()
                              for path in sorted(out_dir.rglob("*"))
                              if path.is_file()})
        first, second = snapshots
        assert "report.txt" in first and "model_synth-scan_RF.json" in first
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between processes"


def test_criterion_7_end_to_end_smoke(tmp_path):
    with criterion(7, "three-dataset pipeline produces a 12-row report", 120.0):
        config_path = make_demo_corpus(tmp_path / "corpus", seed=7,
                                       flows_per_class=40)
        config = cli.load_pipeline_config(config_path)
        assert cli.run_pipeline(config) == 0
        metrics = (config.out_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "dataset,classifier,accuracy,precision,recall,f1"
        rows = metrics[1:]
        assert len(rows) == 12  # 3 datasets x 4 classifiers
        datasets = []
        for row in rows:
            cells = row.split(",")
            datasets.append(cells[0])
            for value in cells[2:]:
                assert 0.0 <= float(value) <= 100.0
        assert len(set(datasets)) == 3
        assert (config.out_dir / "report.txt").exists()
        assert (config.out_dir / "universal.csv").exists()
