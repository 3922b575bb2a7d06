"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], proc.stderr
    assert last["failed"] == 0 and last["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"[{workload}] {name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert "failed_share=0.0000 ratio" in proc.stdout
    env = json.loads(lines[0])["env"]
    assert {"commit", "python", "numpy", "nproc", "notes"} <= set(env)


@pytest.mark.parametrize("workload", list(corpus.BUILDERS))
def test_same_seed_gives_same_inputs(tmp_path, workload):
    build = corpus.BUILDERS[workload]
    build(tmp_path / "a", 5, bench_run.SMOKE_SCALE)
    build(tmp_path / "b", 5, bench_run.SMOKE_SCALE)
    build(tmp_path / "c", 6, bench_run.SMOKE_SCALE)
    a = bench_run.digests(tmp_path / "a")
    assert a == bench_run.digests(tmp_path / "b")
    assert a != bench_run.digests(tmp_path / "c")


def test_output_check_catches_a_lost_flow(tmp_path):
    corp = corpus.build_extract_scan(tmp_path / "in", 2, bench_run.SMOKE_SCALE)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "extract-scan", str(tmp_path / "in"),
         str(out), str(tmp_path / "result.json"), "-"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert bench_run.check_content(corp, out) == {}
    path = out / "labeled_scan.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    assert set(bench_run.check_content(corp, out)) == {"scan"}


def test_work_outside_every_wrapper_is_not_counted_as_covered():
    tracer = spans.Tracer()

    def run():
        time.sleep(0.03)  # no wrapped function covers this
        tracer.call("cli.extract_and_label", time.sleep, (0.01,), {})

    t0 = time.perf_counter()
    tracer.call(spans.ROOT, run, (), {})
    layers = spans.layer_metrics(tracer, time.perf_counter() - t0)
    assert layers["trace.unattributed_s"] >= 0.03
    assert layers["trace.self_sum_share"] < 0.5


def test_speed_factor_is_mean_capped_sample_over_the_reference():
    ref = speed.REFERENCE_S
    half = [ref] * 10 + [1.5 * ref] * 10
    stall = [1.5 * ref] * 3 + [400 * ref]  # counts as 2 x the median, 3 ref
    # a region with no sample takes the mean of all capped samples
    assert speed.factors([half, stall, []]) == pytest.approx(
        [1.25, 1.875, 32.5 / 24])
    assert speed.factors([[], []]) == [1.0, 1.0]


def test_probe_samples_while_active_only():
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    taken = len(probe.samples)
    time.sleep(0.03)
    assert 5 <= taken == len(probe.samples)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "extract-long", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
