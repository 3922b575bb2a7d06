"""The botmeter benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload extract-long --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 40     # every workload

Each invocation generates its workload's inputs from ``--seed`` under
``.bench_work/``, then runs the workload in a fresh child process per
repetition (``child.py``) until ``--seconds`` are used, at least twice.
Before each repetition the inputs are generated once more into a throwaway
directory, so that ``setup_s`` is the median of set-ups spread over the whole
window.  The child reads only the generated files, so its peak RSS excludes
set-up.  Outputs are checked against the
results the generator expects, and must be byte-identical across the
repetitions of one invocation.

Every timed region, each build and each run, carries a speed probe
(``speed.py``), and its time is divided by the slowdown the probe saw.
``--trace 0`` reports the end-to-end metrics as medians over the
invocation.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the fastest traced one plus
``trace.overhead_s``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` shrinks every
workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import speed  # noqa: E402
from spans import KINDS  # noqa: E402

WORKLOADS = tuple(corpus.BUILDERS)
MIN_REPS = 2
DEADLINE_S = 170.0        # every invocation must end within 180 s
SMOKE_SCALE = 0.02
# Lowest accepted accuracy on the pipeline's holdouts, in percent.  The
# lowest of the 12 accuracies was 71 to 80 for each of seeds 1 to 10.
ACCURACY_FLOOR = 60.0
NOTES = ("Caches are not dropped and CPUs are not pinned; nothing touches "
         "machine settings. Children run with one BLAS/OpenMP thread.")

END_TO_END_UNITS = {"wall_s": "s", "pkts_per_s": "packets/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(directory: Path) -> dict:
    return {str(p.relative_to(directory)): sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


def environment() -> dict:
    import numpy

    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "platform": platform.platform(), "notes": NOTES}


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- output checks -------------------------------------------------------------

def _datasets(corp) -> dict:
    """Dataset name -> (flows, packets, label counts) the outputs must show."""
    out: dict = {}
    for cap in corp.captures:
        name = cap.path.split("/")[0]
        flows, packets, labels = out.get(name, (0, 0, Counter()))
        out[name] = (flows + cap.flows, packets + cap.packets,
                     labels + Counter(cap.labels))
    return out


def check_content(corp, out: Path) -> dict:
    """Dataset name -> reason it failed, for the datasets whose outputs are
    wrong.  Flow CSVs must account for every generated packet and flow and
    carry the blueprint labels; pipeline metrics need 12 rows above the
    accuracy floor."""
    failed = {}
    datasets = _datasets(corp)
    for name, (flows, packets, labels) in datasets.items():
        path = out / f"labeled_{name}.csv"
        if not path.is_file():
            failed[name] = f"{path.name} missing"
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            fwd, bwd = header.index("Total Fwd Packets"), header.index("Total Backward Packets")
            lab = header.index("Label")
            rows = seen = 0
            got = Counter()
            for row in reader:
                rows += 1
                seen += int(float(row[fwd])) + int(float(row[bwd]))
                got[row[lab]] += 1
        if (rows, seen, got) != (flows, packets, labels):
            failed[name] = (f"{path.name}: {rows} flows, {seen} packets, "
                            f"labels {dict(got)}; expected {flows}, {packets}, "
                            f"{dict(labels)}")
    if corp.config is None:
        return failed
    metrics = out / "metrics.csv"
    if not metrics.is_file():
        return {name: "metrics.csv missing" for name in datasets}
    with open(metrics, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(datasets) * len(KINDS):
        return {name: f"metrics.csv has {len(rows)} rows" for name in datasets}
    for name in datasets:
        accs = {r["classifier"]: float(r["accuracy"]) for r in rows if r["dataset"] == name}
        if sorted(accs) != sorted(KINDS) or min(accs.values()) < ACCURACY_FLOOR:
            failed.setdefault(name, f"accuracies {accs} (floor {ACCURACY_FLOOR})")
    return failed


def differing(names, reference: dict, current: dict) -> set:
    """Datasets whose output files differ from the reference run's."""
    changed = {path for path in reference.keys() | current.keys()
               if reference.get(path) != current.get(path)}
    hit = set()
    for path in changed:
        owners = {n for n in names if f"_{n}." in path or f"_{n}_" in path}
        hit |= owners or set(names)  # shared files count against every dataset
    return hit


# --- runs ----------------------------------------------------------------------

class Runner:
    """Runs the child repetitions of one invocation and keeps the tally."""

    def __init__(self, workload, corp, inputs: Path, work: Path, started: float):
        self.workload, self.corp, self.inputs, self.work = workload, corp, inputs, work
        self.started = started
        self.names = list(_datasets(corp))
        self.reference = None     # output digests of the first good run
        self.content_failed = {}
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def run(self, traced: bool):
        """One repetition; returns the child's result, or None if it failed."""
        self.count += 1
        out = self.work / f"out{self.count}"
        result_path = self.work / f"result{self.count}.json"
        trace_path = self.work / f"trace{self.count}.json" if traced else None
        err_path = self.work / f"child{self.count}.err"
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        cmd = [sys.executable, str(HERE / "child.py"), self.workload,
               str(self.inputs), str(out), str(result_path),
               str(trace_path) if traced else "-"]
        self.attempted += len(self.names)
        timeout = max(1.0, DEADLINE_S - (perf_counter() - self.started))
        try:
            with open(err_path, "wb") as err:
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                      env=env, timeout=timeout, check=False)
            ok = proc.returncode == 0 and result_path.is_file()
        except subprocess.TimeoutExpired:
            ok = False
        result = json.loads(result_path.read_text()) if ok else None
        if result is None or result["code"] != 0 or (out / "FAILED").exists():
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"run {self.count} failed:\n{tail}", file=sys.stderr)
            self.failed += len(self.names)
            return None
        current = digests(out)
        if self.reference is None:
            self.reference = current
            self.content_failed = check_content(self.corp, out)
            for name, why in self.content_failed.items():
                print(f"output check failed for {name}: {why}", file=sys.stderr)
        bad = set(self.content_failed) | differing(self.names, self.reference, current)
        if bad - set(self.content_failed):
            print(f"run {self.count}: outputs differ from run 1 for "
                  f"{sorted(bad)}", file=sys.stderr)
        self.failed += len(bad)
        if traced:
            keep = ROOT / ".bench_work" / f"trace-{self.workload}.json"
            shutil.copyfile(trace_path, keep)
        shutil.rmtree(out)
        return result


class SetUp:
    """Builds a workload's inputs, timing every build.

    The first build is kept for the measured runs; each later one is
    written to a throwaway directory, must be byte-identical to the first,
    and is deleted at once.
    """

    def __init__(self, workload: str, seed: int, scale: float, work: Path):
        self.build = lambda target: corpus.BUILDERS[workload](target, seed, scale)
        self.work = work
        self.times = []
        self.samples = []
        self.inputs = work / "inputs"
        self.corp = self._timed(self.inputs)
        self.reference = digests(self.inputs)
        self.deterministic = True

    def _timed(self, target: Path):
        with speed.Probe() as probe:
            t0 = perf_counter()
            corp = self.build(target)
            self.times.append(perf_counter() - t0)
        self.samples.append(probe.samples)
        return corp

    def repeat(self) -> None:
        target = self.work / "inputs-again"
        self._timed(target)
        if digests(target) != self.reference:
            self.deterministic = False
        shutil.rmtree(target)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float) -> dict:
    started = perf_counter()
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base))
    try:
        setup = SetUp(workload, seed, scale, work)
        corp = setup.corp
        runner = Runner(workload, corp, setup.inputs, work, started)
        plain, traced = [], []
        t_measure = perf_counter()
        while True:
            t_rep = perf_counter()
            setup.repeat()
            result = runner.run(traced=False)
            if result is not None:
                plain.append(result)
            if trace:
                result = runner.run(traced=True)
                if result is not None:
                    traced.append(result)
            used = perf_counter() - t_measure
            rep = perf_counter() - t_rep
            if perf_counter() - started + rep > DEADLINE_S:
                break
            if runner.count >= MIN_REPS * (2 if trace else 1) and used + rep > seconds:
                break
        if not setup.deterministic:
            print("set-up is not deterministic for this seed", file=sys.stderr)
        correct = setup.deterministic and runner.failed == 0 and bool(plain)
        if trace:
            correct = correct and bool(traced)
            metrics, ok = layer_summary(corp, plain, traced)
            correct = correct and ok
        else:
            metrics = end_to_end(corp, plain, setup) if plain else {}
        return {"correct": correct, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics,
                "walls": [r["wall_s"] for r in plain],
                "factors": speed.factors([r["speed_samples"] for r in plain])}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def corrected(times, sample_lists) -> list[float]:
    """Each time divided by the slowdown its probe samples show."""
    return [t / f for t, f in zip(times, speed.factors(sample_lists))]


def end_to_end(corp, plain, setup) -> dict:
    """Medians over the invocation: times corrected for machine speed."""
    walls = corrected([r["wall_s"] for r in plain],
                      [r["speed_samples"] for r in plain])
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "pkts_per_s": corp.packets / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(corrected(setup.times, setup.samples)),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_summary(corp, plain, traced) -> tuple[dict, bool]:
    """Layer metrics of the fastest traced run, plus tracing overhead:
    the median corrected traced wall time minus the untraced one."""
    ok = True
    for r in traced:
        if r["untraced_names"]:
            print(f"trace: program has no {', '.join(r['untraced_names'])}",
                  file=sys.stderr)
        layers = r["layers"]
        if layers["pcap.decoded"] != corp.packets:
            print(f"trace: decoded {layers['pcap.decoded']} packets, generated "
                  f"{corp.packets}", file=sys.stderr)
            ok = False
        if abs(layers["trace.self_sum_share"] - 1.0) > 0.05:
            print(f"trace: self times sum to {layers['trace.self_sum_share']:.3f} "
                  "of traced wall_s", file=sys.stderr)
            ok = False
    if not traced or not plain:
        return {}, False
    units = layer_units()
    fastest = min(traced, key=lambda r: r["wall_s"])
    metrics = {name: {"value": value, "unit": units.get(name, "count")}
               for name, value in fastest["layers"].items()}
    walls = corrected([r["wall_s"] for r in plain + traced],
                      [r["speed_samples"] for r in plain + traced])
    overhead = (statistics.median(walls[len(plain):])
                - statistics.median(walls[:len(plain)]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, ok


def layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if (args.workload is None) == (not args.all):
        parser.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "botmeter" / "__init__.py").is_file():
        print(f"error: no botmeter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scale = SMOKE_SCALE if args.smoke else 1.0
    print(json.dumps({"env": environment()}))
    workloads = WORKLOADS if args.all else (args.workload,)
    results = {}
    for workload in workloads:
        res = measure(workload, args.seed, args.seconds, bool(args.trace), scale)
        results[workload] = res
        share = res["failed"] / res["attempted"]
        print(f"[{workload}] correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} failed_share={share:.4f} ratio")
        walls = ", ".join(f"{w:.4f}" for w in res["walls"])
        factors = ", ".join(f"{f:.3f}" for f in res["factors"])
        if res["walls"]:
            print(f"[{workload}] uncorrected median wall time "
                  f"{statistics.median(res['walls']):.6g} s over {len(res['walls'])} runs")
        print(f"[{workload}] {len(res['walls'])} untraced runs, uncorrected "
              f"wall time: {walls}")
        print(f"[{workload}] slowdown of each run: {factors}")
        for name, m in res["metrics"].items():
            print(f"[{workload}] {name} {m['value']:.6g} {m['unit']}")
    if args.all:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    else:
        final = {k: v for k, v in results[args.workload].items()
                 if k not in ("walls", "factors")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
