"""One measured run of a workload, in a process of its own.

The parent generated the inputs; this process only reads them, so its peak
resident memory is the program's alone.  The timed region runs from the
input files on disk to the output files written, through the program's
entry points: ``cli.extract_and_label`` for the ``extract-*`` workloads and
``botmeter pipeline`` (``cli.main``) for ``pipeline``.  A speed probe
samples the vCPU during the timed region (see ``speed.py``).  Given a trace
path, the layer functions are wrapped first (see ``spans.py``).

Usage: python3 bench/child.py WORKLOAD INPUT_DIR OUT_DIR RESULT_JSON TRACE_JSON|-
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from botmeter import cli, dataset  # noqa: E402
from botmeter.meter import MeterConfig  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set of this process image (``VmHWM``).

    Not ``ru_maxrss``: Linux carries that across ``exec`` from the parent's
    address space, which held the generated corpus.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run(workload: str, inputs: Path, out: Path) -> int:
    if workload == "pipeline":
        return cli.main(["pipeline", "--config", str(inputs / "config.json"),
                         "--out", str(out)])
    name = "long" if workload == "extract-long" else "scan"
    manifest = dataset.parse_manifest(inputs / name / f"{name}.manifest")
    cli.extract_and_label(manifest, MeterConfig(), out / f"labeled_{name}.csv")
    return 0


def main(argv) -> int:
    workload, inputs, out, result_path, trace_path = argv
    inputs, out = Path(inputs).resolve(), Path(out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    result = {}
    if trace_path != "-":
        tracer = spans.Tracer()
        result["untraced_names"] = spans.install(tracer)
    with speed.Probe() as probe:
        t0 = perf_counter()
        if tracer is None:
            code = run(workload, inputs, out)
        else:
            code = tracer.call(spans.ROOT, run, (workload, inputs, out), {})
        wall = perf_counter() - t0
    result.update(code=code, wall_s=wall, peak_rss_mb=peak_rss_mb(),
                  speed_samples=probe.samples)
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, wall)
        tracer.dump(trace_path)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
