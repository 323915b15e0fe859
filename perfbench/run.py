"""Benchmark of the FPSA reproduction: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload table3-pnr --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records spans
around each layer's public functions and reports the per-layer metrics
(``BENCHMARK.json`` lists both, ``perfbench/spec.py`` defines them).  Inputs come from ``--seed``.  Every
output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 1 when a check failed.  The line before it is the full report,
stamped with the machine and run details; the same report, and with
``--trace 1`` the spans as Chrome trace-event JSON, are written under
``.perfbench/`` in the repository root.

Without the program's sources beside it (``src/repro``) the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("table3-pnr", "serve-zipf", "dse-sweep")


def _isolate_environment() -> None:
    """Run the program with its defaults: no inherited ``REPRO_*`` knobs
    (shared cache, verification, fault plans, JIT), and temporary files
    inside the checkout."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import measure
    import workloads
    from spec import END_TO_END, PER_LAYER, UNITS
    from tracer import Tracer

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        root=ROOT,
        scratch=scratch,
        tracer=Tracer() if trace else None,
    )
    if run.tracer:
        run.tracer.install()
    started = time.perf_counter()
    try:
        with measure.PeakRSS() as rss:
            outcome = workloads.WORKLOAD_FUNCS[workload](run)
    finally:
        if run.tracer:
            run.tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    outcome.e2e["peak_rss_mb"] = rss.peak_mb
    outcome.e2e["success_rate"] = 1.0 - outcome.failed / max(1, outcome.attempted)
    wanted = PER_LAYER if trace else END_TO_END
    values = outcome.layer if trace else outcome.e2e
    metrics = {name: {"value": float(values[name]), "unit": UNITS[name]} for name in wanted}
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    for name in bad:
        outcome.fail(f"metric {name} is not finite")
        metrics[name]["value"] = 0.0
    report = {
        "stamp": measure.machine_stamp(ROOT, workload, seed, trace),
        "seconds": seconds,
        "wall_s": time.perf_counter() - started,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "workload_metrics": {
            "error_rate": {"value": outcome.failed / max(1, outcome.attempted), "unit": "fraction"},
            "peak_rss_mb": {"value": rss.peak_mb, "unit": "MB"},
            "setup_s": {"value": outcome.e2e.get("setup_s"), "unit": "s"},
            **outcome.report,
        },
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"report-{name}.json").write_text(json.dumps(report, indent=1, default=str))
    if run.tracer:
        (OUT / f"trace-{name}.json").write_text(json.dumps(run.tracer.chrome_trace()))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    _isolate_environment()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(reports[name], default=str), flush=True)
    if len(names) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {
            f"{workload}/{metric}": value
            for workload, report in reports.items()
            for metric, value in report["metrics"].items()
        }
        for workload, report in reports.items():
            for metric, value in report["workload_metrics"].items():
                if isinstance(value, dict) and "unit" in value:
                    metrics[f"{workload}/{metric}"] = value
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
