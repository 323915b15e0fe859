"""Smoke checks of the benchmark itself, at a tiny size.

Run from the repository root (kept out of the default test collection,
like ``benchmarks/``)::

    python3 -m pytest -q perfbench/smoke_checks.py

The workloads are shrunk by patching the input tables (fewer keys, points
and ladder steps), so every check finishes in seconds while exercising
the same code paths as a full run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = spec.BENCHMARK


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    monkeypatch.setattr(inputs, "PNR_POINTS", (("LeNet", 1),))
    monkeypatch.setattr(inputs, "SERVE_DUPLICATIONS", (1, 2, 64))
    monkeypatch.setattr(inputs, "SWEEP_DUPLICATIONS", (1, 64))
    monkeypatch.setattr(inputs, "SWEEP_CHIPS", (None, 2))
    monkeypatch.setattr(workloads, "SERVE_RATES", (40.0,))
    monkeypatch.setattr(workloads, "SERVE_WINDOW", 20)
    monkeypatch.setattr(workloads, "SERVE_LOW_REQUESTS", 30)
    monkeypatch.setattr(workloads, "SERVE_STEP_REQUESTS", 20)
    monkeypatch.setattr(workloads, "SERVE_PREROLL", 8)
    monkeypatch.setattr(workloads, "cold_start", lambda run, repeats=3: 0.5)
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("TMPDIR", str(run.OUT / "tmp"))


def test_every_metric_is_defined_and_mapped():
    assert set(spec.DEFINITIONS) == set(spec.END_TO_END)
    assert set(spec.LAYERS) == set(spec.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for name, (workload, moves, flat_on) in spec.LAYERS.items():
        assert moves in spec.END_TO_END or moves in spec.LAYERS, name
        assert workload is None or workload in spec.WORKLOADS, name
        assert set(flat_on) <= set(spec.WORKLOADS) - {workload}, name
    for name, (workload, moves) in spec.ALSO_MOVES.items():
        assert name in spec.LAYERS and workload in spec.WORKLOADS and moves in spec.END_TO_END


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny, workload, trace):
    report = run.run_workload(workload, seed=3, seconds=1, trace=trace)
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert report["failed"] == 0, report["failures"]
    assert set(report["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = report["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    stamp = report["stamp"]
    stamped = {"nproc", "python", "numpy", "platform", "git_commit", "seed", "numba_importable"}
    assert stamped <= set(stamp)
    assert stamp["seed"] == 3
    if trace:
        trace_file = ROOT / ".perfbench" / f"trace-{workload}-seed3-trace1.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert events and {"parent", "request"} <= set(events[0]["args"])


def test_same_seed_same_inputs_other_seed_other_inputs():
    for seed, other in ((1, 2), (7, 8)):
        assert inputs.table3_order(seed) == inputs.table3_order(seed)
        assert inputs.serve_step(seed, 0, 20.0, 50) == inputs.serve_step(seed, 0, 20.0, 50)
        assert inputs.sweep_points(seed, 0) == inputs.sweep_points(seed, 0)
        assert inputs.serve_step(seed, 0, 20.0, 50) != inputs.serve_step(other, 0, 20.0, 50)
        assert inputs.sweep_points(seed, 0) != inputs.sweep_points(other, 0)
        assert inputs.table3_order(seed) != inputs.table3_order(other)
    # other seeds reorder and redraw, but never change what is swept
    swept = sorted(inputs.sweep_points(1, 0), key=repr)
    assert swept == sorted(inputs.sweep_points(2, 5), key=repr)
    assert len(inputs.sweep_points(1, 0)) == 147
    assert len(inputs.serve_keys()) == 448


def test_held_out_seed_reaches_the_program(tiny, capsys):
    """A claim is confirmed on a seed not used while making it: the CLI
    takes any seed, records it, and generates that seed's inputs."""
    assert run.main(["--workload", "dse-sweep", "--seed", "12345", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert report["stamp"]["seed"] == 12345
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    tail = measure.tail(values)
    assert tail["percentile"] == 90.0 and tail["samples"] == 100
    assert sum(v > tail["value"] for v in values) >= 9
    assert measure.tail([1.0, 3.0, 2.0]) == {"value": 3.0, "percentile": "max", "samples": 3}


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.recording(), tracer.request("r1"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(20000))
    inner, outer = sorted(tracer.spans, key=lambda s: s.name)
    assert outer.parent_id is None and inner.parent_id == outer.span_id
    assert inner.request_id == outer.request_id == "r1"
    assert outer.self_ns == (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)


def test_install_restores_the_program():
    from repro.models import zoo
    from repro.pnr.fabric import FabricGrid
    from repro.pnr.routing import PathFinderRouter

    before = (PathFinderRouter.route, FabricGrid.__dict__["for_netlist"], dict(zoo.MODEL_BUILDERS))
    tracer = Tracer()
    tracer.install()
    assert PathFinderRouter.route is not before[0]
    tracer.uninstall()
    after = (PathFinderRouter.route, FabricGrid.__dict__["for_netlist"], dict(zoo.MODEL_BUILDERS))
    assert after == before


def test_fails_without_the_program():
    tmp_path = run.OUT / "without-program"
    shutil.rmtree(tmp_path, ignore_errors=True)
    tmp_path.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", "table3-pnr", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(tmp_path)
    assert out.returncode not in (0, None)
    assert out.stdout == ""
