"""Measurement helpers: percentiles and tails, peak memory, cold start and
the machine stamp every report carries."""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values) -> dict:
    """The highest percentile with at least ten samples beyond it.

    Returns the value with the percentile used and the sample count.  With
    fewer than eleven samples no percentile qualifies; the maximum is
    reported and marked as such.
    """
    n = len(values)
    if n < 11:
        return {"value": max(values), "percentile": "max", "samples": n}
    pct = math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0
    return {"value": percentile(values, pct), "percentile": pct, "samples": n}


def median(values) -> float:
    return statistics.median(values)


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                kids.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    return kids


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb() -> float:
    """Resident memory of this process plus all its descendants, in MB."""
    total, pending = 0, [os.getpid()]
    while pending:
        pid = pending.pop()
        total += _rss_kb(pid)
        pending.extend(_children(pid))
    return total / 1024.0


class PeakRSS:
    """Samples :func:`tree_rss_mb` on a background thread; ``peak_mb`` is
    the largest sum seen (the benchmark process plus its workers)."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb())
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, tree_rss_mb())


_COLD_START = """
import repro
from repro.core.pipeline import available_passes
from repro.models.zoo import BENCHMARK_MODELS, build_model
available_passes()
for name in BENCHMARK_MODELS:
    build_model(name)
"""


def cold_start_seconds(src: Path) -> float:
    """Seconds for a fresh interpreter to import the compiler, register its
    passes and build the seven Table 3 graphs."""
    env = dict(os.environ, PYTHONPATH=str(src))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, check=True, timeout=120
    )
    return time.perf_counter() - started


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_speed_s() -> float:
    """Median seconds of a fixed pure-Python loop: how fast this host ran
    when the report was made (shared hosts drift by tens of percent)."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        samples.append(time.perf_counter() - started)
    return median(samples)


def machine_stamp(root: Path, workload: str, seed: int, trace: bool) -> dict:
    """Machine and run details recorded in every report."""
    import numpy

    return {
        "host_speed_s": host_speed_s(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }
