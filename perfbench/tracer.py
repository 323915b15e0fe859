"""Span tracing of the program's layers, recorded from outside the program.

The tracer wraps public functions of the ``repro`` layers (module
functions, methods, class methods and the model-zoo builders) for the
duration of a traced measurement and restores the originals afterwards.
Every call becomes a span with a name, monotonic start and end, the span
that caused it (the innermost open span on the same thread) and the
request id the benchmark set for the operation in flight.  Spans stay in
memory; :meth:`Tracer.chrome_trace` renders them as Chrome trace-event
JSON (viewable in Perfetto) when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so nested layers are never counted twice.
Calls that run in worker processes are not visible here; the workloads
take worker-side figures from the timings the program returns.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent_id: int | None
    request_id: str | None
    thread_id: int
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


def _targets():
    """``(owner, attribute, span name)`` for every traced entry point.

    Patched where the callers look them up: a pass module that imported
    a function by name is patched in that module.
    """
    from repro.config_gen import passes as config_gen_passes
    from repro.core import api, cache, pipeline, shared_cache
    from repro.core.compiler import FPSACompiler
    from repro.mapper.mapper import SpatialTemporalMapper
    from repro.partition import passes as partition_passes
    from repro.perf import passes as perf_passes
    from repro.pnr import pnr, placement, routing, rrgraph
    from repro.pnr.fabric import FabricGrid
    from repro.service import jobs, runtime
    from repro.synthesizer.synthesizer import NeuralSynthesizer

    return [
        (NeuralSynthesizer, "synthesize", "synthesizer.synthesize"),
        (partition_passes, "partition_coreops", "partition.partition"),
        (SpatialTemporalMapper, "map", "mapper.map"),
        (perf_passes, "evaluate_design_point", "perf.evaluate"),
        (perf_passes, "compute_bounds", "perf.evaluate"),
        (FabricGrid, "for_netlist", "pnr.place"),
        (placement.SimulatedAnnealingPlacer, "place", "pnr.place"),
        (placement.ParallelAnnealingPlacer, "place", "pnr.place"),
        (rrgraph.RoutingResourceGraph, "__init__", "pnr.rrgraph"),
        (rrgraph.RoutingResourceGraph, "compiled", "pnr.rrgraph"),
        (routing.PathFinderRouter, "route", "pnr.route"),
        (pnr, "analyze_timing", "pnr.timing"),
        (config_gen_passes, "generate_bitstream", "config_gen.bitstream"),
        (pipeline.PassManager, "run", "core.pipeline"),
        (cache.StageCache, "lookup", "core.cache"),
        (cache.StageCache, "put", "core.cache"),
        (shared_cache.SharedStageCache, "get", "core.shared_cache"),
        (shared_cache.SharedStageCache, "put", "core.shared_cache"),
        (FPSACompiler, "compile", "core.compile"),
        (api, "deploy_many", "api.deploy_many"),
        (api.WorkerPool, "map", "api.pool_map"),
        (runtime.ServingRuntime, "submit", "service.submit"),
        (runtime.ServingRuntime, "result", "service.result"),
        (jobs.JobManager, "submit", "jobs.submit"),
    ]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        span = Span(
            span_id=span_id,
            name=name,
            start_ns=time.monotonic_ns(),
            end_ns=0,
            parent_id=parent.span_id if parent else None,
            request_id=getattr(self._local, "request_id", None),
            thread_id=threading.get_ident(),
        )
        stack.append(span)
        try:
            yield
        finally:
            span.end_ns = time.monotonic_ns()
            stack.pop()
            if parent is not None:
                parent.child_ns += span.end_ns - span.start_ns
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def request(self, request_id: str):
        """Tag the spans this thread opens inside the block with ``request_id``."""
        previous = getattr(self._local, "request_id", None)
        self._local.request_id = request_id
        try:
            yield
        finally:
            self._local.request_id = previous

    def _wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            with tracer.span(name):
                return func(*args, **kwargs)

        return traced

    # -- installing the wrappers -----------------------------------------

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` to restore them."""
        from repro.models import zoo

        for owner, attr, name in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            setattr(owner, attr, wrapped)
        builders = dict(zoo.MODEL_BUILDERS)
        self._saved.append((zoo.MODEL_BUILDERS, None, builders))
        for model, builder in builders.items():
            zoo.MODEL_BUILDERS[model] = self._wrap(builder, "models.build")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if attr is None:
                owner.update(original)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def recording(self):
        """Record spans for the duration of the block."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    # -- reading the spans -----------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds, over every recorded span."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_ns / 1e9
        return totals

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        pid = os.getpid()
        origin = min((s.start_ns for s in self.spans), default=0)
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start_ns - origin) / 1e3,
                "dur": (s.end_ns - s.start_ns) / 1e3,
                "pid": pid,
                "tid": s.thread_id,
                "args": {
                    "span_id": s.span_id,
                    "parent": s.parent_id,
                    "request": s.request_id,
                    "self_us": s.self_ns / 1e3,
                },
            }
            for s in sorted(self.spans, key=lambda s: s.start_ns)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
