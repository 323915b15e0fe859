"""The three workloads: table3-pnr, serve-zipf and dse-sweep.

Each workload drives the program only through its public entry points
(``FPSACompiler.compile``, ``ServingRuntime.submit``/``result`` and
``deploy_many`` on a ``WorkerPool``), checks every output it gets, and
returns an :class:`Outcome` holding the contract metrics (``e2e``), the
per-layer metrics of a traced run (``layer``) and a report that keeps the
workload's metrics under their own names together with the sample counts
and tail percentiles behind them.

Untraced runs measure the end-to-end metrics.  A traced run alternates
untraced and traced operations (table3-pnr passes, serve-zipf closed-loop
windows, dse-sweep batches) and records spans over the traced ones; the
difference between the two medians is the tracing overhead.  serve-zipf's
traced run then offers the traced open-loop ladder.
"""

from __future__ import annotations

import gc
import math
import pickle
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import measure
from repro.fuzz.oracle import strip_seconds
from spec import EXCLUDED_POINTS, PER_LAYER
from tracer import Tracer


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    scratch: Path
    tracer: Tracer | None = None

    def recording(self, on: bool = True):
        """Record spans inside the block when this is a traced run."""
        return self.tracer.recording() if self.tracer and on else nullcontext()

    def request(self, request_id: str):
        """Tag the spans opened inside the block with ``request_id``."""
        return self.tracer.request(request_id) if self.tracer else nullcontext()


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


# -- shared checks --------------------------------------------------------


def summary_of(result) -> dict:
    from repro.service.schemas import ResultSummary

    return strip_seconds(ResultSummary.from_result(result).to_dict())


def verify_result(result) -> None:
    """Re-run the IR verifiers over a result's artifacts (raises on a
    violation), including each shard's mapping of a multi-chip result."""
    from repro.analysis.verify import verify_artifact, verify_artifacts

    artifacts = {
        name: getattr(result, name)
        for name in ("graph", "coreops", "partition", "mapping", "pnr")
        if getattr(result, name, None) is not None
    }
    verify_artifacts(artifacts, ctx=result)
    for shard in result.shard_results or ():
        verify_artifact("mapping", shard.mapping)
        verify_artifact("pnr", shard.pnr)


def table3_error(performance: dict[str, dict]) -> float:
    """exp(mean |ln(repro/paper)|) over throughput, latency and area of the
    seven Table 3 models at 64x; ``performance`` maps model -> summary
    performance section."""
    from repro.models.zoo import PAPER_TABLE3

    logs = []
    for model in inputs.TABLE3_MODELS:
        ours, paper = performance[model], PAPER_TABLE3[model]
        throughput = ours["throughput_samples_per_s"] / paper.throughput_samples_per_s
        logs.append(abs(math.log(throughput)))
        logs.append(abs(math.log(ours["latency_us"] / paper.latency_us)))
        logs.append(abs(math.log(ours["area_mm2"] / paper.area_mm2)))
    return math.exp(sum(logs) / len(logs))


def cold_start(run: Run, repeats: int = 3) -> float:
    return measure.median(
        [measure.cold_start_seconds(run.root / "src") for _ in range(repeats)]
    )


def layer_metrics(run: Run, ops: int, values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric: span self time per operation for the layers
    the tracer saw, the workload's own ``values``, 0 for the rest."""
    spans = run.tracer.self_seconds() if run.tracer else {}
    out = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        span = name[: -len("_s")] if name.endswith("_s") else None
        if span in spans:
            out[name] = spans[span] / ops
    out.update(values)
    return out


def latency_metrics(op_seconds: list[float]) -> tuple[dict, dict]:
    tail = measure.tail([s * 1e3 for s in op_seconds])
    e2e = {
        "latency_ms.p50": measure.median(op_seconds) * 1e3,
        "latency_ms.tail": tail["value"],
    }
    return e2e, tail


# -- table3-pnr -----------------------------------------------------------


def _table3_pass(run: Run, order, outcome: Outcome):
    """Compile one pass on a fresh stage cache; returns (seconds, results)
    where a failed compile's result is ``None``."""
    from repro import FPSACompiler, StageCache
    from repro.models.zoo import build_model

    compiler = FPSACompiler(cache=StageCache())
    results = []
    started = time.perf_counter()
    for kind, model, duplication in order:
        with run.request(f"{kind}:{model}@{duplication}"):
            try:
                graph = build_model(model)
                if kind == "pnr":
                    result = compiler.compile(
                        graph, duplication, run_pnr=True, emit_bitstream=True
                    )
                else:
                    result = compiler.compile(graph, duplication)
            except Exception as exc:  # noqa: BLE001 - a failed compile is counted, not fatal
                outcome.fail(f"{kind} {model}@{duplication}: {type(exc).__name__}: {exc}")
                result = None
        results.append(result)
    return time.perf_counter() - started, results


def _table3_check(order, results, outcome: Outcome):
    """Verify one pass; returns its repeatable signature (the seconds-free
    summaries and the Table 3 error) and its P&R results, or ``None``s."""
    signature, front, pnr = [], {}, {}
    ok = True
    for (kind, model, duplication), result in zip(order, results, strict=True):
        if result is None:
            ok = False
            continue
        try:
            verify_result(result)
            if kind == "pnr" and (
                result.pnr is None or result.bitstream is None or not result.pnr.routing.legal
            ):
                raise ValueError("missing or illegal P&R / bitstream")
        except Exception as exc:  # noqa: BLE001 - any violation fails the output check
            outcome.fail(f"check {kind} {model}@{duplication}: {type(exc).__name__}: {exc}")
            ok = False
            continue
        summary = summary_of(result)
        signature.append(summary)
        if kind == "front":
            front[model] = summary["performance"]
        else:
            pnr[model] = result
    if not ok:
        return None, None
    return (signature, table3_error(front)), pnr


def _pnr_counts(pnr_results: dict, results) -> dict[str, float]:
    place = [r.pnr.placement_stats for r in pnr_results.values()]
    routing = [r.pnr.routing for r in pnr_results.values()]
    proposed = sum(s.moves_proposed for s in place if s is not None)
    accepted = sum(s.moves_accepted for s in place if s is not None)
    stats = [r.cache_stats for r in results if r is not None and r.cache_stats is not None]
    hits = sum(s.hits for s in stats)
    lookups = sum(s.hits + s.misses for s in stats)
    netlists = [r.mapping.netlist for r in results if r is not None and r.mapping is not None]
    return {
        "synthesizer.coreop_groups": float(
            sum(len(r.coreops.groups()) for r in results if r is not None)
        ),
        "mapper.blocks": float(sum(len(n.blocks) for n in netlists)),
        "mapper.nets": float(sum(len(n.nets) for n in netlists)),
        "pnr.place.moves_proposed": float(proposed),
        "pnr.place.accept_ratio": accepted / proposed if proposed else 0.0,
        "pnr.place.final_cost": float(sum(s.final_cost for s in place if s is not None)),
        "pnr.route.iterations": float(sum(r.iterations for r in routing)),
        "pnr.route.nodes_expanded": float(sum(r.nodes_expanded for r in routing)),
        "pnr.route.rerouted_nets": float(sum(r.rerouted_nets for r in routing)),
        "pnr.route.domains": float(sum(r.domains for r in routing)),
        "pnr.wirelength": float(sum(r.pnr.total_wirelength for r in pnr_results.values())),
        "pnr.critical_path_ns": sum(r.pnr.critical_path_ns for r in pnr_results.values()),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
    }


def table3_pnr(run: Run) -> Outcome:
    from repro import FPSACompiler, StageCache
    from repro.models.zoo import build_model

    outcome = Outcome()
    order = inputs.table3_order(run.seed)
    # set-up: a fresh interpreter's cold start, then one small P&R compile
    # so lazy imports and first-call work finish before the timed passes
    started = time.perf_counter()
    FPSACompiler(cache=StageCache()).compile(build_model("LeNet"), 1, run_pnr=True)
    setup_s = cold_start(run) + time.perf_counter() - started

    untraced, traced, signatures = [], [], []
    counts: dict[str, float] = {}
    while True:
        tracing = run.trace and len(untraced) > len(traced)
        with run.recording(tracing):
            seconds, results = _table3_pass(run, order, outcome)
        outcome.attempted += len(order)
        (traced if tracing else untraced).append(seconds)
        signature, pnr_results = _table3_check(order, results, outcome)
        if signature is not None:
            signatures.append(signature)
            if signatures[0] != signature:
                outcome.fail("pass results differ from the first pass", len(order))
            counts = _pnr_counts(pnr_results, results)
        del results, pnr_results
        if sum(untraced) + sum(traced) >= run.seconds and len(untraced) + len(traced) >= 2:
            break

    e2e, tail = latency_metrics(untraced)
    e2e["setup_s"] = setup_s
    e2e["throughput_per_s"] = len(order) * len(untraced) / sum(untraced)
    error = signatures[0][1] if signatures else float("nan")
    e2e["table3_error"] = error
    outcome.e2e = e2e
    outcome.report = {
        "compile_s.p50": {"value": measure.median(untraced), "unit": "s"},
        "compile_s.tail": {**tail, "value": tail["value"] / 1e3, "unit": "s"},
        "wirelength": {"value": counts.get("pnr.wirelength"), "unit": "tracks"},
        "critical_path_ns": {"value": counts.get("pnr.critical_path_ns"), "unit": "ns"},
        "table3_error": {"value": error, "unit": "ratio"},
        "pass_seconds": untraced,
        "points": order,
        "excluded_points": EXCLUDED_POINTS,
    }
    if run.trace:
        route_s = run.tracer.self_seconds().get("pnr.route", 0.0) / len(traced)
        expanded = counts.get("pnr.route.nodes_expanded", 0.0)
        counts["pnr.route.us_per_expansion"] = route_s * 1e6 / expanded if expanded else 0.0
        counts["trace.overhead_ms"] = (measure.median(traced) - measure.median(untraced)) * 1e3
        outcome.layer = layer_metrics(run, len(traced), counts)
        outcome.report["traced_pass_seconds"] = traced
    return outcome


# -- serve-zipf -----------------------------------------------------------

#: the timed part of every run: SERVE_CLIENTS client threads in a closed
#: loop, each sending its next request when its previous one finished,
#: cut into windows of SERVE_WINDOW requests; the run reports the median
#: over every timed request, the median window's tail and the requests
#: per second over all windows.  (An open-loop low-rate p50 swung from 13
#: to 25 ms between runs on the shared 2-core host; the closed loop is
#: bound by throughput, not by wake-up latency, and held steadier.)
SERVE_CLIENTS = 8
SERVE_WINDOW = 150
SERVE_MIN_WINDOWS = 3
#: closed-loop requests served in set-up, so both workers' memory tiers
#: hold the hot keys before timing starts.
SERVE_PREROLL = 200
#: traced runs also offer the open-loop ladder: a low step, then rising
#: rates (req/s) until one fails.
SERVE_LOW_RATE = 30.0
SERVE_LOW_REQUESTS = 300
SERVE_RATES = (40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 120.0, 140.0)
#: requests offered per ladder step (a fixed count keeps each step's tail
#: at the same percentile from run to run).
SERVE_STEP_REQUESTS = 40
#: tail latency limit of a sustained step.
SERVE_LIMIT_MS = 500.0
#: growth of the median in-flight count, first to last third of a step,
#: that marks a growing backlog.
SERVE_BACKLOG_GROWTH = 4


def _request(model: str, duplication: int):
    from repro.service import CompileRequest

    return CompileRequest(model=model, duplication_degree=duplication)


def _serve_step(run: Run, runtime, stream: int, rate: float, count: int, tag: str):
    """Offer one step open-loop; returns the per-request records."""
    manager = runtime.manager
    plan = inputs.serve_step(run.seed, stream, rate, count)
    records = []
    origin = time.monotonic() + 0.01
    for index, (offset, model, duplication) in enumerate(plan):
        request = _request(model, duplication)
        due = origin + offset
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        stats = manager.stats
        inflight = stats.submitted - stats.completed - stats.failed
        with run.request(f"{tag}-{index}"):
            try:
                job = runtime.submit(request)
            except Exception as exc:  # noqa: BLE001 - a refused request is a failed attempt
                job = exc
        records.append(
            {
                "key": (model, duplication),
                "due": due,
                "late_s": sent - due,
                "submit_s": time.monotonic() - sent,
                "inflight": inflight,
                "job": job,
            }
        )
    for record in records:
        job = record.pop("job")
        if isinstance(job, Exception):
            record["error"] = f"refused: {type(job).__name__}: {job}"
            continue
        try:
            response = runtime.result(job, timeout=120)
        except Exception as exc:  # noqa: BLE001 - an expired request is a failed attempt
            record["error"] = f"{type(exc).__name__}: {exc}"
            continue
        record["latency_s"] = record["late_s"] + manager.status(job).seconds
        record["response"] = response
        if not response.ok:
            record["error"] = f"{response.error.code}: {response.error.message}"
    return records


def _step_stats(rate: float, records: list[dict]) -> dict:
    latencies = [r["latency_s"] * 1e3 for r in records if "latency_s" in r]
    third = max(1, len(records) // 3)
    first = measure.median([r["inflight"] for r in records[:third]])
    last = measure.median([r["inflight"] for r in records[-third:]])
    growing = last - first >= SERVE_BACKLOG_GROWTH
    tail = measure.tail(latencies) if latencies else {"value": math.inf}
    failed = sum(1 for r in records if "error" in r)
    return {
        "rate": rate,
        "requests": len(records),
        "p50_ms": measure.median(latencies) if latencies else math.inf,
        "tail": tail,
        "backlog": sum(r["inflight"] for r in records) / len(records),
        "backlog_growing": growing,
        "failed": failed,
        "sustained": tail["value"] <= SERVE_LIMIT_MS and not growing and failed == 0,
    }


def _offer(run: Run, runtime, steps: list[dict], rate: float, count: int) -> dict:
    """Offer one ladder step and append its statistics (with its records)."""
    stream = len(steps)
    records = _serve_step(run, runtime, stream, rate, count, f"s{stream}")
    steps.append({**_step_stats(rate, records), "records": records})
    return steps[-1]


def _climb(run: Run, runtime, steps: list[dict]) -> float:
    """Climb the ladder above a sustained low step until a rate fails;
    returns the highest sustained rate."""
    good = SERVE_LOW_RATE
    for rate in SERVE_RATES:
        if not _offer(run, runtime, steps, rate, SERVE_STEP_REQUESTS)["sustained"]:
            break
        good = rate
    return good


def _serve_closed_loop(run: Run, runtime, stream: int, count: int, clients: int):
    """Serve ``count`` requests from ``clients`` threads, each sending its
    next request as soon as its previous one finished; returns (seconds,
    records with their submit-to-finish latency or their error)."""
    plan = inputs.serve_step(run.seed, stream, 1.0, count)
    records = [{"key": (model, duplication)} for _, model, duplication in plan]
    indices = iter(range(count))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                index = next(indices, None)
            if index is None:
                return
            record = records[index]
            with run.request(f"closed-{stream}-{index}"):
                try:
                    job = runtime.submit(_request(*record["key"]))
                    record["response"] = runtime.result(job, timeout=120)
                    record["latency_s"] = runtime.manager.status(job).seconds
                except Exception as exc:  # noqa: BLE001 - a refused or expired request is a failed attempt
                    record["error"] = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=client) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, records


def _closed_window(run: Run, runtime, stream: int) -> dict:
    seconds, records = _serve_closed_loop(run, runtime, stream, SERVE_WINDOW, SERVE_CLIENTS)
    latencies = [r["latency_s"] * 1e3 for r in records if "latency_s" in r]
    return {
        "seconds": seconds,
        "latencies": latencies,
        "p50_ms": measure.median(latencies) if latencies else math.inf,
        "tail": measure.tail(latencies) if latencies else {"value": math.inf},
        "records": records,
    }


def serve_zipf(run: Run) -> Outcome:
    from repro import FPSACompiler, StageCache
    from repro.models.zoo import build_model
    from repro.service.runtime import ServingRuntime

    outcome = Outcome()
    cold = cold_start(run)
    cache_dir = run.scratch / "serve-shared-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    steps, windows, traced = [], [], []
    started = time.perf_counter()
    runtime = ServingRuntime(max_workers=2, shared_cache_dir=str(cache_dir))
    try:
        # set-up: serve every key once, then a closed-loop pre-roll of the
        # workload's own key mix that loads the hot keys into both
        # workers' memory tier
        warm_keys = inputs.serve_keys()
        warm = runtime.serve_batch([_request(m, d) for m, d in warm_keys], timeout=120)
        records = [
            {"key": key, "response": response}
            for key, response in zip(warm_keys, warm, strict=True)
        ]
        records += _serve_closed_loop(run, runtime, -1, SERVE_PREROLL, SERVE_CLIENTS)[1]
        setup_s = cold + time.perf_counter() - started
        spent = 0.0
        while spent < run.seconds or len(windows) < SERVE_MIN_WINDOWS:
            tracing = run.trace and len(windows) > len(traced)
            with run.recording(tracing):
                window = _closed_window(run, runtime, -10 - len(windows) - len(traced))
            (traced if tracing else windows).append(window)
            spent += window["seconds"]
        if run.trace:
            before = dict(vars(runtime.manager.stats))
            with run.recording():
                low = _offer(run, runtime, steps, SERVE_LOW_RATE, SERVE_LOW_REQUESTS)
                max_rate = _climb(run, runtime, steps) if low["sustained"] else 0.0
            after = dict(vars(runtime.manager.stats))
    finally:
        runtime.close()
        shutil.rmtree(cache_dir, ignore_errors=True)

    # references: in-process compiles of every key served after the
    # every-key warm-up, and of the Table 3 keys; outside the timed window
    # and after the workers are gone.  Warm-up responses of other keys
    # are checked for their status.
    ladder_records = [r for step in steps for r in step["records"]]
    records += [r for w in windows + traced for r in w["records"]] + ladder_records
    table3_keys = {(m, inputs.TABLE3_DUPLICATION) for m in inputs.TABLE3_MODELS}
    keys = sorted({r["key"] for r in records[len(warm_keys) :]} | table3_keys)
    compiler = FPSACompiler(cache=StageCache(max_entries=16))
    references = {(m, d): summary_of(compiler.compile(build_model(m), d)) for m, d in keys}
    outcome.attempted += len(records)
    for record in records:
        error, response = record.get("error"), record.get("response")
        if error is None and not response.ok:
            error = f"{response.error.code}: {response.error.message}"
        reference = references.get(record["key"])
        if error is None and reference is not None:
            if strip_seconds(response.summary.to_dict()) != reference:
                error = "summary differs from the in-process reference"
        if error is not None:
            outcome.fail(f"request {record['key']}: {error}")

    error = table3_error(
        {m: references[(m, inputs.TABLE3_DUPLICATION)]["performance"] for m in inputs.TABLE3_MODELS}
    )
    latencies = [ms for w in windows for ms in w["latencies"]]
    served = len(latencies)
    p50 = measure.median(latencies) if latencies else math.inf
    outcome.e2e = {
        "latency_ms.p50": p50,
        "latency_ms.tail": measure.median([w["tail"]["value"] for w in windows]),
        "throughput_per_s": served / sum(w["seconds"] for w in windows),
        "setup_s": setup_s,
        "table3_error": error,
    }
    outcome.report = {
        "latency_ms.p50.closed": {"value": p50, "unit": "ms", "samples": served},
        "latency_ms.tail.closed": {
            "value": outcome.e2e["latency_ms.tail"],
            "unit": "ms",
            "percentile": windows[0]["tail"].get("percentile"),
            "samples": f"{len(windows)} windows x {SERVE_WINDOW}",
        },
        "capacity_rps": {"value": outcome.e2e["throughput_per_s"], "unit": "req/s"},
        "table3_error": {"value": error, "unit": "ratio"},
        "window_seconds": [w["seconds"] for w in windows],
        "window_p50_ms": [w["p50_ms"] for w in windows],
        "distinct_keys_served": len(keys),
    }
    if run.trace:
        sustained = [s for s in steps if s["sustained"] and s["rate"] == max_rate]
        high = sustained[-1] if sustained else low
        outcome.report.update(
            {
                "latency_ms.p50.low": {"value": low["p50_ms"], "unit": "ms"},
                "latency_ms.tail.low": {**low["tail"], "unit": "ms"},
                "latency_ms.p50.high": {"value": high["p50_ms"], "unit": "ms"},
                "latency_ms.tail.high": {**high["tail"], "unit": "ms", "rate": high["rate"]},
                "max_rate_rps": {"value": max_rate, "unit": "req/s"},
                "steps": [{k: v for k, v in s.items() if k != "records"} for s in steps],
                "traced_window_p50_ms": [w["p50_ms"] for w in traced],
            }
        )
        values = _serve_layers(ladder_records, low, high, before, after)
        values["service.max_rate_rps"] = max_rate
        values["trace.overhead_ms"] = measure.median(
            [w["p50_ms"] for w in traced]
        ) - measure.median([w["p50_ms"] for w in windows])
        outcome.layer = layer_metrics(run, len(ladder_records), values)
    return outcome


def _serve_layers(
    records: list[dict], low: dict, high: dict, before: dict, after: dict
) -> dict:
    """Per-request service and worker figures of the traced ladder."""
    served = [r for r in records if "response" in r]
    passes: dict[str, float] = {}
    hits = misses = shared_hits = shared_misses = 0
    wait = []
    for record in served:
        timings = record["response"].timings
        for entry in timings.passes:
            passes[entry.name] = passes.get(entry.name, 0.0) + entry.seconds
        # every in-memory miss falls through to the shared tier, so the
        # in-memory tier saw cache_hits + shared misses lookups
        hits += timings.cache_hits - timings.shared_cache_hits
        misses += timings.shared_cache_hits + timings.shared_cache_misses
        shared_hits += timings.shared_cache_hits
        shared_misses += timings.shared_cache_misses
        wait.append(record["latency_s"] - timings.total_seconds)
    n = max(1, len(served))
    values = {f"worker.{name}_s": seconds / n for name, seconds in passes.items()}
    values = {k: v for k, v in values.items() if k in PER_LAYER}
    submitted = max(1, after["submitted"] - before["submitted"])
    values.update(
        {
            "service.submit_s": sum(r["submit_s"] for r in records) / len(records),
            "service.wait_s": sum(wait) / n,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "shared_cache.hit_ratio": (
                shared_hits / (shared_hits + shared_misses) if shared_hits + shared_misses else 0.0
            ),
            "service.coalesced_ratio": (after["coalesced"] - before["coalesced"]) / submitted,
            "service.retried": float(after["retried"] - before["retried"]),
            "service.rejected": float(after["rejected"] - before["rejected"]),
            "service.backlog": high["backlog"],
            "service.latency_ms.p50.low": low["p50_ms"],
            "service.latency_ms.tail.low": low["tail"]["value"],
            "service.latency_ms.p50.high": high["p50_ms"],
            "service.latency_ms.tail.high": high["tail"]["value"],
            "gen.late_ms": sum(r["late_s"] for r in records) / len(records) * 1e3,
        }
    )
    return values


# -- dse-sweep ------------------------------------------------------------

SWEEP_WORKERS = 2


def _sweep_batch(run: Run, batch: int, tracing: bool, outcome: Outcome):
    from repro import DeployPoint, StageCache
    from repro.core import api

    points = inputs.sweep_points(run.seed, batch)
    deploy_points = [
        DeployPoint(m, d, compile_kwargs={"num_chips": c} if c else {}) for m, d, c in points
    ]
    gc.collect()
    started = time.perf_counter()
    pool = api.WorkerPool(SWEEP_WORKERS, shared_cache_dir=False)
    try:
        pool.map(abs, range(4 * SWEEP_WORKERS))
        pool_setup = time.perf_counter() - started
        # the workers are forked before recording starts, so they do not
        # record spans nobody reads
        with run.recording(tracing), run.request(f"batch-{batch}"):
            started = time.perf_counter()
            try:
                results = api.deploy_many(deploy_points, pool=pool, cache=StageCache())
            except Exception as exc:  # noqa: BLE001 - a failed batch fails every point
                outcome.fail(f"batch {batch}: {type(exc).__name__}: {exc}", len(points))
                results = None
            batch_s = time.perf_counter() - started
    finally:
        pool.shutdown(wait=True)
    return points, results, pool_setup, batch_s


def dse_sweep(run: Run) -> Outcome:
    outcome = Outcome()
    cold = cold_start(run)
    untraced, traced, setups = [], [], []
    reference: dict = {}
    layer = {"busy": [], "bytes": [], "partition": [], "cut": [], "map": [], "hits": [0, 0]}
    error = float("nan")
    batch = 0
    while True:
        tracing = run.trace and batch % 2 == 1
        points, results, pool_setup, batch_s = _sweep_batch(run, batch, tracing, outcome)
        outcome.attempted += len(points)
        setups.append(pool_setup)
        (traced if tracing else untraced).append(batch_s)
        if results is not None:
            performance = {}
            worker_s = partition_s = map_s = cut = 0.0
            for point, result in zip(points, results, strict=True):
                try:
                    verify_result(result)
                except Exception as exc:  # noqa: BLE001 - any violation fails the output check
                    outcome.fail(f"check {point}: {type(exc).__name__}: {exc}")
                    continue
                summary = summary_of(result)
                if reference.setdefault(point, summary) != summary:
                    outcome.fail(f"{point}: summary differs from batch 0")
                model, duplication, chips = point
                if duplication == inputs.TABLE3_DUPLICATION and chips is None:
                    performance[model] = summary["performance"]
                for timing in result.timings or ():
                    worker_s += timing.seconds
                    if timing.name == "partition":
                        partition_s += timing.seconds
                    elif timing.name.split("@")[0] == "mapping":
                        map_s += timing.seconds
                if result.partition is not None:
                    cut += result.partition.cut_size
                if result.cache_stats is not None:
                    layer["hits"][0] += result.cache_stats.hits
                    layer["hits"][1] += result.cache_stats.hits + result.cache_stats.misses
            if len(performance) == len(inputs.TABLE3_MODELS):
                error = table3_error(performance)
            if tracing:
                layer["busy"].append(worker_s / (batch_s * SWEEP_WORKERS))
                layer["bytes"].append(len(pickle.dumps(results)))
                layer["partition"].append(partition_s)
                layer["map"].append(map_s)
                layer["cut"].append(cut)
        del results
        batch += 1
        if sum(untraced) + sum(traced) >= run.seconds and batch >= 2:
            break

    e2e, tail = latency_metrics(untraced)
    points_per_s = len(points) / measure.median(untraced)
    e2e.update(
        setup_s=cold + measure.median(setups),
        throughput_per_s=points_per_s,
        table3_error=error,
    )
    outcome.e2e = e2e
    outcome.report = {
        "sweep_points_per_s": {"value": points_per_s, "unit": "points/s"},
        "table3_error": {"value": error, "unit": "ratio"},
        "batch_seconds": untraced,
        "batch_tail": tail,
        "pool_setup_seconds": setups,
        "points": len(points),
    }
    if run.trace:
        hits, lookups = layer["hits"]
        values = {
            "api.batch_s": measure.median(traced),
            "api.result_bytes": measure.median(layer["bytes"]),
            "api.pool_busy_ratio": measure.median(layer["busy"]),
            "partition.partition_s": measure.median(layer["partition"]),
            "partition.cut_size": measure.median(layer["cut"]),
            "mapper.map_s": measure.median(layer["map"]),
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "trace.overhead_ms": (measure.median(traced) - measure.median(untraced)) * 1e3,
        }
        outcome.layer = layer_metrics(run, len(traced), values)
        outcome.report["traced_batch_seconds"] = traced
    return outcome


WORKLOAD_FUNCS = {
    "table3-pnr": table3_pnr,
    "serve-zipf": serve_zipf,
    "dse-sweep": dse_sweep,
}
