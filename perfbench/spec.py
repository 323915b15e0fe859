"""What the benchmark measures, and why.

``BENCHMARK.json`` at the repository root is the one list of workloads and
metrics with their units, directions and bounds; this module reads it and
adds what that file has no room for: what each end-to-end metric means on
each workload, and for each per-layer metric the workload it is measured
on, the end-to-end metric it should move and the workloads where it should
stay flat.

Every run reports every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``), whatever the workload.  The end-to-end
metrics are therefore defined on all three workloads, each in that
workload's own unit of work: a table3-pnr pass, a serve-zipf request, a
dse-sweep batch.  A per-layer metric whose layer a workload does not
exercise reads 0 there.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

#: what each end-to-end metric measures on each workload.  Bounds of the
#: timings are wide because shared hosts drift: on a shared 2-core host,
#: identical table3-pnr passes took 9 s to 16 s within minutes.
DEFINITIONS = {
    "setup_s": (
        "cold start (a fresh interpreter imports the compiler and builds the 7 "
        "graphs; median of 3) plus the workload's own set-up: table3-pnr one "
        "small P&R compile; serve-zipf starting the runtime, serving every key "
        "once and a 200-request pre-roll (once per run); dse-sweep starting and "
        "warming a WorkerPool(2) (median over batches)"
    ),
    "success_rate": (
        "attempts that succeeded and passed every output check, over attempts "
        "(1 - error_rate; a refused request counts as failed)"
    ),
    "peak_rss_mb": "peak resident memory of the benchmark process plus its workers",
    "latency_ms.p50": (
        "median time of one operation: table3-pnr compile_s.p50 (a pass); "
        "serve-zipf a request with 8 clients in flight, over every timed "
        "request; dse-sweep the batch time"
    ),
    "latency_ms.tail": (
        "highest percentile with ten samples beyond it: table3-pnr and "
        "dse-sweep the slowest operation (fewer than eleven per run); "
        "serve-zipf the median over 150-request windows of each window's p93.3"
    ),
    "throughput_per_s": (
        "table3-pnr compiles per second; serve-zipf requests per second with 8 "
        "clients in flight; dse-sweep sweep_points_per_s"
    ),
    "table3_error": (
        "exp(mean |ln(repro/paper)|) over throughput, latency and area of the "
        "7 models at 64x, from the results each workload produced"
    ),
}

T, S, D = "table3-pnr", "serve-zipf", "dse-sweep"
_FLAT_T = (S, D)
_FLAT_S = (T, D)
_FLAT_D = (T, S)

#: per-layer metrics: name -> (workload, moves, flat on)
LAYERS = {
    "models.build_s": (T, "latency_ms.p50", _FLAT_T),
    "synthesizer.synthesize_s": (T, "latency_ms.p50", _FLAT_T),
    "synthesizer.coreop_groups": (T, "latency_ms.p50", _FLAT_T),
    "mapper.map_s": (T, "latency_ms.p50", (S,)),
    "mapper.blocks": (T, "latency_ms.p50", _FLAT_T),
    "mapper.nets": (T, "latency_ms.p50", _FLAT_T),
    "perf.evaluate_s": (T, "latency_ms.p50", _FLAT_T),
    "pnr.place_s": (T, "latency_ms.p50", _FLAT_T),
    "pnr.rrgraph_s": (T, "latency_ms.p50", _FLAT_T),
    "pnr.route_s": (T, "latency_ms.p50", _FLAT_T),
    "pnr.timing_s": (T, "latency_ms.p50", _FLAT_T),
    "config_gen.bitstream_s": (T, "latency_ms.p50", _FLAT_T),
    "core.pipeline_s": (T, "latency_ms.p50", _FLAT_T),
    "core.cache_s": (T, "latency_ms.p50", _FLAT_T),
    "pnr.place.moves_proposed": (T, "latency_ms.p50", _FLAT_T),
    "pnr.place.accept_ratio": (T, "latency_ms.p50", _FLAT_T),
    "pnr.place.final_cost": (T, "pnr.wirelength", _FLAT_T),
    "pnr.route.iterations": (T, "latency_ms.p50", _FLAT_T),
    "pnr.route.nodes_expanded": (T, "latency_ms.p50", _FLAT_T),
    "pnr.route.rerouted_nets": (T, "latency_ms.p50", _FLAT_T),
    "pnr.route.domains": (T, "latency_ms.p50", _FLAT_T),
    "pnr.route.us_per_expansion": (T, "latency_ms.p50", _FLAT_T),
    "pnr.wirelength": (T, "pnr.critical_path_ns", _FLAT_T),
    "pnr.critical_path_ns": (T, "latency_ms.p50", _FLAT_T),
    "service.submit_s": (S, "latency_ms.p50", _FLAT_S),
    "service.wait_s": (S, "latency_ms.p50", _FLAT_S),
    "worker.synthesis_s": (S, "latency_ms.p50", _FLAT_S),
    "worker.mapping_s": (S, "latency_ms.p50", _FLAT_S),
    "worker.perf_s": (S, "latency_ms.p50", _FLAT_S),
    "worker.bounds_s": (S, "latency_ms.p50", _FLAT_S),
    "cache.hit_ratio": (S, "latency_ms.p50", (T,)),
    "shared_cache.hit_ratio": (S, "latency_ms.p50", _FLAT_S),
    "service.coalesced_ratio": (S, "throughput_per_s", _FLAT_S),
    "service.retried": (S, "latency_ms.tail", _FLAT_S),
    "service.rejected": (S, "success_rate", _FLAT_S),
    "service.backlog": (S, "throughput_per_s", _FLAT_S),
    "service.latency_ms.p50.low": (S, "latency_ms.p50", _FLAT_S),
    "service.latency_ms.tail.low": (S, "latency_ms.tail", _FLAT_S),
    "service.max_rate_rps": (S, "throughput_per_s", _FLAT_S),
    "service.latency_ms.p50.high": (S, "throughput_per_s", _FLAT_S),
    "service.latency_ms.tail.high": (S, "throughput_per_s", _FLAT_S),
    "gen.late_ms": (S, "latency_ms.tail", _FLAT_S),
    "api.batch_s": (D, "throughput_per_s", _FLAT_D),
    "api.result_bytes": (D, "throughput_per_s", _FLAT_D),
    "api.pool_busy_ratio": (D, "throughput_per_s", _FLAT_D),
    "partition.partition_s": (D, "throughput_per_s", _FLAT_D),
    "partition.cut_size": (D, "throughput_per_s", _FLAT_D),
    "trace.overhead_ms": (None, "latency_ms.p50", ()),
}

#: per-layer metrics that should also move an end-to-end metric on a
#: second workload: name -> (workload, moves)
ALSO_MOVES = {
    "mapper.map_s": (D, "throughput_per_s"),
    "cache.hit_ratio": (D, "throughput_per_s"),
}

#: Table 3 points left out of table3-pnr, with the measured reason.
EXCLUDED_POINTS = {
    "AlexNet": "routing did not finish in 13.5 min at channel width 24, nor in 400 s at width 64",
    "VGG16": "2352 blocks; not timed, left out on the strength of the AlexNet result",
    "ResNet152": "1675 blocks; not timed, left out on the strength of the AlexNet result",
    "GoogLeNet@64": "1982 blocks",
    "CIFAR-VGG17@64": "RoutingError at channel width 24",
}
