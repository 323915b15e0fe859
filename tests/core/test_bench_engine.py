"""The parallel-P&R engine speedup gate of the benchmark harness."""

from __future__ import annotations

from repro.bench import (
    PNR_SPEEDUP_MIN_BLOCKS,
    BenchEntry,
    BenchReport,
    _measure_engine_ratio,
    compare_reports,
    run_bench,
)


def _entry(serial=None, parallel=None, model="M", chips=1) -> BenchEntry:
    return BenchEntry(
        model=model,
        duplication_degree=1,
        channel_width=16,
        seed=0,
        num_chips=chips,
        serial_place_route_seconds=serial,
        parallel_place_route_seconds=parallel,
    )


class TestEngineSpeedupGate:
    def test_below_floor_is_a_regression(self):
        current = BenchReport(entries=[_entry(serial=4.0, parallel=2.0)])
        regressions = compare_reports(current, BenchReport(), pnr_min_speedup=3.0)
        assert any("parallel-engine" in r and "2.00x" in r for r in regressions)

    def test_at_or_above_floor_is_clean(self):
        current = BenchReport(entries=[_entry(serial=6.0, parallel=2.0)])
        assert compare_reports(current, BenchReport(), pnr_min_speedup=3.0) == []

    def test_aggregated_over_measured_entries(self):
        # 4x and 2.5x entries aggregate by total seconds, not by averaging
        current = BenchReport(
            entries=[
                _entry(serial=8.0, parallel=2.0, model="big"),
                _entry(serial=2.5, parallel=1.0, model="mid", chips=2),
            ]
        )
        # (8.0 + 2.5) / (2.0 + 1.0) = 3.5 -> clean at the 3.0 floor
        assert compare_reports(current, BenchReport(), pnr_min_speedup=3.0) == []
        regressions = compare_reports(current, BenchReport(), pnr_min_speedup=4.0)
        assert any("3.50x" in r for r in regressions)

    def test_gate_skipped_without_measurements(self):
        # pre-engine reports (and small-models-only runs) lack the
        # reference fields entirely: the gate must not fire
        current = BenchReport(entries=[_entry()])
        assert compare_reports(current, BenchReport(), pnr_min_speedup=100.0) == []

    def test_gate_reads_current_run_only(self):
        # the speedup is a same-run ratio: a slow baseline must not mask it
        baseline = BenchReport(entries=[_entry(serial=100.0, parallel=1.0)])
        current = BenchReport(entries=[_entry(serial=2.0, parallel=2.0)])
        regressions = compare_reports(current, baseline, pnr_min_speedup=3.0)
        assert any("parallel-engine" in r for r in regressions)


class TestReportCompatibility:
    def test_pre_engine_payload_parses(self):
        # a report written before the parallel engine has no
        # engine-reference fields; it must load with None defaults
        old = {
            "model": "LeNet",
            "duplication_degree": 1,
            "channel_width": 24,
            "seed": 0,
            "stage_seconds": {"pnr": 1.0},
            "quality": {"total_wirelength": 90.0},
        }
        entry = BenchEntry.from_dict(old)
        assert entry.serial_place_route_seconds is None
        assert entry.parallel_place_route_seconds is None
        assert entry.engine_speedup is None

    def test_engine_fields_round_trip(self):
        entry = _entry(serial=3.0, parallel=1.0)
        again = BenchEntry.from_dict(entry.to_dict())
        assert again.serial_place_route_seconds == 3.0
        assert again.parallel_place_route_seconds == 1.0
        assert again.engine_speedup == 3.0


class TestEngineReferenceMeasurement:
    def test_small_netlists_are_not_measured(self):
        # the bench zoo's MLP netlist is far below the size bar: the
        # entry's reference fields stay None and the gate skips it
        report = run_bench(
            models=["MLP-500-100"], channel_width=16, partition_chips=()
        )
        (entry,) = report.entries
        assert sum(entry.blocks.values()) < PNR_SPEEDUP_MIN_BLOCKS
        assert entry.serial_place_route_seconds is None
        assert entry.parallel_place_route_seconds is None

    def test_measure_ratio_size_bar(self):
        class FakeNetlist:
            def __init__(self, n):
                self.blocks = {f"b{i}": None for i in range(n)}

        assert _measure_engine_ratio(
            [FakeNetlist(PNR_SPEEDUP_MIN_BLOCKS - 1)], 16, 0
        ) == (None, None)
