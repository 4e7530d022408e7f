"""Tests of the benchmark's own accounting.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.net.trace import TraceEvent, TraceLog

from harness import END_TO_END, PER_LAYER
from probes import BenchSpans, ProgramProbe
from selftime import SPAN_KINDS, TIMEBASES, self_times, total_self_times
from workloads import CHURN_RECOVER


def _span(kind, span_id, parent_id, t0, t1, w0, w1, rank=0):
    return TraceEvent(
        kind, rank, t0, t1, span_id=span_id, parent_id=parent_id,
        wall_start=w0, wall_end=w1,
    )


def test_children_are_merged_and_clipped_to_the_parent():
    log = TraceLog()
    log.extend([
        _span("program", 0, -1, 0.0, 10.0, 100.0, 120.0),
        # Overlapping children count once; the part past the parent's
        # end does not count at all.
        _span("epoch", 1, 0, 1.0, 4.0, 101.0, 104.0),
        _span("epoch", 2, 0, 3.0, 6.0, 103.0, 106.0),
        _span("executor", 3, 0, 9.0, 12.0, 119.0, 122.0),
        _span("executor", 4, 1, 2.0, 3.0, 102.0, 103.5),
    ])
    got = self_times(log)[0]
    assert got["untraced"] == {"vs": 4.0, "host_s": 14.0}
    assert got["epoch"] == {"vs": 5.0, "host_s": 4.5}
    assert got["executor"] == {"vs": 4.0, "host_s": 4.5}


def test_ranks_without_a_program_span_are_skipped():
    log = TraceLog()
    log.record(_span("job", 0, -1, 0.0, 1.0, -1.0, -1.0, rank=-1))
    assert self_times(log) == {}
    totals = total_self_times([log])
    assert set(totals) == {
        f"span.{k}.self_{tb}" for k in SPAN_KINDS for tb in TIMEBASES
    }
    assert not any(totals.values())


@pytest.fixture(scope="module")
def churn_trace() -> TraceLog:
    """A small churn-recover run: every span kind the benchmark reports."""
    workload = dataclasses.replace(
        CHURN_RECOVER,
        vertices=900,
        config=dataclasses.replace(CHURN_RECOVER.config, iterations=40),
    )
    spans = BenchSpans()
    inputs = workload.setup(7, spans)
    probe = ProgramProbe(spans, trace=True)
    workload.run(inputs, probe)
    (trace,) = probe.traces
    return trace


def test_self_times_sum_to_the_program_span_per_rank(churn_trace):
    per_rank = self_times(churn_trace)
    programs = {e.rank: e for e in churn_trace.spans("program")}
    assert set(per_rank) == set(programs) and len(programs) == 5
    for rank, per_kind in per_rank.items():
        assert set(per_kind) <= set(SPAN_KINDS)
        program = programs[rank]
        expected = {
            "vs": program.t_end - program.t_start,
            "host_s": program.wall_end - program.wall_start,
        }
        for tb in TIMEBASES:
            assert all(times[tb] >= 0.0 for times in per_kind.values())
            total = sum(times[tb] for times in per_kind.values())
            assert total == pytest.approx(expected[tb], rel=1e-9, abs=1e-12)


def test_churn_run_covers_the_phase_d_and_recovery_kinds(churn_trace):
    kinds = {k for per_kind in self_times(churn_trace).values() for k in per_kind}
    assert {"executor", "inspector", "lb-check", "checkpoint", "recovery",
            "epoch", "membership-poll", "untraced"} <= kinds


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
