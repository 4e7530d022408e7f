"""Timing and counting from outside the program.

The benchmark adds no instrumentation to the library.  It records its own
spans around the calls it makes into each layer (:class:`BenchSpans`),
times Phase A through the public ``ProgramConfig.ordering`` hook
(:class:`TimedOrdering`), and reads the per-layer counters every
:class:`~repro.runtime.ProgramReport` already carries
(:class:`ProgramProbe`).
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

import repro.runtime.program as program_module
from repro.graph.csr import CSRGraph
from repro.net.trace import TraceEvent, TraceLog
from repro.obs import Tracer
from repro.partition.ordering import OrderingMethod
from repro.partition.rcb import RCBOrdering

__all__ = ["BenchSpans", "TimedOrdering", "ProgramProbe", "program_layers"]


class BenchSpans:
    """The benchmark's own spans, on the host wall clock, kept in memory."""

    def __init__(self) -> None:
        self.log = TraceLog()
        self._tracer = Tracer(self.log, rank=0, clock_fn=time.perf_counter)

    def span(self, kind: str, label: str = ""):
        return self._tracer.span(kind, label)

    def last(self, kind: str) -> TraceEvent:
        return self.log.spans(kind)[-1]

    def durations(self, kind: str, *, parent: TraceEvent | None = None) -> list[float]:
        return [
            e.t_end - e.t_start
            for e in self.log.spans(kind)
            if parent is None or e.parent_id == parent.span_id
        ]


@dataclasses.dataclass
class TimedOrdering:
    """An :class:`OrderingMethod` that records each call as a span and
    keeps ``(graph, perm)`` so the permute step can be timed afterwards."""

    inner: OrderingMethod
    spans: BenchSpans
    calls: list[tuple[CSRGraph, np.ndarray]]
    name: str = "timed"

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        with self.spans.span("ordering", label=self.inner.name):
            perm = self.inner(graph)
        self.calls.append((graph, perm))
        return perm


def program_layers(report: Any) -> dict[str, float]:
    """Per-layer counters and virtual-time totals of one program run.

    Counters and histogram totals come from ``report.metrics`` (summed
    over ranks by the registry); the Phase D virtual times are the
    per-rank ``RankStats`` summed the same way.
    """
    counters = report.metrics["counters"]
    hists = report.metrics["histograms"]

    def hist_total(name: str) -> float:
        return float(hists.get(name, {}).get("total", 0.0))

    stats = report.rank_stats
    return {
        "net.messages_sent": counters.get("net.messages_sent", 0),
        "net.bytes_sent": counters.get("net.bytes_sent", 0),
        "net.recv_wait_vs": hist_total("net.recv_wait"),
        "net.barrier_wait_vs": hist_total("net.barrier_wait"),
        "exec.ghost_elements": counters.get("exec.ghost_elements", 0),
        "inspector.full_builds": counters.get("inspector.full_builds", 0),
        "inspector.patch_builds": counters.get("inspector.patch_builds", 0),
        "lb.checks": counters.get("lb.checks", 0),
        "lb.remaps": counters.get("lb.remaps", 0),
        "lb.remap_vs": sum(s.remap_time for s in stats),
        "cp.checkpoints": counters.get("cp.checkpoints", 0),
        "cp.checkpoint_bytes": counters.get("cp.checkpoint_bytes", 0),
        "cp.rollbacks": counters.get("cp.rollbacks", 0),
        "cp.checkpoint_vs": sum(s.checkpoint_time for s in stats),
        "cp.lost_vs": sum(s.lost_time for s in stats),
    }


class ProgramProbe:
    """A stand-in for :func:`~repro.runtime.run_program` for one pass.

    Each call runs the real function with the timed ordering hook (the
    same RCB ordering the runtime picks by default for meshes with
    coordinates) and with ``trace`` set as asked, then keeps the report's
    layer numbers and trace.  :meth:`installed` puts the probe in place
    of ``run_program`` for callers that look it up at call time, such as
    the job service.
    """

    def __init__(self, spans: BenchSpans, *, trace: bool):
        self.spans = spans
        self.trace = trace
        self.orderings: list[tuple[CSRGraph, np.ndarray]] = []
        self.layers: list[dict[str, float]] = []
        self.traces: list[TraceLog] = []
        self._run_program = program_module.run_program

    def __call__(self, graph, cluster, config, y0=None):
        if config.ordering is None and graph.coords is None:
            raise ValueError("benchmark meshes carry coordinates; got none")
        ordering = TimedOrdering(
            config.ordering if config.ordering is not None else RCBOrdering(),
            self.spans,
            self.orderings,
        )
        config = dataclasses.replace(config, ordering=ordering, trace=self.trace)
        report = self._run_program(graph, cluster, config, y0=y0)
        self.layers.append(program_layers(report))
        if report.trace is not None:
            self.traces.append(report.trace)
        return report

    @contextmanager
    def installed(self) -> Iterator["ProgramProbe"]:
        original = program_module.run_program
        program_module.run_program = self
        try:
            yield self
        finally:
            program_module.run_program = original
