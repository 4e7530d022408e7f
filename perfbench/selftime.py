"""Self-time accounting over the program's hierarchical spans.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Summed over every span under one rank's
``program`` span, self times partition that span exactly, in both
timebases: the world clock (virtual seconds) and the host wall clock.
The ``program`` span's own self time is the part of the run that no
finer span covers; it is reported under the name ``untraced``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.net.trace import TraceEvent, TraceLog

__all__ = ["SPAN_KINDS", "TIMEBASES", "self_times", "total_self_times"]

#: The span kinds the benchmark reports, plus the ``untraced`` remainder.
SPAN_KINDS = (
    "executor",
    "inspector",
    "lb-check",
    "remap",
    "checkpoint",
    "recovery",
    "epoch",
    "membership-poll",
    "untraced",
)

#: ``vs``: world clock (virtual seconds); ``host_s``: host wall clock.
TIMEBASES = ("vs", "host_s")


def _interval(e: TraceEvent, timebase: str) -> tuple[float, float]:
    if timebase == "vs":
        return e.t_start, e.t_end
    return e.wall_start, e.wall_end


def _covered(lo: float, hi: float, parts: Iterable[tuple[float, float]]) -> float:
    """Length of the union of *parts*, each clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(parts):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(trace: TraceLog) -> dict[int, dict[str, dict[str, float]]]:
    """Per rank, per span kind, the self time in each timebase.

    Only ranks that recorded a ``program`` span are reported (the
    service track carries none).  Returns
    ``{rank: {kind: {"vs": seconds, "host_s": seconds}}}``.
    """
    by_rank: dict[int, list[TraceEvent]] = defaultdict(list)
    for e in trace.spans():
        by_rank[e.rank].append(e)
    out: dict[int, dict[str, dict[str, float]]] = {}
    for rank, spans in sorted(by_rank.items()):
        if not any(e.kind == "program" for e in spans):
            continue
        children: dict[int, list[TraceEvent]] = defaultdict(list)
        for e in spans:
            children[e.parent_id].append(e)
        acc: dict[str, dict[str, float]] = defaultdict(
            lambda: {tb: 0.0 for tb in TIMEBASES}
        )
        for e in spans:
            kind = "untraced" if e.kind == "program" else e.kind
            for tb in TIMEBASES:
                lo, hi = _interval(e, tb)
                kids = (_interval(c, tb) for c in children[e.span_id])
                acc[kind][tb] += (hi - lo) - _covered(lo, hi, kids)
        out[rank] = dict(acc)
    return out


def total_self_times(traces: Iterable[TraceLog]) -> dict[str, float]:
    """``span.<kind>.self_<timebase>`` summed over ranks and programs."""
    totals = {
        f"span.{kind}.self_{tb}": 0.0 for kind in SPAN_KINDS for tb in TIMEBASES
    }
    for trace in traces:
        for per_kind in self_times(trace).values():
            for kind, times in per_kind.items():
                if kind not in SPAN_KINDS:
                    continue
                for tb, value in times.items():
                    totals[f"span.{kind}.self_{tb}"] += value
    return totals
