"""The measuring loop: set-up, oracle, timed passes, traced passes.

One process measures one workload, on one thread of control and one CPU
(:func:`pin_to_one_cpu`):

1. set-up runs :data:`SETUP_REPEATS` times; ``setup_s`` is the median;
2. the serial oracle is computed (outside every timed section);
3. untraced passes run until ``seconds`` have elapsed and at least
   :data:`MIN_PASSES` were attempted; ``run_s`` is the median pass time and
   ``peak_rss_mb`` the process high-water mark after them;
4. :data:`TRACED_PASSES` traced passes follow; the first gives the
   per-layer span breakdown, their median time ``obs.trace_overhead``;
5. every pass is checked against the oracle, and every pass, traced or
   not, must agree bit for bit on its virtual numbers, counters and final
   values.  A disagreement raises :class:`DeterminismError`.

Host times are reported at a reference machine speed: a fixed calibration
loop (:func:`speed_now`) runs right before every set-up, pass and permute
probe, and the time that follows is scaled by
:data:`REFERENCE_CALIBRATION_S` over that calibration's time.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.net.trace import TraceLog
from repro.obs import write_chrome_trace

from probes import BenchSpans, ProgramProbe
from selftime import total_self_times
from workloads import ORACLE_RTOL, PassResult

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "DeterminismError",
    "Measurement",
    "measure",
]

SETUP_REPEATS = 3
MIN_PASSES = 3
TRACED_PASSES = 3
PERMUTE_REPEATS = 3

#: Host times are reported at the speed at which :func:`calibrate` takes
#: this long, about its median on the 2-vCPU Xeon virtual machine the
#: benchmark was tuned on.
REFERENCE_CALIBRATION_S = 0.02

_CALIBRATION_KEYS = np.random.default_rng(0).random(2000)

#: name -> unit of the metrics printed with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "virtual_makespan_s": "s",
    "virtual_p99_job_s": "s",
    "virtual_jobs_per_s": "1/s",
}

_SPAN_METRICS = dict.fromkeys(total_self_times([]), "s")

#: name -> unit of the metrics printed with ``--trace 1``.
PER_LAYER = {
    "graph.build_s": "s",
    "graph.permute_s": "s",
    "partition.order_s": "s",
    "net.spmd_s": "s",
    "net.messages_sent": "count",
    "net.bytes_sent": "bytes",
    "net.recv_wait_vs": "s",
    "net.barrier_wait_vs": "s",
    "exec.ghost_elements": "count",
    "inspector.full_builds": "count",
    "inspector.patch_builds": "count",
    "inspector.patch_share": "ratio",
    "lb.checks": "count",
    "lb.remaps": "count",
    "lb.remap_accept": "ratio",
    "lb.remap_vs": "s",
    "cp.checkpoints": "count",
    "cp.checkpoint_bytes": "bytes",
    "cp.rollbacks": "count",
    "cp.checkpoint_vs": "s",
    "cp.lost_vs": "s",
    "serve.jobs_admitted": "count",
    "serve.mean_queue_wait_vs": "s",
    **_SPAN_METRICS,
    "obs.trace_overhead": "ratio",
    "host.calibration_s": "s",
}


class DeterminismError(RuntimeError):
    """Two passes of one workload disagreed on a deterministic number."""


@dataclass
class Measurement:
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failed: int
    #: Benchmark spans plus each traced program's trace, for writing out.
    spans: TraceLog
    program_traces: list[TraceLog]

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def speed_now(spans: BenchSpans) -> float:
    """The machine's current speed relative to the reference.

    Times fixed interpreter and NumPy work that never touches the library
    (recorded as a ``calibrate`` span).  Other tenants of a shared machine
    change its speed by up to 1.7x within minutes; a pass and the
    calibration just before it slow down together, so their ratio stays
    put while each alone does not.
    """
    with spans.span("calibrate"):
        table: dict[int, int] = {}
        total = 0
        for i in range(60_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
            total += i % 7
        for _ in range(150):
            total += int(np.sort(_CALIBRATION_KEYS).argmax())
    calibration = spans.last("calibrate")
    return REFERENCE_CALIBRATION_S / (calibration.t_end - calibration.t_start)


@dataclass
class _Pass:
    result: PassResult
    #: Host seconds of the pass and of Phase A ordering inside it, both
    #: at the reference speed.
    run_s: float
    order_s: float
    #: Machine speed measured right before the pass.
    speed: float
    probe: ProgramProbe


class _Passes:
    """Runs passes of one workload and keeps the ones that succeeded."""

    def __init__(self, workload: Any, inputs: Any, oracle: Any, spans: BenchSpans):
        self.workload = workload
        self.inputs = inputs
        self.oracle = oracle
        self.spans = spans
        self.attempted = 0
        self.failed = 0

    def run(self, *, traced: bool) -> "_Pass | None":
        """One checked pass, or None if it raised or failed the oracle."""
        probe = ProgramProbe(self.spans, trace=traced)
        self.attempted += 1
        gc.collect()
        speed = speed_now(self.spans)
        try:
            with self.spans.span("run", label="traced" if traced else "untraced"):
                raw = self.workload.run(self.inputs, probe)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        run_span = self.spans.last("run")
        with self.spans.span("check"):
            result = self.workload.reduce(raw, probe, self.oracle)
        if not result.deviation <= ORACLE_RTOL:
            self.failed += 1
            print(
                f"perfbench: {self.workload.name}: values deviate from the "
                f"serial oracle by {result.deviation:.3g} (limit {ORACLE_RTOL})",
                file=sys.stderr,
            )
            return None
        return _Pass(
            result,
            run_s=speed * (run_span.t_end - run_span.t_start),
            order_s=speed * sum(self.spans.durations("ordering", parent=run_span)),
            speed=speed,
            probe=probe,
        )


def _check_identical(passes: list[_Pass], workload: str) -> None:
    first = passes[0].result.identity
    for i, p in enumerate(passes[1:], start=1):
        if p.result.identity != first:
            raise DeterminismError(
                f"{workload}: pass {i} differs from pass 0 in its virtual "
                f"metrics, counters or final values (the last "
                f"{TRACED_PASSES} passes are traced)"
            )


def pin_to_one_cpu() -> None:
    """Run this process, and the rank threads it starts, on one CPU.

    The rank threads take turns holding the interpreter lock.  Unpinned,
    each hand-off to a thread on another virtual CPU waits for that CPU
    to be woken, which on a shared 2-vCPU machine made passes about 1.5x
    slower and their times twice as spread out.  Pinned, ``run_s``
    measures the program rather than the hypervisor's scheduler.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(workload: Any, seed: int, seconds: float) -> Measurement:
    pin_to_one_cpu()
    spans = BenchSpans()
    setup_s, build_s = [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous inputs before building the next
        gc.collect()
        speed = speed_now(spans)
        with spans.span("setup"):
            inputs = workload.setup(seed, spans)
        setup = spans.last("setup")
        setup_s.append(speed * (setup.t_end - setup.t_start))
        build_s.append(speed * sum(spans.durations("graph-build", parent=setup)))

    with spans.span("oracle"):
        oracle = workload.oracle(inputs)

    passes = _Passes(workload, inputs, oracle, spans)
    timed: list[_Pass] = []
    start = time.perf_counter()
    while passes.attempted < MIN_PASSES or time.perf_counter() - start < seconds:
        done = passes.run(traced=False)
        if done is not None:
            timed.append(done)
    if not timed:
        raise RuntimeError(f"{workload.name}: every pass failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = [passes.run(traced=True) for _ in range(TRACED_PASSES)]
    traced = [t for t in traced if t is not None]
    _check_identical(timed + traced, workload.name)

    pairs = (traced + timed)[0].probe.orderings
    permute_times = []
    for _ in range(PERMUTE_REPEATS):
        speed = speed_now(spans)
        with spans.span("permute"):
            for graph, perm in pairs:
                graph.permute(perm)
        permute = spans.last("permute")
        permute_times.append(speed * (permute.t_end - permute.t_start))

    first = timed[0].result
    run_s = statistics.median(p.run_s for p in timed)
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        **first.virtual,
    }

    order_s = statistics.median(p.order_s for p in timed)
    permute_s = statistics.median(permute_times)
    program_traces = traced[0].probe.traces if traced else []
    self_times = {
        name: traced[0].speed * value if name.endswith("_host_s") else value
        for name, value in total_self_times(program_traces).items()
    }
    layers = first.layers
    per_layer = {
        "graph.build_s": statistics.median(build_s),
        "graph.permute_s": permute_s,
        "partition.order_s": order_s,
        "net.spmd_s": run_s - order_s - permute_s,
        **layers,
        "inspector.patch_share": _ratio(
            layers["inspector.patch_builds"],
            layers["inspector.patch_builds"] + layers["inspector.full_builds"],
        ),
        "lb.remap_accept": _ratio(layers["lb.remaps"], layers["lb.checks"]),
        **self_times,
        "obs.trace_overhead": (
            _ratio(statistics.median(t.run_s for t in traced), run_s)
            if traced
            else 0.0
        ),
        "host.calibration_s": statistics.median(spans.durations("calibrate")),
    }
    return Measurement(
        end_to_end={k: float(end_to_end[k]) for k in END_TO_END},
        per_layer={k: float(per_layer[k]) for k in PER_LAYER},
        attempted=passes.attempted,
        failed=passes.failed,
        spans=spans.log,
        program_traces=program_traces,
    )


def write_traces(m: Measurement, out_dir: Path, metadata: dict[str, Any]) -> None:
    """Write the benchmark's spans and each traced program's spans as
    Chrome trace files (loadable in Perfetto) under *out_dir*."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("*.json"):
        old.unlink()
    write_chrome_trace(
        str(out_dir / "bench.json"), m.spans, timebase="wall", metadata=metadata
    )
    for i, trace in enumerate(m.program_traces):
        spans_only = TraceLog()
        spans_only.extend(trace.spans())
        write_chrome_trace(
            str(out_dir / f"program-{i:03d}.json"),
            spans_only,
            metadata=metadata,
        )
