"""The four benchmark workloads.

Each workload builds its inputs from the seed alone (:meth:`setup`), runs
one pass through the public API (:meth:`run`, the timed section), and
reduces a finished pass to comparable numbers (:meth:`reduce`, outside
the timed section).  See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro.serve.job as job_module
from repro.apps.workloads import dynamic_load_cluster
from repro.graph import paper_mesh
from repro.net.cluster import ClusterSpec, adaptive_cluster, sun4_cluster, uniform_cluster
from repro.net.loadmodel import MembershipEvent, MembershipTrace
from repro.runtime import LoadBalanceConfig, ProgramConfig, run_sequential
from repro.runtime.kernels import KernelCostModel
from repro.serve import JobQueue, ServiceSession, generate_stream

from probes import BenchSpans, ProgramProbe

__all__ = ["WORKLOADS", "ORACLE_RTOL", "PassResult", "CHURN_RECOVER"]

#: Every run uses the vectorized backend on the point-to-point network,
#: so the virtual metrics repeat exactly.
BACKEND = "vectorized"

#: Largest accepted relative deviation from the serial oracle.  The
#: parallel runs sum each vertex's neighbours in the same order as the
#: serial loop; the deviation measured at the pinned seed is 7e-16 to
#: 1.3e-15, so this leaves three orders of magnitude of headroom.
ORACLE_RTOL = 1e-12


@dataclass
class PassResult:
    """One finished pass, reduced to the numbers the benchmark reports."""

    #: ``virtual_makespan_s``, ``virtual_p99_job_s``, ``virtual_jobs_per_s``.
    virtual: dict[str, float]
    #: Per-layer counters and virtual-time totals (see ``program_layers``).
    layers: dict[str, float]
    #: Bit-exact identity of the pass: virtual numbers, counters, values.
    identity: Any
    #: Largest relative deviation from the serial oracle.
    deviation: float


def _values_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _relative_deviation(values: np.ndarray, reference: np.ndarray) -> float:
    scale = np.maximum(np.abs(reference), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(values - reference) / scale))


# ---------------------------------------------------------------------- #
# one run_program call per pass
# ---------------------------------------------------------------------- #


@dataclass
class ProgramInputs:
    graph: Any
    y0: np.ndarray
    cluster: ClusterSpec
    config: ProgramConfig


@dataclass(frozen=True)
class ProgramWorkload:
    """A workload whose pass is one ``run_program`` call."""

    name: str
    why: str
    vertices: int
    #: ``(graph, iterations) -> cluster``; the graph sets the horizon of
    #: load and membership traces that scale to the run.
    cluster: Callable[[Any, int], ClusterSpec]
    config: ProgramConfig

    def setup(self, seed: int, spans: BenchSpans) -> ProgramInputs:
        rng = np.random.default_rng(seed)
        with spans.span("graph-build", label=f"paper_mesh({self.vertices})"):
            graph = paper_mesh(self.vertices, seed=int(rng.integers(2**31 - 1)))
        y0 = rng.uniform(0.0, 100.0, graph.num_vertices)
        cluster = self.cluster(graph, self.config.iterations)
        return ProgramInputs(graph, y0, cluster, self.config)

    def oracle(self, inputs: ProgramInputs) -> np.ndarray:
        return run_sequential(inputs.graph, inputs.y0, inputs.config.iterations)

    def run(self, inputs: ProgramInputs, probe: ProgramProbe) -> Any:
        return probe(inputs.graph, inputs.cluster, inputs.config, y0=inputs.y0)

    def reduce(self, report: Any, probe: ProgramProbe, oracle: np.ndarray) -> PassResult:
        makespan = float(report.makespan)
        virtual = {
            "virtual_makespan_s": makespan,
            # A single program is a stream of one job.
            "virtual_p99_job_s": makespan,
            "virtual_jobs_per_s": 1.0 / makespan,
        }
        (layers,) = probe.layers
        layers = {
            **layers,
            "serve.jobs_admitted": 0,
            "serve.mean_queue_wait_vs": 0.0,
        }
        identity = (
            virtual,
            layers,
            # Gauges are left out: the mailbox-depth high-water mark
            # follows host thread order, not the program.
            json.dumps(
                {k: report.metrics[k] for k in ("counters", "histograms")},
                sort_keys=True,
            ),
            tuple(report.clocks),
            _values_digest(report.values),
        )
        return PassResult(
            virtual,
            layers,
            identity,
            _relative_deviation(report.values, oracle),
        )


def _churn_cluster(graph: Any, iterations: int) -> ClusterSpec:
    """Five uniform workstations: a competing load hops from machine to
    machine, and ws2 dies unannounced at half the compute horizon."""
    p = 5
    work_per_iter = KernelCostModel().sweep_seconds(
        int(graph.indices.size), graph.num_vertices
    )
    horizon = iterations * work_per_iter / p
    trace = MembershipTrace(p, [MembershipEvent(0.5 * horizon, "fail", 2)])
    return dynamic_load_cluster(p, "hotspot", horizon).with_membership(trace)


ORDER_HEAVY = ProgramWorkload(
    name="order-heavy",
    why=(
        "100k-vertex mesh, static, 10 iterations: Phase A ordering is most "
        "of run_s, so ordering and permute changes show"
    ),
    vertices=100_000,
    cluster=lambda graph, iterations: sun4_cluster(5, ethernet=False),
    config=ProgramConfig(iterations=10, backend=BACKEND),
)

PAPER_ADAPTIVE = ProgramWorkload(
    name="paper-adaptive",
    why=(
        "the paper's Table 5 run at full scale: executor loop and barriers "
        "dominate, so executor and simulator changes show"
    ),
    vertices=30_269,
    cluster=lambda graph, iterations: adaptive_cluster(
        5, competing_load=2.0, ethernet=False
    ),
    config=ProgramConfig(
        iterations=500,
        backend=BACKEND,
        initial_capabilities="equal",
        load_balance="centralized",
    ),
)

CHURN_RECOVER = ProgramWorkload(
    name="churn-recover",
    why=(
        "moving load plus an unannounced failure: repeated remaps, "
        "checkpoints, a rollback and inspector patches"
    ),
    vertices=30_269,
    cluster=_churn_cluster,
    config=ProgramConfig(
        iterations=200,
        backend=BACKEND,
        initial_capabilities="equal",
        load_balance=LoadBalanceConfig(check_interval=5),
        checkpoint="interval:4",
        inspector_mode="incremental",
    ),
)


# ---------------------------------------------------------------------- #
# the job service: one ServiceSession.run per pass
# ---------------------------------------------------------------------- #


@dataclass
class StreamInputs:
    queue: JobQueue
    cluster: ClusterSpec


class StreamWorkload:
    """48 short jobs through :class:`ServiceSession` on one shared pool.

    ``repro.serve.job`` memoizes each job's mesh.  Set-up starts from an
    empty memo, builds every job's mesh through the public
    ``JobSpec.build_graph`` (the cold cost) and runs one full pass, so
    the timed passes are warm.  A change that drops or shrinks the memo
    moves mesh building from ``setup_s`` into ``run_s``.
    """

    name = "service-stream"
    why = (
        "48 short jobs through the job service: per-run fixed cost "
        "dominates; the only workload with a job-latency percentile"
    )
    N_JOBS = 48
    POOL = 8
    MAX_TENANTS = 2
    #: The admission policy and its own seed, knobs of the service.
    POLICY = "random"
    POLICY_SEED = 1
    #: Pins the stream's shape: each job's width, size and iteration
    #: count.  The workload seed draws each job's mesh and initial values,
    #: so seeds vary the inputs, not the amount of work.
    SHAPE_SEED = 1995

    def setup(self, seed: int, spans: BenchSpans) -> StreamInputs:
        memo = getattr(job_module, "_mesh", None)
        if memo is not None and hasattr(memo, "cache_clear"):
            memo.cache_clear()
        rng = np.random.default_rng(seed)
        queue = JobQueue([
            dataclasses.replace(job, seed=int(rng.integers(2**31 - 1)))
            for job in generate_stream(
                "mixed", self.N_JOBS, max_ranks=self.POOL, seed=self.SHAPE_SEED
            )
        ])
        with spans.span("graph-build", label=f"{self.N_JOBS} job meshes"):
            for job in queue:
                job.build_graph()
        inputs = StreamInputs(queue, uniform_cluster(self.POOL))
        with spans.span("cold-pass"):
            self.run(inputs, ProgramProbe(spans, trace=False))
        return inputs

    def oracle(self, inputs: StreamInputs) -> dict[str, float]:
        sums = {}
        for job in inputs.queue:
            graph = job.build_graph()
            final = run_sequential(graph, job.build_y0(graph), job.iterations)
            sums[job.job_id] = float(final.sum())
        return sums

    def run(self, inputs: StreamInputs, probe: ProgramProbe) -> Any:
        session = ServiceSession(
            inputs.cluster,
            inputs.queue,
            policy=self.POLICY,
            seed=self.POLICY_SEED,
            max_tenants=self.MAX_TENANTS,
            backend=BACKEND,
        )
        with probe.installed():
            report = session.run()
        return session, report

    def reduce(self, outcome: Any, probe: ProgramProbe, oracle: dict[str, float]) -> PassResult:
        session, report = outcome
        virtual = {
            "virtual_makespan_s": report.service_makespan,
            "virtual_p99_job_s": report.p99_makespan(),
            "virtual_jobs_per_s": report.throughput,
        }
        layers = {
            name: sum(per_job[name] for per_job in probe.layers)
            for name in probe.layers[0]
        }
        layers["serve.jobs_admitted"] = session.metrics.snapshot()["counters"][
            "serve.jobs_admitted"
        ]
        layers["serve.mean_queue_wait_vs"] = report.mean_queue_wait()
        identity = (
            virtual,
            layers,
            json.dumps(report.to_dict(), sort_keys=True),
            tuple(json.dumps(per_job, sort_keys=True) for per_job in probe.layers),
        )
        deviation = max(
            abs(r.checksum - oracle[r.job.job_id]) / abs(oracle[r.job.job_id])
            for r in report.records
        )
        return PassResult(virtual, layers, identity, deviation)


SERVICE_STREAM = StreamWorkload()

WORKLOADS = {
    w.name: w for w in (ORDER_HEAVY, PAPER_ADAPTIVE, CHURN_RECOVER, SERVICE_STREAM)
}
