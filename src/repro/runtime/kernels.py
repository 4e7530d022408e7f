"""The irregular loop (paper Fig. 8) and its parallel execution plan.

The paper's kernel, verbatim::

    for each vertex i:
        t[i] = sum over neighbors j of y[ia(j)]
    for each vertex i:
        y[i] = t[i] / degree(i)

i.e. one Jacobi-style neighbor-averaging sweep through an indirection
array.  :func:`sequential_kernel` is the single-machine reference;
:class:`KernelPlan` is the per-rank compiled form produced by the
inspector (address-translated slots into the combined [local | ghost]
buffer); the oracle runs the whole graph as one such plan.  The sweep
sums each row with a row-id ``np.bincount``, which adds left to right
from 0.0 like the loop, so both equal their literal transcriptions
(``sweep_reference``, ``sequential_kernel_reference``) bit for bit,
empty rows, signed zeros, inf and NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ScheduleError
from repro.graph.csr import CSRGraph
from repro.partition.intervals import IntervalPartition
from repro.runtime.schedule import CommSchedule

__all__ = [
    "KernelCostModel",
    "KernelPlan",
    "build_kernel_plan",
    "sequential_kernel",
    "sequential_kernel_reference",
    "run_sequential",
]


@dataclass(frozen=True)
class KernelCostModel:
    """Virtual cost of one kernel sweep, per reference and per vertex.

    Defaults calibrated so the paper's workload (30,269 vertices, 44,929
    edges, 500 iterations) takes ~0.2 virtual seconds per iteration on a
    speed-1.0 workstation — matching Table 4's 97.61 s single-machine run.
    """

    sec_per_reference: float = 2.0e-6
    sec_per_vertex: float = 0.5e-6

    def sweep_seconds(self, n_references: int, n_vertices: int) -> float:
        return (
            self.sec_per_reference * n_references
            + self.sec_per_vertex * n_vertices
        )


def sequential_kernel(graph: CSRGraph, y: np.ndarray) -> np.ndarray:
    """One vectorized sweep of the Fig. 8 loop over the whole graph."""
    return run_sequential(graph, y, 1)


def sequential_kernel_reference(graph: CSRGraph, y: np.ndarray) -> np.ndarray:
    """Literal transcription of Fig. 8 (pure Python loops) — test oracle."""
    n = graph.num_vertices
    t = np.zeros(n)
    k = 0
    out = np.array(y, dtype=np.float64, copy=True)
    for i in range(n):
        cnt = int(graph.indptr[i + 1] - graph.indptr[i])
        for _ in range(cnt):
            t[i] += y[graph.indices[k]]
            k += 1
    for i in range(n):
        cnt = int(graph.indptr[i + 1] - graph.indptr[i])
        if cnt:
            out[i] = t[i] / cnt
    return out


def run_sequential(
    graph: CSRGraph, y0: np.ndarray, iterations: int
) -> np.ndarray:
    """Run the Fig. 8 loop *iterations* times sequentially (the oracle for
    the parallel runs and the T(p_i) baseline of the Sec. 4 efficiency)."""
    y = np.array(y0, dtype=np.float64)
    if y.shape != (graph.num_vertices,):
        raise ScheduleError(
            f"y has shape {y.shape}, expected ({graph.num_vertices},)"
        )
    # The whole graph as one rank's plan with no ghosts: the oracle runs
    # the very sweep (and summation order) the parallel plans run.
    whole = KernelPlan(
        rank=0, n_local=graph.num_vertices, slots=graph.indices,
        starts=graph.indptr[:-1], counts=graph.degrees,
    )
    no_ghosts = np.zeros(0)
    for _ in range(iterations):
        y = whole.sweep(y, no_ghosts)
    return y


@dataclass(frozen=True)
class KernelPlan:
    """Per-rank compiled kernel: translated addresses, ready to sweep.

    ``slots`` indexes the combined ``[local | ghost]`` value buffer;
    ``starts``/``counts`` delimit each owned vertex's neighbor segment —
    the executor-phase output of the paper's address translation.
    """

    rank: int
    n_local: int
    slots: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.starts.shape != self.counts.shape or self.starts.ndim != 1:
            raise ScheduleError("starts/counts must be equal-length 1-D")
        if self.starts.size != self.n_local:
            raise ScheduleError(
                f"plan covers {self.starts.size} vertices, block holds "
                f"{self.n_local}"
            )

    @property
    def n_references(self) -> int:
        return int(self.slots.size)

    @cached_property
    def row_layout(self) -> tuple[np.ndarray, ...]:
        """The sweep's bincount bins (each reference's row), float divisors
        (1.0 on empty rows) and empty rows, built once per plan."""
        rows = np.repeat(np.arange(self.n_local, dtype=np.intp), self.counts)
        divisors = np.maximum(self.counts, 1).astype(np.float64)
        return rows, divisors, np.flatnonzero(self.counts == 0)

    @cached_property
    def ghost_needed(self) -> int:
        """Shortest ghost buffer the slots fit (largest ghost slot + 1)."""
        return max(int(self.slots.max(initial=-1)) + 1 - self.n_local, 0)

    def _combined(self, local_y: np.ndarray, ghost: np.ndarray) -> np.ndarray:
        if local_y.shape != (self.n_local,):
            raise ScheduleError(
                f"rank {self.rank}: local block has shape {local_y.shape}, "
                f"plan expects ({self.n_local},)"
            )
        if ghost.ndim != 1 or ghost.size < self.ghost_needed:
            raise ScheduleError(
                f"rank {self.rank}: ghost buffer has shape {ghost.shape}, "
                f"plan references {self.ghost_needed} ghost slots"
            )
        return np.concatenate([local_y, ghost]) if ghost.size else local_y

    def sweep(self, local_y: np.ndarray, ghost: np.ndarray) -> np.ndarray:
        """One vectorized kernel sweep over this rank's vertices."""
        rows, divisors, empty = self.row_layout
        gathered = self._combined(local_y, ghost)[self.slots]
        out = np.bincount(rows, gathered, divisors.size) / divisors
        if empty.size:
            out[empty] = local_y[empty]
        return out

    def sweep_reference(self, local_y: np.ndarray, ghost: np.ndarray) -> np.ndarray:
        """Loop transcription of Fig. 8 over local data — test oracle."""
        combined = self._combined(local_y, ghost)
        out = np.array(local_y, dtype=np.float64, copy=True)
        for i in range(self.n_local):
            cnt = int(self.counts[i])
            if not cnt:
                continue
            t = 0.0
            for k in range(self.starts[i], self.starts[i] + cnt):
                t += combined[self.slots[k]]
            out[i] = t / cnt
        return out


def build_kernel_plan(
    graph: CSRGraph,
    partition: IntervalPartition,
    schedule: CommSchedule,
    *,
    backend: str | None = None,
) -> KernelPlan:
    """Translate the global Fig. 8 indirection into local+ghost slots.

    The address translation of Sec. 2 item 4: local neighbors become
    offsets into the local block; off-processor neighbors become
    ``n_local + position`` in the (sorted or request-ordered) ghost buffer.
    """
    from repro.runtime.backend import resolve_backend

    rank = schedule.rank
    lo, hi = partition.interval(rank)
    n_local = hi - lo
    start, stop = graph.indptr[lo], graph.indptr[hi]
    nbr = graph.indices[start:stop]
    counts = np.diff(graph.indptr[lo : hi + 1]).astype(np.intp)
    if resolve_backend(backend) == "reference":
        from repro.runtime.reference import kernel_slots_loop

        try:
            slots = kernel_slots_loop(nbr, lo, hi, schedule.ghost_globals)
        except ScheduleError as exc:
            raise ScheduleError(f"rank {rank}: {exc}") from None
    else:
        slots = np.empty(nbr.size, dtype=np.intp)
        local_mask = (nbr >= lo) & (nbr < hi)
        slots[local_mask] = nbr[local_mask] - lo
        off = nbr[~local_mask]
        if off.size:
            ghost = schedule.ghost_globals
            if ghost.size == 0:
                raise ScheduleError(
                    f"rank {rank}: off-processor references but empty ghost "
                    "buffer"
                )
            pos = np.searchsorted(ghost, off)
            ok = (pos < ghost.size) & (
                ghost[np.minimum(pos, ghost.size - 1)] == off
            )
            if not np.all(ok):
                # Request-ordered ghost buffers (simple strategy) are not
                # sorted; fall back to a dictionary translation.
                lookup = {int(g): i for i, g in enumerate(ghost)}
                try:
                    pos = np.fromiter(
                        (lookup[int(g)] for g in off),
                        dtype=np.intp,
                        count=off.size,
                    )
                except KeyError as exc:
                    raise ScheduleError(
                        f"rank {rank}: reference {exc} missing from ghost "
                        "buffer"
                    ) from None
            slots[~local_mask] = n_local + pos
    # An empty interval (a drained or standby rank under elastic
    # membership) has no vertices and therefore no segment starts.
    starts = np.zeros(counts.size, dtype=np.intp)
    if counts.size:
        starts[1:] = np.cumsum(counts[:-1])
    return KernelPlan(
        rank=rank, n_local=n_local, slots=slots, starts=starts, counts=counts
    )
