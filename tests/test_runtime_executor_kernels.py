"""Tests for executor gather/scatter and the Fig. 8 kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RankFailedError, ScheduleError
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, perturbed_grid_mesh
from repro.net.cluster import uniform_cluster
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.partition.rcb import RCBOrdering
from repro.runtime.executor import gather, scatter
from repro.runtime.inspector import run_inspector
from repro.runtime.kernels import (
    KernelCostModel,
    KernelPlan,
    build_kernel_plan,
    run_sequential,
    sequential_kernel,
    sequential_kernel_reference,
)
from repro.runtime.schedule_builders import build_schedule_sort1


@pytest.fixture(scope="module")
def mesh():
    g = perturbed_grid_mesh(10, 10, seed=2).graph
    return g.permute(RCBOrdering()(g))


class TestGatherScatter:
    def test_gather_fetches_correct_values(self, mesh):
        n = mesh.num_vertices
        part = partition_list(n, np.ones(3))
        y = np.arange(n, dtype=np.float64) * 2.0

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, sched, y[lo:hi])
            np.testing.assert_array_equal(ghost, y[sched.ghost_globals])
            return True

        assert all(run_spmd(uniform_cluster(3), fn).values)

    def test_gather_vector_payloads(self, mesh):
        """Gather works for (n, k) per-element data, not just scalars."""
        n = mesh.num_vertices
        part = partition_list(n, np.ones(2))
        y = np.random.default_rng(0).uniform(size=(n, 3))

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, sched, y[lo:hi])
            np.testing.assert_array_equal(ghost, y[sched.ghost_globals])
            return True

        assert all(run_spmd(uniform_cluster(2), fn).values)

    def test_gather_wrong_local_size(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(2))

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            gather(ctx, sched, np.zeros(3))  # wrong size

        with pytest.raises(RankFailedError):
            run_spmd(uniform_cluster(2), fn)

    def test_scatter_add_accumulates(self, mesh):
        """scatter(op='add') after gather implements the symmetric
        accumulate: each boundary element receives the sum of the ghost
        contributions of every rank that references it."""
        n = mesh.num_vertices
        part = partition_list(n, np.ones(3))

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            local = np.zeros(hi - lo)
            ghost = np.ones(sched.ghost_size)  # contribute 1 per reference
            scatter(ctx, sched, ghost, local, op="add")
            return lo, local

        res = run_spmd(uniform_cluster(3), fn)
        total = np.zeros(n)
        for lo, local in res.values:
            total[lo : lo + local.size] = local
        # Element g receives one contribution per *rank* that references it.
        expected = np.zeros(n)
        for r in range(3):
            sched = build_schedule_sort1(mesh, part, r)
            expected[sched.ghost_globals] += 1.0
        np.testing.assert_array_equal(total, expected)

    def test_scatter_replace(self, mesh):
        n = mesh.num_vertices
        part = partition_list(n, np.ones(2))

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            local = np.full(hi - lo, -1.0)
            ghost = sched.ghost_globals.astype(np.float64)
            scatter(ctx, sched, ghost, local, op="replace")
            return lo, local

        res = run_spmd(uniform_cluster(2), fn)
        for lo, local in res.values:
            touched = local >= 0
            gi = np.flatnonzero(touched) + lo
            np.testing.assert_array_equal(local[touched], gi.astype(float))

    def test_scatter_bad_op(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(2))

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            scatter(ctx, sched, np.zeros(sched.ghost_size), np.zeros(hi - lo),
                    op="bogus")

        with pytest.raises(RankFailedError):
            run_spmd(uniform_cluster(2), fn)

    def test_scatter_callable_op(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(2))

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            local = np.zeros(hi - lo)
            seen = []

            def op(arr, idx, vals):
                seen.append(idx.size)
                np.maximum.at(arr, idx, vals)

            scatter(ctx, sched, np.ones(sched.ghost_size), local, op=op)
            return sum(seen) > 0

        assert all(run_spmd(uniform_cluster(2), fn).values)


class TestSequentialKernel:
    def test_matches_literal_reference(self):
        g = perturbed_grid_mesh(6, 6, seed=1).graph
        y = np.random.default_rng(0).uniform(size=g.num_vertices)
        np.testing.assert_array_equal(
            sequential_kernel(g, y), sequential_kernel_reference(g, y)
        )

    def test_isolated_vertex_keeps_value(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        y = np.array([1.0, 3.0, 7.0])
        out = sequential_kernel(g, y)
        assert out[2] == 7.0
        assert out[0] == 3.0 and out[1] == 1.0

    def test_constant_fixed_point(self):
        g = grid_graph(5, 5)
        y = np.full(25, 4.2)
        np.testing.assert_allclose(sequential_kernel(g, y), y)

    def test_smooths_toward_mean(self):
        g = grid_graph(10, 10)
        rng = np.random.default_rng(1)
        y = rng.uniform(0, 100, 100)
        out = run_sequential(g, y, 50)
        assert out.std() < y.std() / 2

    def test_shape_validation(self):
        g = grid_graph(2, 2)
        with pytest.raises(Exception):
            sequential_kernel(g, np.zeros(5))

    @given(seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_vectorized_equals_reference_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        m = int(rng.integers(0, n * 2))
        edges = rng.integers(0, n, size=(m, 2))
        g = CSRGraph.from_edges(n, edges)
        y = rng.uniform(-10, 10, n)
        np.testing.assert_array_equal(
            sequential_kernel(g, y), sequential_kernel_reference(g, y)
        )


class TestKernelPlan:
    def test_plan_sweep_matches_global(self, mesh):
        n = mesh.num_vertices
        part = partition_list(n, [0.5, 0.3, 0.2])
        y = np.random.default_rng(3).uniform(size=n)
        expected = sequential_kernel(mesh, y)

        def fn(ctx):
            insp = run_inspector(mesh, part, ctx.rank, strategy="sort2")
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, insp.schedule, y[lo:hi])
            out = insp.kernel_plan.sweep(y[lo:hi], ghost)
            np.testing.assert_allclose(out, expected[lo:hi], rtol=1e-12)
            return True

        assert all(run_spmd(uniform_cluster(3), fn).values)

    def test_plan_sweep_matches_its_reference(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(2))
        sched = build_schedule_sort1(mesh, part, 0)
        plan = build_kernel_plan(mesh, part, sched)
        lo, hi = part.interval(0)
        rng = np.random.default_rng(4)
        local = rng.uniform(size=hi - lo)
        ghost = rng.uniform(size=sched.ghost_size)
        np.testing.assert_array_equal(
            plan.sweep(local, ghost), plan.sweep_reference(local, ghost)
        )

    def test_plan_covers_all_local_degrees(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(4))
        for r in range(4):
            sched = build_schedule_sort1(mesh, part, r)
            plan = build_kernel_plan(mesh, part, sched)
            lo, hi = part.interval(r)
            np.testing.assert_array_equal(plan.counts, mesh.degrees[lo:hi])
            assert plan.n_references == int(mesh.degrees[lo:hi].sum())

    def test_plan_with_request_order_ghosts(self, mesh):
        """Kernel plans work with the simple strategy's unsorted ghosts."""
        from repro.runtime.schedule_builders import build_schedule_simple

        n = mesh.num_vertices
        part = partition_list(n, np.ones(2))
        y = np.random.default_rng(5).uniform(size=n)
        expected = sequential_kernel(mesh, y)

        def fn(ctx):
            sched = build_schedule_simple(mesh, part, ctx=ctx)
            plan = build_kernel_plan(mesh, part, sched)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, sched, y[lo:hi])
            np.testing.assert_allclose(
                plan.sweep(y[lo:hi], ghost), expected[lo:hi], rtol=1e-12
            )
            return True

        assert all(run_spmd(uniform_cluster(2), fn).values)

    def test_cost_model_calibration(self):
        """Default constants put the paper's workload near Table 4's
        97.61 s / 500 iterations on a speed-1.0 machine."""
        kc = KernelCostModel()
        per_iter = kc.sweep_seconds(2 * 44_929, 30_269)
        assert 500 * per_iter == pytest.approx(97.61, rel=0.2)


def assert_bitwise(actual, expected):
    """Equal bit for bit: same NaN positions, same sign on every zero."""
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual, expected)
    real = ~np.isnan(expected)
    np.testing.assert_array_equal(
        np.signbit(actual[real]), np.signbit(expected[real])
    )


@st.composite
def hub_graphs_and_values(draw):
    """A graph with isolated vertices and a hub of degree >= 9 (where a
    pairwise reduction would start to reorder the sum), plus values that
    mix random doubles with +-0.0, +-inf and NaN."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(12, 40))
    hub_degree = draw(st.integers(9, n - 3))
    hub = int(rng.integers(n))
    others = rng.permutation(np.delete(np.arange(n), hub))
    # The last two vertices of `others` never get an edge: empty rows.
    linked = others[:-2]
    edges = [(hub, int(v)) for v in linked[:hub_degree]]
    m = draw(st.integers(0, 2 * n))
    edges += [tuple(int(v) for v in rng.choice(linked, 2)) for _ in range(m)]
    graph = CSRGraph.from_edges(n, edges)
    y = rng.uniform(-1e3, 1e3, n)
    specials = draw(st.lists(
        st.tuples(st.integers(0, n - 1),
                  st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])),
        max_size=4,
    ))
    for i, value in specials:
        y[i] = value
    return graph, y, int(others[-1]), draw(st.integers(1, 3))


class TestSummationOrder:
    """The vectorized sweeps add each row left to right from 0.0, exactly
    like the Fig. 8 loop, so they equal its transcription bit for bit."""

    @given(case=hub_graphs_and_values())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_fig8_loop_property(self, case):
        graph, y, isolated, p = case
        assert graph.degrees[isolated] == 0
        assert graph.degrees.max() >= 9
        with np.errstate(invalid="ignore"):  # inf - inf in the loop
            expected = sequential_kernel_reference(graph, y)
        assert_bitwise(sequential_kernel(graph, y), expected)
        part = partition_list(graph.num_vertices, np.ones(p))
        for rank in range(p):
            sched = build_schedule_sort1(graph, part, rank)
            plan = build_kernel_plan(graph, part, sched)
            lo, hi = part.interval(rank)
            local, ghost = y[lo:hi], y[sched.ghost_globals]
            with np.errstate(invalid="ignore"):
                expected = plan.sweep_reference(local, ghost)
            assert_bitwise(plan.sweep(local, ghost), expected)

    def test_run_sequential_repeats_the_sweep(self):
        g = perturbed_grid_mesh(7, 5, seed=3).graph
        y = np.random.default_rng(8).uniform(-1.0, 1.0, g.num_vertices)
        expected = y
        for _ in range(4):
            expected = sequential_kernel_reference(g, expected)
        assert_bitwise(run_sequential(g, y, 4), expected)
        assert_bitwise(run_sequential(g, y, 0), y)

    def test_empty_plan_sweeps_to_nothing(self):
        empty = np.zeros(0, dtype=np.intp)
        plan = KernelPlan(rank=2, n_local=0, slots=empty, starts=empty,
                          counts=empty)
        out = plan.sweep(np.zeros(0), np.zeros(0))
        assert out.shape == (0,)
        assert_bitwise(out, plan.sweep_reference(np.zeros(0), np.zeros(0)))

    def test_plan_without_references_keeps_values(self):
        empty = np.zeros(0, dtype=np.intp)
        counts = np.zeros(3, dtype=np.intp)
        plan = KernelPlan(rank=0, n_local=3, slots=empty, starts=counts,
                          counts=counts)
        y = np.array([-0.0, np.nan, 5.0])
        assert_bitwise(plan.sweep(y, np.zeros(0)), y)


class TestSweepInputChecks:
    """Mis-sized sweep inputs are diagnosed, not a raw numpy crash."""

    @pytest.fixture
    def plan_and_inputs(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(2))
        sched = build_schedule_sort1(mesh, part, 1)
        plan = build_kernel_plan(mesh, part, sched)
        lo, hi = part.interval(1)
        assert sched.ghost_size > 0
        return plan, np.ones(hi - lo), np.ones(sched.ghost_size)

    @pytest.mark.parametrize("sweep", ["sweep", "sweep_reference"])
    def test_short_ghost_buffer(self, plan_and_inputs, sweep):
        plan, local, ghost = plan_and_inputs
        with pytest.raises(ScheduleError, match=(
            rf"rank 1: ghost buffer has shape \({ghost.size - 1},\), plan "
            rf"references {ghost.size} ghost slots"
        )):
            getattr(plan, sweep)(local, ghost[:-1])

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_local_length(self, plan_and_inputs, delta):
        plan, local, ghost = plan_and_inputs
        bad = np.ones(local.size + delta)
        with pytest.raises(ScheduleError, match=(
            rf"rank 1: local block has shape \({bad.size},\), plan expects "
            rf"\({plan.n_local},\)"
        )):
            plan.sweep(bad, ghost)

    def test_two_dimensional_local_block(self, plan_and_inputs):
        plan, local, ghost = plan_and_inputs
        with pytest.raises(ScheduleError, match="rank 1: local block"):
            plan.sweep(local[:, None], ghost)

    def test_two_dimensional_ghost_buffer(self, plan_and_inputs):
        plan, local, ghost = plan_and_inputs
        with pytest.raises(ScheduleError, match="rank 1: ghost buffer"):
            plan.sweep(local, ghost[:, None])

    def test_longer_ghost_buffer_is_accepted(self, plan_and_inputs):
        plan, local, ghost = plan_and_inputs
        longer = np.concatenate([ghost, [np.nan]])
        assert_bitwise(plan.sweep(local, longer), plan.sweep(local, ghost))


class TestKernelPlanEmptyIntervals:
    """Direct hypothesis coverage of the PR-4 empty-interval fix: ranks
    that own nothing (standby, drained, or failed) must get a well-formed
    empty plan, and the surviving ranks' sweeps must still reassemble the
    sequential result."""

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 2**31),
        p=st.integers(2, 6),
        empties=st.integers(1, 3),
    )
    def test_empty_interval_ranks_property(self, seed, p, empties):
        rng = np.random.default_rng(seed)
        g = perturbed_grid_mesh(
            int(rng.integers(5, 11)), int(rng.integers(5, 11)), seed=seed
        ).graph
        graph = g.permute(RCBOrdering()(g))
        n = graph.num_vertices
        caps = rng.uniform(0.2, 1.0, size=p)
        empty_ranks = rng.choice(p, size=min(empties, p - 1), replace=False)
        caps[empty_ranks] = 0.0
        part = partition_list(n, caps / caps.sum())
        y = rng.uniform(0.0, 100.0, size=n)
        expected = sequential_kernel(graph, y)

        def fn(ctx):
            insp = run_inspector(graph, part, ctx.rank, strategy="sort2",
                                 ctx=ctx)
            plan = insp.kernel_plan
            lo, hi = part.interval(ctx.rank)
            assert plan.n_local == hi - lo
            if hi == lo:
                # The empty plan must be structurally sound, not a crash:
                # no slots, no starts, and a sweep over nothing.
                assert plan.slots.size == 0
                assert plan.counts.size == 0 and plan.starts.size == 0
            ghost = gather(ctx, insp.schedule, y[lo:hi].copy())
            out = plan.sweep(y[lo:hi].copy(), ghost)
            ctx.barrier()
            np.testing.assert_allclose(out, expected[lo:hi], rtol=1e-12)
            return out.size

        res = run_spmd(uniform_cluster(p), fn)
        assert sum(res.values) == n

    def test_all_data_on_one_rank(self):
        g = perturbed_grid_mesh(6, 6, seed=0).graph
        graph = g.permute(RCBOrdering()(g))
        n = graph.num_vertices
        part = partition_list(n, [1.0, 0.0, 0.0])
        y = np.arange(n, dtype=np.float64)
        expected = sequential_kernel(graph, y)

        def fn(ctx):
            insp = run_inspector(graph, part, ctx.rank, strategy="sort2",
                                 ctx=ctx)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, insp.schedule, y[lo:hi].copy())
            out = insp.kernel_plan.sweep(y[lo:hi].copy(), ghost)
            ctx.barrier()
            np.testing.assert_allclose(out, expected[lo:hi], rtol=1e-12)
            return True

        assert all(run_spmd(uniform_cluster(3), fn).values)
