"""Tests for the 1-D locality orderings (RCB, inertial, RSB, SFC)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import OrderingError
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    grid_graph,
    grid_mesh_3d,
    paper_mesh,
    perturbed_grid_mesh,
)
from repro.graph.metrics import mean_edge_span
from repro.partition.inertial import InertialOrdering, inertial_order, principal_axis
from repro.partition.ordering import (
    IdentityOrdering,
    RandomOrdering,
    inverse,
    positions_from_order,
)
from repro.partition.rcb import RCBOrdering, rcb_labels, rcb_order
from repro.partition.sfc import (
    HilbertOrdering,
    MortonOrdering,
    hilbert_keys_2d,
    morton_keys,
    quantize_coords,
    sfc_order,
)
from repro.partition.spectral import (
    SpectralOrdering,
    fiedler_vector,
    rsb_order,
    spectral_order_flat,
)
from repro.utils.rng import as_generator

ALL_METHODS = [
    RCBOrdering(),
    RCBOrdering(alternate_axes=True),
    InertialOrdering(),
    SpectralOrdering(leaf_size=32),
    SpectralOrdering(recursive=False),
    HilbertOrdering(),
    MortonOrdering(),
    IdentityOrdering(),
    RandomOrdering(seed=1),
]


@pytest.fixture(scope="module")
def mesh_graph():
    return perturbed_grid_mesh(15, 15, seed=8).graph


class TestOrderingBasics:
    def test_inverse_roundtrip(self):
        perm = np.array([2, 0, 3, 1])
        inv = inverse(perm)
        np.testing.assert_array_equal(perm[inv], np.arange(4))
        np.testing.assert_array_equal(inv[perm], np.arange(4))

    def test_positions_from_order(self):
        order = np.array([3, 1, 0, 2])  # vertex 3 first on the line
        perm = positions_from_order(order)
        assert perm[3] == 0 and perm[1] == 1 and perm[0] == 2 and perm[2] == 3

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
    def test_every_method_returns_permutation(self, mesh_graph, method):
        perm = method(mesh_graph)
        n = mesh_graph.num_vertices
        assert perm.shape == (n,)
        assert np.array_equal(np.sort(perm), np.arange(n))

    @pytest.mark.parametrize(
        "method",
        [RCBOrdering(), InertialOrdering(), HilbertOrdering(), MortonOrdering(),
         SpectralOrdering(leaf_size=32)],
        ids=lambda m: m.name,
    )
    def test_locality_methods_beat_random(self, mesh_graph, method):
        span = mean_edge_span(mesh_graph, method(mesh_graph))
        rand = mean_edge_span(mesh_graph, RandomOrdering(seed=0)(mesh_graph))
        assert span < rand / 3.0

    @pytest.mark.parametrize(
        "method",
        [RCBOrdering(), InertialOrdering(), SpectralOrdering(leaf_size=32),
         HilbertOrdering(), MortonOrdering()],
        ids=lambda m: m.name,
    )
    def test_deterministic(self, mesh_graph, method):
        np.testing.assert_array_equal(method(mesh_graph), method(mesh_graph))

    def test_coordinate_methods_need_coords(self):
        abstract = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        for method in (RCBOrdering(), InertialOrdering(), HilbertOrdering()):
            with pytest.raises(OrderingError):
                method(abstract)

    def test_spectral_works_without_coords(self):
        abstract = CSRGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        perm = SpectralOrdering(leaf_size=8)(abstract)
        # A path's spectral order must be monotone along the path.
        seq = perm.tolist()
        assert seq == sorted(seq) or seq == sorted(seq, reverse=True)


def stack_rcb_order(graph, *, alternate_axes=False, seed=0):
    """Reference RCB: one argpartition median split per tree node.

    The per-node recursion (explicit stack, lo side emitted first) that
    ``rcb_order`` replaced; kept here as the oracle it is diffed against.
    """
    coords = graph.coords
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.intp)
    scale = max(float(np.ptp(coords)) if coords.size else 1.0, 1e-30)
    jitter = as_generator(seed).uniform(-1e-9, 1e-9, size=n) * scale
    order = []
    stack = [(np.arange(n, dtype=np.intp), 0)]
    while stack:
        idx, depth = stack.pop()
        if idx.size <= 1:
            order.extend(idx.tolist())
            continue
        if alternate_axes:
            axis = depth % coords.shape[1]
        else:
            sub = coords[idx]
            axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        half = idx.size // 2
        part = np.argpartition(coords[idx, axis] + jitter[idx], half - 1)
        stack.append((idx[part[half:]], depth + 1))
        stack.append((idx[part[:half]], depth + 1))
    return np.asarray(order, dtype=np.intp)


@pytest.fixture(scope="module")
def paper_graph():
    return paper_mesh(30269)


class TestRCB:
    @pytest.mark.parametrize("alternate_axes", [False, True])
    @pytest.mark.parametrize("seed", [0, 7, 1995])
    @pytest.mark.parametrize("shape", ["paper", "grid", "grid3d"])
    def test_matches_stack_oracle(self, paper_graph, shape, seed, alternate_axes):
        graph = {
            "paper": paper_graph,
            "grid": grid_graph(37, 23),
            "grid3d": grid_mesh_3d(9, 12, 7).graph,
        }[shape]
        got = rcb_order(graph, alternate_axes=alternate_axes, seed=seed)
        want = stack_rcb_order(graph, alternate_axes=alternate_axes, seed=seed)
        np.testing.assert_array_equal(got, want)

    @given(
        n=st.integers(0, 500),
        dim=st.sampled_from([2, 3]),
        snap=st.booleans(),
        alternate_axes=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(n=1, dim=2, snap=False, alternate_axes=False, seed=0)
    @example(n=2, dim=3, snap=True, alternate_axes=False, seed=1)
    @example(n=3, dim=2, snap=True, alternate_axes=True, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_matches_stack_oracle_on_point_clouds(
        self, n, dim, snap, alternate_axes, seed
    ):
        coords = np.random.default_rng(seed).random((n, dim))
        if snap:  # repeated coordinates and equal extents on several axes
            coords = np.round(coords * 4) / 4
        graph = CSRGraph.from_edges(n, [], coords=coords)
        got = rcb_order(graph, alternate_axes=alternate_axes, seed=seed)
        want = stack_rcb_order(graph, alternate_axes=alternate_axes, seed=seed)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("alternate_axes", [False, True])
    def test_exact_ties_split_cleanly_and_repeat(self, alternate_axes):
        # A 1e12 offset swamps the jitter (1e-9 of the coordinate range),
        # so the 4096 vertices have only 64 distinct keys per axis.
        grid = grid_graph(64, 64)
        coords = grid.coords + 1e12
        graph = CSRGraph.from_edges(grid.num_vertices, grid.edge_array(), coords=coords)
        order = rcb_order(graph, alternate_axes=alternate_axes)
        assert np.array_equal(np.sort(order), np.arange(graph.num_vertices))
        again = rcb_order(graph, alternate_axes=alternate_axes)
        np.testing.assert_array_equal(order, again)
        # The root box and both level-1 boxes: the lower half of each box
        # lies at or below its upper half on the box's split axis.
        n = order.size
        for depth, box in [(0, order), (1, order[: n // 2]), (1, order[n // 2 :])]:
            pts = coords[box]
            if alternate_axes:
                axis = depth % 2
            else:
                axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
            half = box.size // 2
            assert pts[:half, axis].max() <= pts[half:, axis].min()

    def test_exact_ties_keep_vertex_id_order(self):
        # Coincident points tie on every axis at every level, and the stable
        # segmented sort keeps them in vertex-id order.
        graph = CSRGraph.from_edges(9, [], coords=np.ones((9, 3)))
        np.testing.assert_array_equal(rcb_order(graph), np.arange(9))

    def test_median_split_sizes(self):
        g = grid_graph(4, 4)
        order = rcb_order(g)
        assert order.size == 16
        # First half of the order lies in one half-plane of the wide axis.
        xs = g.coords[order[:8], 0]
        assert xs.max() <= g.coords[order[8:], 0].min() + 1e-9

    def test_rcb_labels_power_of_two(self):
        g = grid_graph(4, 4)
        labels = rcb_labels(g, 4)
        np.testing.assert_array_equal(np.bincount(labels), [4, 4, 4, 4])

    def test_rcb_labels_rejects_zero_parts(self):
        with pytest.raises(OrderingError):
            rcb_labels(grid_graph(2, 2), 0)

    def test_handles_duplicate_coordinates(self):
        coords = np.zeros((6, 2))
        g = CSRGraph.from_edges(6, [(i, i + 1) for i in range(5)], coords=coords)
        perm = RCBOrdering()(g)
        assert np.array_equal(np.sort(perm), np.arange(6))

    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, [], coords=np.zeros((0, 2)))
        assert rcb_order(g).size == 0

    def test_single_vertex(self):
        g = CSRGraph.from_edges(1, [], coords=np.zeros((1, 2)))
        np.testing.assert_array_equal(rcb_order(g), [0])


class TestInertial:
    def test_principal_axis_obvious_direction(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.1], [20.0, -0.1], [30.0, 0.0]])
        axis = principal_axis(pts)
        assert abs(axis[0]) > 0.99

    def test_principal_axis_degenerate(self):
        axis = principal_axis(np.zeros((5, 2)))
        np.testing.assert_allclose(axis, [1.0, 0.0])

    def test_rotated_domain_adapts(self):
        # A thin strip at 45 degrees: inertial splits along the strip.
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 20, 200)
        pts = np.stack([t + rng.normal(0, 0.1, 200), t + rng.normal(0, 0.1, 200)], axis=1)
        edges = [(i, i + 1) for i in range(199)]
        g = CSRGraph.from_edges(200, edges, coords=pts)
        order = inertial_order(g)
        proj = (pts[order] @ np.array([1.0, 1.0])) / np.sqrt(2)
        # First half of the order projects below the second half.
        assert np.median(proj[:100]) < np.median(proj[100:])


class TestSpectral:
    def test_fiedler_path_monotone(self):
        g = CSRGraph.from_edges(10, [(i, i + 1) for i in range(9)])
        from repro.graph.ops import to_scipy

        vec = fiedler_vector(to_scipy(g), rng=np.random.default_rng(0))
        diffs = np.diff(vec)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_fiedler_rejects_single_vertex(self):
        from repro.graph.ops import to_scipy

        g = CSRGraph.from_edges(1, [])
        with pytest.raises(OrderingError):
            fiedler_vector(to_scipy(g), rng=np.random.default_rng(0))

    def test_rsb_handles_disconnected(self):
        g = CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        order = rsb_order(g, leaf_size=4)
        assert np.array_equal(np.sort(order), np.arange(6))
        pos = inverse(positions_from_order(order))
        del pos
        # Components stay contiguous on the line.
        positions = positions_from_order(order)
        comp0 = sorted(positions[[0, 1, 2]])
        comp1 = sorted(positions[[3, 4, 5]])
        assert comp0 == [0, 1, 2] or comp0 == [3, 4, 5]
        assert comp1 != comp0

    def test_rsb_leaf_size_validation(self):
        with pytest.raises(OrderingError):
            rsb_order(grid_graph(3, 3), leaf_size=1)

    def test_flat_spectral_permutation(self, mesh_graph):
        order = spectral_order_flat(mesh_graph)
        assert np.array_equal(np.sort(order), np.arange(mesh_graph.num_vertices))

    def test_flat_handles_trivial(self):
        g = CSRGraph.from_edges(1, [])
        np.testing.assert_array_equal(spectral_order_flat(g), [0])


class TestSFC:
    def test_quantize_range(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25]])
        q = quantize_coords(coords, 4)
        assert q.min() >= 0 and q.max() <= 15

    def test_quantize_rejects_bad_bits(self):
        with pytest.raises(OrderingError):
            quantize_coords(np.zeros((2, 2)), 0)
        with pytest.raises(OrderingError):
            quantize_coords(np.zeros((2, 2)), 25)

    def test_quantize_degenerate_axis(self):
        coords = np.array([[0.0, 5.0], [1.0, 5.0]])
        q = quantize_coords(coords, 4)
        assert q[:, 1].max() == 0  # constant axis maps to 0

    def test_morton_2d_known_values(self):
        # Grid cell (x=1, y=0) -> key 1; (0,1) -> 2; (1,1) -> 3.
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        keys = morton_keys(coords, bits=1)
        np.testing.assert_array_equal(keys, [0, 1, 2, 3])

    def test_hilbert_2x2_is_curve(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        keys = hilbert_keys_2d(coords, bits=1)
        np.testing.assert_array_equal(keys, [0, 1, 2, 3])

    def test_hilbert_adjacency_property(self):
        # Consecutive Hilbert positions are neighboring grid cells.
        bits = 3
        side = 2**bits
        xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
        keys = hilbert_keys_2d(coords, bits=bits)
        order = np.argsort(keys)
        pts = coords[order]
        steps = np.abs(np.diff(pts, axis=0)).sum(axis=1)
        np.testing.assert_allclose(steps, 1.0)  # unit Manhattan steps

    def test_morton_has_jumps_hilbert_does_not(self):
        bits = 4
        side = 2**bits
        xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
        h = coords[np.argsort(hilbert_keys_2d(coords, bits=bits))]
        m = coords[np.argsort(morton_keys(coords, bits=bits))]
        h_steps = np.abs(np.diff(h, axis=0)).sum(axis=1)
        m_steps = np.abs(np.diff(m, axis=0)).sum(axis=1)
        assert h_steps.max() == 1.0
        assert m_steps.max() > 1.0

    def test_morton_3d(self):
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        keys = morton_keys(coords, bits=2)
        assert keys[0] < keys[1]

    def test_hilbert_rejects_3d(self):
        with pytest.raises(OrderingError):
            hilbert_keys_2d(np.zeros((2, 3)))

    def test_sfc_order_bad_curve(self):
        with pytest.raises(OrderingError):
            sfc_order(grid_graph(2, 2), curve="peano")

    @given(st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_hilbert_is_bijection_on_grid(self, bits):
        side = 2**bits
        xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
        keys = hilbert_keys_2d(coords, bits=bits)
        assert np.unique(keys).size == side * side
        assert keys.max() == side * side - 1
