"""Recursive coordinate bisection (RCB) indexing — paper Fig. 2.

RCB repeatedly splits the point set at the median of its widest coordinate
axis.  Used here not to produce p parts directly but to produce the full
1-D *ordering*: recursing to singletons yields a permutation in which
physically proximate vertices get nearby indices, so "partitioning is
equivalent to assigning contiguous blocks" (Sec. 3.1) for any p.

The bisection tree is built level-synchronously.  The vertex arrangement
is one array of contiguous segments, one per tree node; each of the
⌈log2 n⌉ levels picks every segment's split axis at once (``reduceat``
extents), orders all segments with one O(n log n) segmented sort, and
splits each segment in place into its lower and upper half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OrderingError
from repro.graph.csr import CSRGraph
from repro.partition.ordering import positions_from_order, require_coords
from repro.utils.rng import SeedLike, as_generator

__all__ = ["RCBOrdering", "rcb_order", "rcb_labels"]


def rcb_order(
    graph: CSRGraph,
    *,
    alternate_axes: bool = False,
    seed: SeedLike = 0,
) -> np.ndarray:
    """RCB visit order: vertex ids in 1-D sequence.

    ``alternate_axes=True`` cycles the split axis x, y, x, ... (the textbook
    variant); the default picks the widest axis per box (lowest axis on
    ties), which adapts to anisotropic domains like the airfoil channel.
    A box of n vertices splits into its n//2 lowest keys, emitted first,
    and the other n - n//2.

    A vertex's key on an axis is its coordinate plus a tiny seeded jitter.
    Keys can still tie exactly when coordinates carry a large offset (the
    jitter scales with the coordinate range, not their magnitude).  Tied
    vertices keep their previous-level arrangement, which starts from
    vertex id: the segmented sort is stable.
    """
    coords = require_coords(graph, "RCB")
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.intp)
    # Tiny deterministic jitter (1e-9 of the domain size) breaks coordinate
    # ties without perturbing real orderings.
    scale = max(float(np.ptp(coords)) if coords.size else 1.0, 1e-30)
    jitter = as_generator(seed).uniform(-1e-9, 1e-9, size=n) * scale
    dim = coords.shape[1]
    cols = [np.ascontiguousarray(coords[:, d]) for d in range(dim)]
    # Dense rank of every key (equal keys share a rank); vertex v's rank on
    # axis a is ranks[a * n + v].
    ranks = np.concatenate(
        [np.unique(c + jitter, return_inverse=True)[1] for c in cols]
    )
    order = np.arange(n, dtype=np.intp)
    # Segments still to split (size > 1): offset into order, and size.
    starts = np.zeros(1, dtype=np.intp)
    sizes = np.full(1, n, dtype=np.intp)
    depth = out = 0
    while starts.size:
        first = np.cumsum(sizes) - sizes
        seg = np.repeat(np.arange(starts.size, dtype=np.int64), sizes)
        local = np.arange(seg.size) - first[seg]
        pos = starts[seg] + local
        idx = order.take(pos)
        if alternate_axes:
            axis = np.full(starts.size, depth % dim)
        else:
            extents = np.empty((dim, starts.size))
            for d, col in enumerate(cols):
                sub = col.take(idx)
                extents[d] = np.maximum.reduceat(sub, first)
                extents[d] -= np.minimum.reduceat(sub, first)
            axis = np.argmax(extents, axis=0)
        # One segmented sort by (segment, key rank, position).  The composite
        # is unique, so any argsort gives the stable np.lexsort((key, seg));
        # sizes at one level differ by at most 1, so it is below 2 n**2.
        key = seg * n + ranks.take(axis[seg] * n + idx)
        order[pos] = idx.take(np.argsort(key * int(sizes.max()) + local))
        half = sizes // 2
        starts = np.stack([starts, starts + half], axis=1).ravel()
        sizes = np.stack([half, sizes - half], axis=1).ravel()
        out += int(np.count_nonzero(sizes == 1))
        starts, sizes = starts[sizes > 1], sizes[sizes > 1]
        depth += 1
    if out != n:
        raise OrderingError(f"RCB emitted {out} of {n} vertices (internal bug)")
    return order


def rcb_labels(
    graph: CSRGraph, num_parts: int, *, seed: SeedLike = 0
) -> np.ndarray:
    """Direct RCB partition labels for *num_parts* equal parts.

    Convenience wrapper: contiguous blocks of the RCB order.  Kept for
    comparison against contiguous-interval partitioning of the ordering
    (they coincide when num_parts is a power of two).
    """
    if num_parts < 1:
        raise OrderingError(f"num_parts must be >= 1, got {num_parts}")
    order = rcb_order(graph, seed=seed)
    labels = np.empty(graph.num_vertices, dtype=np.intp)
    bounds = np.linspace(0, graph.num_vertices, num_parts + 1).astype(np.intp)
    for part in range(num_parts):
        labels[order[bounds[part] : bounds[part + 1]]] = part
    return labels


@dataclass(frozen=True)
class RCBOrdering:
    """Recursive coordinate bisection as an :class:`OrderingMethod`."""

    alternate_axes: bool = False
    seed: SeedLike = 0
    name: str = "rcb"

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        return positions_from_order(
            rcb_order(graph, alternate_axes=self.alternate_axes, seed=self.seed)
        )
