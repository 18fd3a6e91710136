"""Connected component labeling on binary grids (any rank).

Components are found by a vectorized union-find over the foreground voxels,
taken in linear-index order.  Every neighbour pair inside the grid is an edge;
each round hooks the larger root of every edge that still joins two trees
onto the smaller one, then pointer-jumps until every tree is a star.  Hooking
always points to a smaller index, so each component's root ends as its
smallest linear index (cf. He, Chao & Suzuki 2008, IEEE TIP 17(5); Wu, Otoo &
Suzuki 2009, PAA 12:117).  A round is a fixed number of whole-array numpy
passes plus one gather per pointer jump; nothing loops in Python per
component, seed or frontier step.

Label k is the component whose smallest linear index is the k-th smallest
among all components.  That ordering is what makes largest-component
tie-breaking deterministic.
"""

from __future__ import annotations

import numpy as np

CONN_6_3D = tuple(
    d
    for d in (
        (-1, 0, 0), (1, 0, 0),
        (0, -1, 0), (0, 1, 0),
        (0, 0, -1), (0, 0, 1),
    )
)

CONN_8_2D = tuple(
    (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)
)


def _forward_offsets(offsets) -> list[tuple[int, ...]]:
    """Each neighbour step once, signed so that its first nonzero entry is
    positive: the neighbour then has the larger linear index."""
    steps = set()
    for d in offsets:
        d = tuple(int(v) for v in d)
        if any(d):
            steps.add(d if next(v for v in d if v) > 0 else tuple(-v for v in d))
    return sorted(steps)


def _edges(rank: np.ndarray, mask: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """Ranks (i, j) of foreground neighbours j = i + step inside the grid."""
    src, dst = [], []
    for n, k in zip(mask.shape, step):
        length = max(n - abs(k), 0)
        src.append(slice(max(-k, 0), max(-k, 0) + length))
        dst.append(slice(max(k, 0), max(k, 0) + length))
    src, dst = tuple(src), tuple(dst)
    both = mask[src] & mask[dst]
    return rank[src][both], rank[dst][both]


def label_components(mask: np.ndarray, offsets) -> tuple[np.ndarray, int]:
    """Label the connected components of a boolean grid.

    ``offsets`` lists neighbor index deltas (e.g. ``CONN_6_3D``); adjacency
    is symmetric, so ``d`` and ``-d`` name the same step.  Returns
    ``(labels, count)`` where labels is int64, -1 on background, and
    components are numbered 0..count-1 in order of their minimum linear index.
    """
    mask = np.asarray(mask, dtype=bool)
    labels = np.full(mask.shape, -1, dtype=np.int64)
    flat_labels = labels.reshape(-1)
    fg = np.flatnonzero(mask)
    n = fg.size
    # labels doubles as the rank map (linear index -> position in fg) until
    # the final labels overwrite it
    flat_labels[fg] = np.arange(n)
    pairs = [_edges(labels, mask, s) for s in _forward_offsets(offsets)]
    lo = np.concatenate([np.empty(0, np.int64)] + [i for i, _ in pairs])
    hi = np.concatenate([np.empty(0, np.int64)] + [j for _, j in pairs])
    del pairs

    parent = np.arange(n)
    while lo.size:
        np.minimum.at(parent, hi, lo)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        lo, hi = parent[lo], parent[hi]
        joins = lo != hi
        lo, hi = lo[joins], hi[joins]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)

    roots = parent == np.arange(n)
    flat_labels[fg] = (np.cumsum(roots) - 1)[parent]
    return labels, int(roots.sum())


def largest_component_mask(mask: np.ndarray, offsets) -> np.ndarray:
    """Keep only the largest component (ties: smallest minimum linear index)."""
    labels, count = label_components(mask, offsets)
    if count == 0:
        return np.zeros_like(np.asarray(mask, dtype=bool))
    sizes = np.bincount(labels[labels >= 0], minlength=count)
    return labels == int(np.argmax(sizes))
