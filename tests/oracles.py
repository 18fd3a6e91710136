"""Brute-force reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, BFS queues, dense
kernels) and independent of the library's vectorized code paths.  The naive
3D references (block mean, dense Gaussian blur, largest 6-connected
component, rough localization) live in ``marmopipe.evalsynth``, which builds
the phantom truth with them; the tests call those directly.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


OFFSETS_8 = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]


def subtract_oracle(cg, cr, t):
    out = np.zeros(cg.shape)
    for y in range(cg.shape[0]):
        for x in range(cg.shape[1]):
            out[y, x] = 0.0 if cg[y, x] < t * cr[y, x] else cg[y, x] - t * cr[y, x]
    return out


def reconstruct_oracle(marker: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Flood fill seeded at the marker, constrained to the mask (8-conn)."""
    out = np.zeros(mask.shape, dtype=bool)
    seen = np.zeros(mask.shape, dtype=bool)
    queue = deque(map(tuple, np.argwhere(marker)))
    for s in queue:
        seen[s] = True
    while queue:
        cy, cx = queue.popleft()
        out[cy, cx] = True
        for dy, dx in OFFSETS_8:
            ny, nx = cy + dy, cx + dx
            if 0 <= ny < mask.shape[0] and 0 <= nx < mask.shape[1] \
                    and mask[ny, nx] and not seen[ny, nx]:
                seen[ny, nx] = True
                queue.append((ny, nx))
    return out


def dilate_oracle(binary: np.ndarray, radius: int) -> np.ndarray:
    h, w = binary.shape
    out = np.zeros_like(binary, dtype=bool)
    for y in range(h):
        for x in range(w):
            if not binary[y, x]:
                continue
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    if dy * dy + dx * dx <= radius * radius:
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w:
                            out[ny, nx] = True
    return out


def erode_oracle(binary: np.ndarray, radius: int) -> np.ndarray:
    """Erosion treating outside the grid as foreground (matches a padded
    closing, where the dilation halo extends beyond the crop)."""
    h, w = binary.shape
    out = np.ones_like(binary, dtype=bool)
    for y in range(h):
        for x in range(w):
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    if dy * dy + dx * dx <= radius * radius:
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and not binary[ny, nx]:
                            out[y, x] = False
    return out


def close_oracle(binary: np.ndarray, radius: int) -> np.ndarray:
    pad = 2 * radius
    padded = np.zeros((binary.shape[0] + 2 * pad, binary.shape[1] + 2 * pad), dtype=bool)
    padded[pad:-pad, pad:-pad] = binary
    closed = erode_oracle(dilate_oracle(padded, radius), radius)
    return closed[pad:-pad, pad:-pad]


def optimal_match_count(pred_points, truth_points, radius) -> int:
    """Maximum bipartite matching size (augmenting-path search)."""
    pred = list(map(tuple, pred_points))
    truth = list(map(tuple, truth_points))

    def ok(p, t):
        return p[2] == t[2] and (p[0] - t[0]) ** 2 + (p[1] - t[1]) ** 2 <= radius ** 2

    edges = [[j for j, t in enumerate(truth) if ok(p, t)] for p in pred]
    owner = [-1] * len(truth)

    def try_assign(i, seen):
        for j in edges[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or try_assign(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    matched = 0
    for i in range(len(pred)):
        if try_assign(i, [False] * len(truth)):
            matched += 1
    return matched


def linear_resample_oracle(data: np.ndarray, coords_zyx) -> float:
    """Scalar trilinear interpolation with zero outside the domain."""
    nz, ny, nx = data.shape
    cz, cy, cx = coords_zyx
    z0, y0, x0 = math.floor(cz), math.floor(cy), math.floor(cx)
    total = 0.0
    for dz in (0, 1):
        for dy in (0, 1):
            for dx in (0, 1):
                wz = 1 - abs(cz - (z0 + dz))
                wy = 1 - abs(cy - (y0 + dy))
                wx = 1 - abs(cx - (x0 + dx))
                w = wz * wy * wx
                if w == 0:
                    continue
                z, y, x = z0 + dz, y0 + dy, x0 + dx
                if 0 <= z < nz and 0 <= y < ny and 0 <= x < nx:
                    total += w * data[z, y, x]
    return total


def psnr(reference: np.ndarray, result: np.ndarray, peak: float = 65535.0) -> float:
    mse = float(np.mean((reference - result) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * math.log10(peak * peak / mse)
