"""Injection-site localization.

Two stages: a rough volume estimate on the low-resolution injection-site
channel (threshold, Gaussian smoothing of the binary volume, relative
re-threshold at half the maximum, largest connected component by
``_cc.largest_component_mask``), and precise per-slice cell detection on the
high-resolution stack from a saliency map (either the trained network or the
hand-crafted Hessian blob filter).  ``roi_from_mask`` maps the mask to one
rectangle per slice, a plain ``{z: (x0, y0, x1, y1)}`` clipped to the
high-resolution extent, from which the detection windows are cut.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._cc import CONN_6_3D, largest_component_mask
from .imgcore import Stack3D, gaussian_blur, parse_rows

log = logging.getLogger(__name__)

HESSIAN_EPS = 1e-12


@dataclass
class InjectionMask:
    """Binary rough-localization mask on the 50 µm grid."""

    mask: Stack3D

    @property
    def empty(self) -> bool:
        return not bool(self.mask.data.any())


@dataclass
class CellPointCloud:
    """Detected cell centres: integer (x, y, z) voxel coordinates + scores."""

    points: np.ndarray  # (n, 3) int64
    scores: np.ndarray  # (n,) float64

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.int64).reshape(-1, 3)
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if len(self.points) != len(self.scores):
            raise ValueError("points and scores length mismatch")

    def __len__(self) -> int:
        return len(self.points)

    def save(self, path) -> None:
        lines = [
            f"{x} {y} {z} {float(s)!r}"
            for (x, y, z), s in zip(self.points, self.scores)
        ]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path) -> "CellPointCloud":
        """Read saved cells; a line other than ``x y z score`` is a FormatError that names
        the file and the line."""
        def row(line):
            x, y, z, score = line.split()
            return (int(x), int(y), int(z)), float(score)
        rows = parse_rows(path, "'x y z score'", row)
        return cls(points=[point for point, _ in rows], scores=[score for _, score in rows])


def rough_localize(low_cb: Stack3D, t_raw: float = 4500.0, sigma_um: float = 150.0) -> InjectionMask:
    """Rough injection-site mask from the low-resolution C_B stack.

    Voxels brighter than ``t_raw`` are candidates; smoothing the 0/1 volume
    with an isotropic Gaussian (sigma in µm) measures the local candidate
    density, which is re-thresholded at half its own maximum and reduced to
    the largest connected component.  Because the second threshold is
    relative, the kernel normalization drops out of the result.
    """
    candidates = (low_cb.data > t_raw).astype(np.float64)
    if candidates.any():
        vx, vy, vz = low_cb.voxel_size
        smoothed = gaussian_blur(candidates, sigma_um, voxel_size=(vz, vy, vx))
        t_low = 0.5 * float(smoothed.max())
        kept = largest_component_mask(smoothed > t_low, CONN_6_3D)
    else:
        log.warning("no voxel above t_raw=%g; empty injection mask", t_raw)
        kept = candidates
    mask = Stack3D(data=kept.astype(np.float64), voxel_size=low_cb.voxel_size,
                   channel=low_cb.channel, dtype="u16")
    return InjectionMask(mask=mask)


def hessian_cell_filter(image: np.ndarray, sigmas) -> np.ndarray:
    """Multi-scale Hessian blob response for roundish bright structures.

    Per scale: Gaussian blur, Hessian by central differences, eigenvalues
    ordered |l1| >= |l2|; the response ``-l1 * |l2| / (|l1| + eps)`` is gated
    to pixels with l2 < 0, which removes saddle points (edges, ridges).  The
    returned map is the per-pixel maximum over all scales.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("hessian_cell_filter expects a 2D slice")
    sigmas = tuple(float(s) for s in sigmas)
    if not sigmas:
        raise ValueError("need at least one scale")
    if any(s <= 0 for s in sigmas):
        raise ValueError("scales must be > 0")

    # Each scale is computed in place in buffers kept across scales; every step is the
    # elementwise operation, in the order, of
    #   hxx = p[1:-1, 2:] - 2.0 * g + p[1:-1, :-2]  (hyy likewise along y)
    #   hxy = 0.25 * (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2])
    #   mean = 0.5 * (hxx + hyy);  root = np.sqrt(0.25 * (hxx - hyy) ** 2 + hxy ** 2)
    #   l1, l2 = mean ± root, ordered |l1| >= |l2| (l1 = mean - root where that is larger)
    #   resp = -l1 * np.abs(l2) / (np.abs(l1) + HESSIAN_EPS) * (l2 < 0)
    # so the response keeps that expression's bits.
    hxx, hyy, hxy, mean, root, resp = (np.empty_like(image) for _ in range(6))
    swap = np.empty(image.shape, dtype=bool)
    best = None
    for sigma in sigmas:
        g = gaussian_blur(image, sigma)
        p = np.pad(g, 1, mode="reflect")
        g *= 2.0
        np.subtract(p[1:-1, 2:], g, out=hxx)
        hxx += p[1:-1, :-2]
        np.subtract(p[2:, 1:-1], g, out=hyy)
        hyy += p[:-2, 1:-1]
        np.subtract(p[2:, 2:], p[2:, :-2], out=hxy)
        hxy -= p[:-2, 2:]
        hxy += p[:-2, :-2]
        hxy *= 0.25
        del g, p  # not held through the next scale's blur
        np.add(hxx, hyy, out=mean)
        mean *= 0.5
        np.subtract(hxx, hyy, out=root)
        np.square(root, out=root)
        root *= 0.25
        np.square(hxy, out=hxy)
        root += hxy
        np.sqrt(root, out=root)
        l1, l2 = hxx, hyy
        np.add(mean, root, out=l1)
        np.subtract(mean, root, out=l2)
        np.abs(l2, out=mean)
        np.abs(l1, out=root)
        np.greater(mean, root, out=swap)
        np.copyto(mean, l1, where=swap)
        np.copyto(l1, l2, where=swap)
        np.copyto(l2, mean, where=swap)
        np.negative(l1, out=resp)
        np.abs(l2, out=hxy)
        resp *= hxy
        np.abs(l1, out=hxy)
        hxy += HESSIAN_EPS
        resp /= hxy
        np.less(l2, 0, out=swap)
        resp *= swap
        if best is None:
            best, resp = resp, np.empty_like(image)
        else:
            np.maximum(best, resp, out=best)
    return best


def _slice_maxima(sal: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean map of strict 8-neighbor local maxima above threshold."""
    p = np.pad(sal, 1, mode="constant", constant_values=-np.inf)
    strict = np.ones_like(sal, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if (dy, dx) == (0, 0):
                continue
            strict &= sal > p[1 + dy:1 + dy + sal.shape[0], 1 + dx:1 + dx + sal.shape[1]]
    return strict & (sal > threshold)


def detect_cells(saliency: np.ndarray, t_high: float = 0.5) -> CellPointCloud:
    """Per-slice strict local maxima above ``t_high``.

    ``saliency`` is a (nz, ny, nx) or a 2D (ny, nx) array; points are (x, y, z)
    with z = 0 for a 2D slice.  Detection is purely in-plane (8-neighbor);
    plateaus of exactly equal values yield no detection.
    """
    vol = np.asarray(saliency, dtype=np.float64)
    if vol.ndim == 2:
        vol = vol[None]
    points, scores = [np.empty((0, 3), np.int64)], [np.empty(0)]
    for z in range(vol.shape[0]):
        ys, xs = np.nonzero(_slice_maxima(vol[z], t_high))
        points.append(np.column_stack([xs, ys, np.full_like(xs, z)]))
        scores.append(vol[z, ys, xs])
    return CellPointCloud(points=np.concatenate(points), scores=np.concatenate(scores))


def roi_from_mask(mask: InjectionMask, extent, high_voxel_um: float = 1.34,
                  pad_px: int = 8) -> dict[int, tuple[int, int, int, int]]:
    """Map the low-resolution mask to high-resolution per-slice rectangles.

    In-plane, mask voxel (x, y) covers the block [x*s, (x+1)*s) x
    [y*s, (y+1)*s) with s = low/high, the low voxel being the mask's own; z maps
    1:1 (both stacks are cut from the same 50 µm sections).  Rectangles are padded
    by ``pad_px`` and clipped to the high-resolution ``extent`` (width, height).
    Returns ``{z: (x0, y0, x1, y1)}``, half-open, for each slice with a mask voxel.
    """
    if mask.empty:
        raise ValueError("empty injection mask has no ROI")
    s = mask.mask.voxel_size[0] / high_voxel_um
    width, height = extent
    rects = {}
    for z in range(mask.mask.data.shape[0]):
        ys, xs = np.nonzero(mask.mask.data[z] > 0)
        if len(xs) == 0:
            continue
        x0 = int(round(xs.min() * s)) - pad_px
        y0 = int(round(ys.min() * s)) - pad_px
        x1 = int(round((xs.max() + 1) * s)) + pad_px
        y1 = int(round((ys.max() + 1) * s)) + pad_px
        rects[z] = (max(0, x0), max(0, y0), min(width, x1), min(height, y1))
    return rects
