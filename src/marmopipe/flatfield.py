"""Multiplicative shading (vignette) estimation and flat-field correction.

The shading field is estimated by averaging a whole tile stream per pixel,
excluding dark and bright outliers, and normalizing the average to mean 1.
Correction divides a tile by the field.  The darkfield is taken to be zero
(raster-scanning two-photon acquisition), so no offset is subtracted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .imgcore import U16_MAX, Stack3D, Tile2D

log = logging.getLogger(__name__)


@dataclass
class ShadingField:
    """Mean-normalized multiplicative shading estimate for one channel.

    ``values`` averages exactly 1 over the grid; ``valid_count`` holds the
    number of non-outlier contributions per pixel (pixels with zero valid
    contributions were filled with 1).
    """

    values: np.ndarray
    channel: str
    sample_count: int = 0
    valid_count: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("shading field must be 2D")
        if (self.values <= 0).any():
            raise ValueError("shading field must be strictly positive")


def estimate_shading(tiles, lower_cut: float = 2.0, upper_cut: float = 2500.0) -> ShadingField:
    """Estimate the shading field of one channel from a stream of ``Tile2D``.

    Per pixel, values outside [lower_cut, upper_cut] are treated as outliers
    (dark pixels carry no information, bright ones are most likely tracer
    signal) and excluded from the running average.  The average is kept as
    per-pixel (sum, count) accumulators in double precision, which makes the
    result independent of the stream order up to float rounding.

    The averaged grid is divided by its own mean so the field has mean 1;
    pixels that never received a valid contribution are set to 1 (i.e. left
    uncorrected) and reported via ``valid_count`` and a warning.
    """
    if lower_cut >= upper_cut:
        raise ValueError("lower_cut must be < upper_cut")

    sums = None
    counts = None
    channel = None
    extent = None
    n_tiles = 0
    for tile in tiles:
        pix, ch = tile.pixels, tile.channel
        if sums is None:
            extent = pix.shape
            channel = ch
            sums = np.zeros(extent, dtype=np.float64)
            counts = np.zeros(extent, dtype=np.int64)
        elif pix.shape != extent:
            raise ValueError(f"inconsistent tile extent {pix.shape} vs {extent}")
        elif ch != channel:
            raise ValueError(f"mixed channels in tile stream: {ch} vs {channel}")
        ok = pix >= lower_cut
        ok &= pix <= upper_cut
        np.add(sums, pix, out=sums, where=ok)
        counts += ok
        n_tiles += 1
    if n_tiles == 0:
        raise ValueError("empty tile stream")

    valid = counts > 0
    values = np.ones(extent, dtype=np.float64)
    if valid.any():
        mean = sums[valid] / counts[valid]
        values[valid] = mean / mean.mean()
    n_holes = int((~valid).sum())
    if n_holes:
        log.warning("%d/%d pixels had no valid contribution; left uncorrected", n_holes, values.size)
    return ShadingField(values=values, channel=channel, sample_count=n_tiles, valid_count=counts)


def correct_tile(tile: Tile2D, field: ShadingField) -> Tile2D:
    """Divide a tile by the shading field (flat-field correction).

    The result is clamped to the representable intensity range [0, 65535];
    values stay float in memory and are only quantized when written out.
    """
    if field.values.shape != tile.pixels.shape:
        raise ValueError(
            f"field extent {field.values.shape} != tile extent {tile.pixels.shape}"
        )
    if field.channel != tile.channel:
        raise ValueError(f"channel mismatch: tile {tile.channel}, field {field.channel}")
    corrected = tile.pixels / field.values
    np.clip(corrected, 0.0, float(U16_MAX), out=corrected)
    return Tile2D(
        pixels=corrected,
        channel=tile.channel,
        world_offset=tile.world_offset,
        tile_index=tile.tile_index,
        pixel_pitch=tile.pixel_pitch,
    )


def field_to_stack(field: ShadingField, pitch_um: float) -> Stack3D:
    """Pack a shading field as a one-slice f32 stack for persistence; ``pitch_um`` is
    the pixel pitch of the tiles it was estimated from."""
    return Stack3D(
        data=field.values[None, :, :],
        voxel_size=(pitch_um, pitch_um, 1.0),
        channel=field.channel,
        dtype="f32",
    )


def field_from_stack(stack: Stack3D) -> ShadingField:
    if stack.data.shape[0] != 1:
        raise ValueError("shading field stack must have nz=1")
    return ShadingField(values=stack.data[0], channel=stack.channel)
