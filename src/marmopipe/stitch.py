"""Mosaic reconstruction from tiles: margin cropping, placement, blending.

Tiles carry stage world coordinates which are trusted as-is (no correlation
refinement; block-face acquisition has no in-plane distortion).  Offsets are
converted to integer pixels with round-half-away-from-zero so layouts are
reproducible across platforms.  Overlap bands are fused with a separable
linear ramp per tile, renormalized per pixel, which preserves constants even
where four tiles meet.

A section's layout needs only the tiles' headers, so a whole stack can be planned
and checked (``plan_layout``, ``section_spacing``) before its sections are
assembled one at a time.  What the tiles of a layout cover (``blend_coverage``:
ramp sums, tile counts, which pixels blend) does not depend on their pixels, so
sections that share a layout share it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .imgcore import Stack3D, Tile2D

log = logging.getLogger(__name__)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5)).astype(np.int64)


@dataclass
class MosaicLayout:
    """Integer pixel placement of one section's tiles.

    ``offsets[i]`` is the (ox, oy) of tile i in the section frame;
    ``extent`` is (width, height); ``tile_extent`` the common (w, h) of the
    placed tiles.
    """

    offsets: list[tuple[int, int]]
    extent: tuple[int, int]
    tile_extent: tuple[int, int]


def plan_layout(tiles, margin: int = 0) -> MosaicLayout:
    """Derive integer pixel offsets for one section from world coordinates.

    The layout places the tiles as ``crop_margins(tile, margin)`` leaves them.  Tiles
    need only ``world_offset``, ``pixel_pitch``, ``width`` and ``height``, so a
    ``TileInfo`` serves as well as a ``Tile2D``: a section is planned from its tile
    headers before any pixel is read.
    """
    if not tiles:
        raise ValueError("no tiles to lay out")
    pitch = tiles[0].pixel_pitch
    z = tiles[0].world_offset[2]
    shape = (tiles[0].height, tiles[0].width)
    for t in tiles:
        if abs(t.pixel_pitch - pitch) > 1e-9:
            raise ValueError("inconsistent pixel pitch within section")
        if abs(t.world_offset[2] - z) > 1e-6:
            raise ValueError("tiles of one section must share the z coordinate")
        if (t.height, t.width) != shape:
            raise ValueError("tiles of one section must share the extent")
    _check_margin(margin, shape[1], shape[0])

    # crop_margins moves a tile's origin by margin * its own pitch
    xs = _round_half_away(np.array([(t.world_offset[0] + margin * t.pixel_pitch) / pitch
                                    for t in tiles]))
    ys = _round_half_away(np.array([(t.world_offset[1] + margin * t.pixel_pitch) / pitch
                                    for t in tiles]))
    xs -= xs.min()
    ys -= ys.min()
    th, tw = shape[0] - 2 * margin, shape[1] - 2 * margin
    extent = (int(xs.max()) + tw, int(ys.max()) + th)
    offsets = [(int(x), int(y)) for x, y in zip(xs, ys)]

    if len(tiles) > 1:
        for i, (ox, oy) in enumerate(offsets):
            touches = any(
                abs(ox - px) < tw and abs(oy - py) < th
                for j, (px, py) in enumerate(offsets)
                if j != i
            )
            if not touches:
                log.warning("tile %d at offset (%d, %d) is disjoint from all others", i, ox, oy)
    return MosaicLayout(offsets=offsets, extent=extent, tile_extent=(tw, th))


def _check_margin(margin: int, width: int, height: int) -> None:
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if margin and 2 * margin >= min(width, height):
        raise ValueError(f"margin {margin} too large for {width}x{height} tile")


def crop_margins(tile: Tile2D, margin: int) -> Tile2D:
    """Centered crop removing ``margin`` pixels from every tile boundary."""
    _check_margin(margin, tile.width, tile.height)
    if margin == 0:
        return tile
    x, y, z = tile.world_offset
    shift = margin * tile.pixel_pitch
    return Tile2D(
        pixels=tile.pixels[margin:-margin, margin:-margin],
        channel=tile.channel,
        world_offset=(x + shift, y + shift, z),
        tile_index=tile.tile_index,
        pixel_pitch=tile.pixel_pitch,
    )


def _ramp(n: int) -> np.ndarray:
    # distance to the nearest tile edge; 0 on the first/last pixel
    x = np.arange(n, dtype=np.float64)
    return np.minimum(x, (n - 1) - x)


@dataclass
class BlendCoverage:
    """What a layout's tiles cover, the same for every section laid out alike.

    ``ramp`` is one tile's blend weight, ``weights`` the ramps' sum per mosaic pixel
    and ``count`` the tiles per pixel.  ``blend`` marks the pixels of two or more
    tiles with a ramp sum > 0, which take the ramp-weighted mean; ``mean`` those
    whose ramps are all 0, which take the plain mean; ``holes`` counts the pixels of
    no tile.
    """

    ramp: np.ndarray
    weights: np.ndarray
    count: np.ndarray
    blend: np.ndarray
    mean: np.ndarray
    holes: int


def blend_coverage(offsets, extent, tile_extent) -> BlendCoverage:
    """The ``BlendCoverage`` of tiles of ``tile_extent`` (w, h) at ``offsets`` in a
    mosaic of ``extent`` (w, h); the arguments are a ``MosaicLayout``'s, as tuples."""
    (w, h), (tw, th) = extent, tile_extent
    ramp = _ramp(th)[:, None] * _ramp(tw)[None, :]
    weights = np.zeros((h, w), dtype=np.float64)
    count = np.zeros((h, w), dtype=np.min_scalar_type(len(offsets)))
    for ox, oy in offsets:
        sl = (slice(oy, oy + th), slice(ox, ox + tw))
        weights[sl] += ramp
        count[sl] += 1
    multi = count > 1
    blend = multi & (weights > 0)
    return BlendCoverage(ramp=ramp, weights=weights, count=count, blend=blend,
                         mean=multi & ~blend, holes=int((count == 0).sum()))


def assemble_slice(tiles: list[Tile2D], layout: MosaicLayout | None = None, margin: int = 50,
                   coverage: BlendCoverage | None = None) -> np.ndarray:
    """Fuse one section's tiles into a single 2D image.

    Tiles are margin-cropped, placed at their layout offsets, and fused with
    per-tile separable linear ramps (zero on the cropped edges) renormalized
    to sum 1 per pixel.  Pixels covered by exactly one tile keep that tile's
    values untouched; pixels covered by none are 0 and counted in a warning.
    ``coverage`` is the layout's ``blend_coverage``, computed here if not given,
    so a stack whose sections share a layout computes it once.
    """
    if layout is None:
        layout = plan_layout(tiles, margin)
    tw, th = layout.tile_extent
    cropped = []
    for t in tiles:
        _check_margin(margin, t.width, t.height)
        cropped.append(t.pixels[margin:t.height - margin, margin:t.width - margin])
    if len(cropped) != len(layout.offsets) or any(p.shape != (th, tw) for p in cropped):
        raise ValueError("layout tile extent does not match the tiles")
    if coverage is None:
        coverage = blend_coverage(tuple(layout.offsets), layout.extent, layout.tile_extent)

    w, h = layout.extent
    plain = np.zeros((h, w), dtype=np.float64)
    weighted = np.zeros((h, w), dtype=np.float64)
    product = np.empty((th, tw), dtype=np.float64)
    for pixels, (ox, oy) in zip(cropped, layout.offsets):
        sl = (slice(oy, oy + th), slice(ox, ox + tw))
        plain[sl] += pixels
        weighted[sl] += np.multiply(coverage.ramp, pixels, out=product)

    # the result is built in `plain`: single-tile pixels keep their value, holes stay 0;
    # overlaps take the ramp-weighted mean, or the plain mean where the ramps' sum is 0
    np.divide(plain, coverage.count, out=plain, where=coverage.mean)
    np.divide(weighted, coverage.weights, out=plain, where=coverage.blend)
    if coverage.holes:
        log.warning("%d mosaic pixels had no contributing tile (filled 0)", coverage.holes)
    return plain


def section_spacing(zs, extents) -> float:
    """The z step of sections at ascending ``zs`` (µm) whose mosaics have ``extents``.

    Extents must be equal and spacing uniform (ValueError otherwise); a single section
    is taken to be 50 µm thick.
    """
    if any(e != extents[0] for e in extents):
        raise ValueError("sections must share the same extent")
    zs = np.array(zs, dtype=np.float64)
    if len(zs) > 1:
        steps = np.diff(zs)
        if np.ptp(steps) > 1e-6:
            raise ValueError(f"non-uniform section spacing: {sorted(set(steps))}")
        return float(steps[0])
    return 50.0


def assemble_stack(sections, pitch_um: float = 1.34, channel: str = "NONE", dtype: str = "u16") -> Stack3D:
    """Stack assembled sections, ordered by ascending z (see ``section_spacing``).

    ``sections`` is a sequence of ``(z_um, image2d)`` pairs.  The stitch stage does
    not hold a whole stack: it writes each section as it is assembled.
    """
    if not sections:
        raise ValueError("no sections")
    ordered = sorted(sections, key=lambda s: s[0])
    dz = section_spacing([z for z, _ in ordered], [np.asarray(img).shape for _, img in ordered])
    data = np.stack([np.asarray(img, dtype=np.float64) for _, img in ordered])
    return Stack3D(data=data, voxel_size=(pitch_um, pitch_um, dz), channel=channel, dtype=dtype)
