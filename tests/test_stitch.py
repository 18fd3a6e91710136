import functools

import numpy as np
import pytest

from marmopipe import cli
from marmopipe.imgcore import Tile2D, write_tile
from marmopipe.stitch import (
    assemble_slice,
    assemble_stack,
    blend_coverage,
    crop_margins,
    plan_layout,
)

import oracles


def tile_at(pixels, x_um, y_um, z_um=0.0, pitch=1.34, index=0, channel="CG"):
    return Tile2D(
        pixels=np.asarray(pixels, dtype=np.float64),
        channel=channel,
        world_offset=(x_um, y_um, z_um),
        tile_index=index,
        pixel_pitch=pitch,
    )


def cut_tiles(image, tile, raw_overlap, pitch=1.0, z=0.0):
    """Cut an image into a full grid of overlapping tiles."""
    h, w = image.shape
    step = tile - raw_overlap
    tiles = []
    ys = list(range(0, h - tile + 1, step))
    xs = list(range(0, w - tile + 1, step))
    idx = 0
    for oy in ys:
        for ox in xs:
            tiles.append(tile_at(image[oy:oy + tile, ox:ox + tile],
                                 ox * pitch, oy * pitch, z, pitch=pitch, index=idx))
            idx += 1
    return tiles


class TestPlanLayout:
    def test_paper_constants(self):
        t0 = tile_at(np.zeros((720, 720)), 0.0, 0.0)
        t1 = tile_at(np.zeros((720, 720)), 750.0, 0.0, index=1)
        layout = plan_layout([t0, t1])
        assert layout.offsets == [(0, 0), (560, 0)]

    def test_single_tile(self):
        layout = plan_layout([tile_at(np.zeros((8, 8)), 100.0, 50.0)])
        assert layout.offsets == [(0, 0)]
        assert layout.extent == (8, 8)

    def test_grid_cut_positions_recovered(self):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 1000, (100, 100)).astype(float)
        tiles = cut_tiles(image, tile=60, raw_overlap=20)
        layout = plan_layout(tiles)
        assert layout.offsets == [(0, 0), (40, 0), (0, 40), (40, 40)]

    def test_inconsistent_z(self):
        t0 = tile_at(np.zeros((4, 4)), 0, 0, z_um=0.0)
        t1 = tile_at(np.zeros((4, 4)), 0, 0, z_um=50.0)
        with pytest.raises(ValueError, match="z"):
            plan_layout([t0, t1])

    def test_round_half_away_from_zero(self):
        t0 = tile_at(np.zeros((8, 8)), 0.0, 0.0, pitch=1.0)
        t1 = tile_at(np.zeros((8, 8)), 2.5, 0.0, pitch=1.0, index=1)
        layout = plan_layout([t0, t1])
        assert layout.offsets[1][0] - layout.offsets[0][0] == 3


class TestCropMargins:
    def test_paper_margin(self):
        tile = tile_at(np.zeros((720, 720)), 0.0, 0.0)
        out = crop_margins(tile, 50)
        assert out.pixels.shape == (620, 620)
        assert out.world_offset[0] == pytest.approx(50 * 1.34)

    def test_zero_margin_identity(self):
        tile = tile_at(np.arange(16.0).reshape(4, 4), 5.0, 6.0)
        out = crop_margins(tile, 0)
        assert out is tile

    def test_margin_too_large(self):
        tile = tile_at(np.zeros((720, 720)), 0.0, 0.0)
        with pytest.raises(ValueError, match="margin"):
            crop_margins(tile, 360)


class TestAssembleSlice:
    def test_constant_tiles_exactly_constant(self):
        image = np.full((100, 160), 1234.0)
        tiles = cut_tiles(image, tile=100, raw_overlap=40)
        out = assemble_slice(tiles, margin=10)
        assert out.shape == (80, 140)
        assert np.all(out == 1234.0)

    def test_reassembly_matches_source(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 65536, (120, 120)).astype(float)
        tiles = cut_tiles(image, tile=70, raw_overlap=20)
        out = assemble_slice(tiles, margin=0)
        assert out.shape == (120, 120)
        assert np.abs(out - image).max() < 0.5
        assert oracles.psnr(image, out) > 50.0

    def test_reassembly_with_margin_psnr(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 65536, (200, 200)).astype(float)
        tiles = cut_tiles(image, tile=120, raw_overlap=40)  # 80 raw - 2*20 margin
        out = assemble_slice(tiles, margin=10)
        inner = image[10:-10, 10:-10]
        assert out.shape == inner.shape
        assert oracles.psnr(inner, out) > 50.0

    def test_smooth_phantom_seam_free(self):
        yy, xx = np.mgrid[0:200, 0:200].astype(float)
        image = 500 + 200 * np.sin(xx / 23.0) * np.cos(yy / 31.0)
        tiles = cut_tiles(image, tile=120, raw_overlap=40)
        out = assemble_slice(tiles, margin=10)
        inner = image[10:-10, 10:-10]
        gx = np.abs(np.diff(out, axis=1))
        gx_src = np.abs(np.diff(inner, axis=1))
        assert gx.max() <= gx_src.max() + 1e-6

    def test_blend_weights_sum_to_one(self):
        # random constant tiles at random overlapping offsets: constants
        # are preserved only if weights renormalize per pixel
        rng = np.random.default_rng(3)
        for _ in range(10):
            tiles = []
            for i in range(4):
                x = float(rng.integers(0, 30))
                y = float(rng.integers(0, 30))
                tiles.append(tile_at(np.full((20, 20), 77.0), x, y, pitch=1.0, index=i))
            out = assemble_slice(tiles, margin=0)
            covered = out != 0
            assert np.all(out[covered] == 77.0)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        image = rng.integers(0, 65536, (100, 100)).astype(float)
        tiles = cut_tiles(image, tile=60, raw_overlap=20)
        a = assemble_slice(tiles, margin=5)
        b = assemble_slice(tiles, margin=5)
        assert np.array_equal(a, b)


class TestAssembleStack:
    def test_identical_sections(self):
        section = np.arange(12.0).reshape(3, 4)
        stack = assemble_stack([(0.0, section), (50.0, section), (100.0, section)])
        assert stack.data.shape == (3, 3, 4)
        for z in range(3):
            assert np.array_equal(stack.data[z], section)

    def test_z_spacing(self):
        section = np.zeros((2, 2))
        stack = assemble_stack([(0.0, section), (50.0, section), (100.0, section)])
        assert stack.voxel_size == (1.34, 1.34, 50.0)
        assert stack.data.shape[0] == 3

    def test_shuffled_sections_sorted(self):
        sections = [(z, np.full((2, 2), z)) for z in (100.0, 0.0, 50.0)]
        stack = assemble_stack(sections)
        assert [stack.data[z][0, 0] for z in range(3)] == [0.0, 50.0, 100.0]

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="extent"):
            assemble_stack([(0.0, np.zeros((2, 2))), (50.0, np.zeros((3, 3)))])

    def test_nonuniform_spacing(self):
        s = np.zeros((2, 2))
        with pytest.raises(ValueError, match="spacing"):
            assemble_stack([(0.0, s), (50.0, s), (140.0, s)])


def old_assemble_slice(tiles, margin):
    """``assemble_slice`` as it was written before the blend coverage was shared: every
    section cropped its tiles and summed ramps, counts and masks of its own."""
    cropped = [crop_margins(t, margin) for t in tiles]
    layout = plan_layout(cropped)
    (tw, th), (w, h) = layout.tile_extent, layout.extent
    weighted, weights, plain = np.zeros((h, w)), np.zeros((h, w)), np.zeros((h, w))
    count = np.zeros((h, w), dtype=np.int64)

    def ramp(n):
        x = np.arange(n, dtype=np.float64)
        return np.minimum(x, (n - 1) - x)

    r = ramp(th)[:, None] * ramp(tw)[None, :]
    for tile, (ox, oy) in zip(cropped, layout.offsets):
        sl = (slice(oy, oy + th), slice(ox, ox + tw))
        weighted[sl] += r * tile.pixels
        weights[sl] += r
        plain[sl] += tile.pixels
        count[sl] += 1
    multi = count > 1
    np.divide(plain, count, out=plain, where=multi)
    np.divide(weighted, weights, out=plain, where=multi & (weights > 0))
    return plain


def random_tiles(rng, positions, size, pitch=1.0):
    return [tile_at(rng.uniform(0.0, 65535.0, (size, size)), x * pitch, y * pitch,
                    pitch=pitch, index=i) for i, (x, y) in enumerate(positions)]


def grid(n, step):
    return [(i * step, j * step) for j in range(n) for i in range(n)]


class TestOldFormulaOracle:
    """The shared coverage and the margin views give the bits of the formula above."""

    @pytest.mark.parametrize("positions, size, margin", [
        ([(0, 0)], 20, 3),
        (grid(2, 13), 20, 3),                  # overlaps of 1 px: ramps sum to 0 there
        (grid(3, 17), 30, 4),
        ([(0, 0), (10, 0), (60, 40)], 20, 2),  # a disjoint tile: holes
        (grid(3, 17), 30, 0),
        ([(0.5, 0), (20.5, 0.5), (-0.5, 20)], 26, 1),  # offsets round half away
    ], ids=["1-tile", "2x2", "3x3", "holes", "margin0", "half"])
    def test_assemble_slice_bits(self, positions, size, margin):
        tiles = random_tiles(np.random.default_rng(len(positions) + margin), positions, size)
        want = old_assemble_slice(tiles, margin).tobytes()
        layout = plan_layout(tiles, margin)
        assert assemble_slice(tiles, margin=margin).tobytes() == want
        assert assemble_slice(tiles, layout=layout, margin=margin).tobytes() == want
        coverage = blend_coverage(tuple(layout.offsets), layout.extent, layout.tile_extent)
        for _ in range(2):  # one coverage serves every section of its layout
            assert assemble_slice(tiles, layout, margin, coverage).tobytes() == want
            tiles = random_tiles(np.random.default_rng(7), positions, size)
            want = old_assemble_slice(tiles, margin).tobytes()

    def test_consecutive_layouts_that_differ(self):
        """Sections of two L-shaped layouts of one extent, alternating, through a cache of
        coverages like the stitch stage's: each section gets its own layout's blend."""
        coverage = functools.lru_cache(maxsize=1)(blend_coverage)
        rng = np.random.default_rng(8)
        shapes = ([(0, 0), (14, 0), (0, 14)], [(0, 0), (14, 0), (14, 14)])
        for k in range(4):
            tiles = random_tiles(rng, shapes[k % 2], 24)
            layout = plan_layout(tiles, 2)
            cov = coverage(tuple(layout.offsets), layout.extent, layout.tile_extent)
            out = assemble_slice(tiles, layout=layout, margin=2, coverage=cov)
            assert out.tobytes() == old_assemble_slice(tiles, 2).tobytes()
        assert coverage.cache_info().misses == 4

    def test_layout_tile_count_mismatch(self):
        tiles = random_tiles(np.random.default_rng(9), grid(2, 10), 16)
        layout = plan_layout(tiles[:3], 2)
        with pytest.raises(ValueError, match="does not match the tiles"):
            assemble_slice(tiles, layout=layout, margin=2)


class TestPlanLayoutMargin:
    @pytest.mark.parametrize("pitch", [1.0, 0.5, 1.34])
    @pytest.mark.parametrize("margin", [0, 1, 3])
    def test_equals_layout_of_cropped_tiles(self, pitch, margin):
        """Planning uncropped tiles with ``margin`` gives the layout of the cropped tiles,
        including offsets that fall on a half pixel and round away from zero."""
        rng = np.random.default_rng(int(pitch * 100) + margin)
        halves = [(-2.5, 0.0), (0.0, 0.0), (2.5, -1.5), (9.5, 6.5), (-7.5, 3.5)]
        for positions in (halves, rng.uniform(-20, 20, (6, 2)).round(1).tolist()):
            tiles = [tile_at(np.zeros((12, 12)), x * pitch, y * pitch, pitch=pitch, index=i)
                     for i, (x, y) in enumerate(positions)]
            got = plan_layout(tiles, margin)
            assert got == plan_layout([crop_margins(t, margin) for t in tiles])
        assert got.tile_extent == (12 - 2 * margin,) * 2

    def test_half_pixel_offsets_round_away_from_zero(self):
        tiles = [tile_at(np.zeros((12, 12)), x, 0.0, pitch=1.0, index=i)
                 for i, x in enumerate((-3.5, 0.0, 2.5))]
        # crop_margins moves each origin by 1 px: -2.5, 1.0, 3.5 round to -3, 1, 4
        assert plan_layout(tiles, 1).offsets == [(0, 0), (4, 0), (7, 0)]


@pytest.mark.parametrize("threads", [1, 2])
def test_stitch_stage_blends_each_section_by_its_own_layout(tmp_path, threads, monkeypatch):
    """A stack whose sections alternate between two L-shaped layouts of one extent: each
    mosaic the stitch stage assembles has the bits of the old formula on its tiles."""
    rng = np.random.default_rng(10)
    shapes = ([(0, 0), (14, 0), (0, 14)], [(0, 0), (14, 0), (14, 14)])
    (tmp_path / "tiles").mkdir()
    for z in range(5):
        for i, (x, y) in enumerate(shapes[z % 2]):
            tile = tile_at(rng.integers(0, 65536, (24, 24)), x, y, z * 50.0, pitch=1.0,
                           index=i, channel="CB")
            write_tile(tile, tmp_path / "tiles" / f"z{z}_j{i}_CB.pgm")
    assemble, checked = cli.stitch.assemble_slice, []

    def checked_assemble(tiles, **kwargs):
        out = assemble(tiles, **kwargs)
        checked.append(out.tobytes() == old_assemble_slice(tiles, kwargs["margin"]).tobytes())
        return out

    monkeypatch.setattr(cli.stitch, "assemble_slice", checked_assemble)
    cfg = cli.PipelineConfig(dict(tiles=tmp_path / "tiles", out=tmp_path / "run", margin=2,
                                  flatfield="none", threads=threads))
    (tmp_path / "run").mkdir()
    cli.stitch_tiles(cfg, tmp_path / "run")
    assert checked == [True] * 5
