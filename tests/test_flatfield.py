import numpy as np
import pytest

from marmopipe.flatfield import (
    ShadingField,
    correct_tile,
    estimate_shading,
    field_from_stack,
    field_to_stack,
)
from marmopipe.imgcore import Tile2D
from marmopipe.evalsynth import background_tile_stream, vignette_field


def tile_of(arr, channel="CG"):
    return Tile2D(pixels=np.asarray(arr, dtype=np.float64), channel=channel)


class TestEstimate:
    def test_constant_stream_gives_unit_field(self):
        tiles = [tile_of(np.full((16, 16), 100.0)) for _ in range(5)]
        field = estimate_shading(tiles)
        assert np.allclose(field.values, 1.0)
        assert field.sample_count == 5
        assert np.all(field.valid_count == 5)

    def test_outlier_bounds_exclusive(self):
        base = np.full((4, 4), 100.0)
        spiked = base.copy()
        spiked[0, 0] = 1.0     # below the dark cut
        spiked[1, 1] = 3000.0  # above the bright cut
        field = estimate_shading([tile_of(base), tile_of(spiked)])
        assert field.valid_count[0, 0] == 1
        assert field.valid_count[1, 1] == 1
        assert np.allclose(field.values, 1.0)

    def test_cut_bounds_are_inclusive(self):
        lo = np.full((2, 2), 2.0)
        hi = np.full((2, 2), 2500.0)
        field = estimate_shading([tile_of(lo), tile_of(hi)])
        assert np.all(field.valid_count == 2)

    def test_mean_exactly_one(self):
        rng = np.random.default_rng(0)
        tiles = [tile_of(rng.integers(10, 200, (8, 8))) for _ in range(7)]
        field = estimate_shading(tiles)
        assert abs(field.values.mean() - 1.0) < 1e-9

    def test_order_invariant(self):
        rng = np.random.default_rng(1)
        tiles = [tile_of(rng.integers(10, 2000, (12, 12))) for _ in range(20)]
        f1 = estimate_shading(tiles)
        f2 = estimate_shading(list(reversed(tiles)))
        assert np.abs(f1.values - f2.values).max() < 1e-9

    def test_never_valid_pixels_filled_with_one(self):
        arr = np.full((4, 4), 50.0)
        arr[2, 2] = 0.0
        field = estimate_shading([tile_of(arr), tile_of(arr)])
        assert field.valid_count[2, 2] == 0
        assert field.values[2, 2] == 1.0
        assert abs(field.values.mean() - 1.0) < 1e-12

    def test_empty_stream(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_shading([])

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="extent"):
            estimate_shading([tile_of(np.ones((4, 4))), tile_of(np.ones((5, 5)))])

    def test_recovers_generating_vignette(self):
        # 300 small tiles are enough at this extent for a < 3% max error
        tiles = background_tile_stream(300, extent=64, lam=80.0, corner=0.6, seed=7)
        field = estimate_shading(tiles)
        want = vignette_field(64, 0.6)
        rel = np.abs(field.values - want) / want
        assert rel.max() < 0.03


class TestCorrect:
    def test_identity_field(self):
        tile = tile_of(np.arange(16.0).reshape(4, 4) * 100)
        field = ShadingField(values=np.ones((4, 4)), channel="CG")
        out = correct_tile(tile, field)
        assert np.array_equal(out.pixels, tile.pixels)

    def test_exact_inversion(self):
        v = vignette_field(32, 0.6)
        field = ShadingField(values=v, channel="CG")
        tile = tile_of(123.0 * v)
        out = correct_tile(tile, field)
        assert np.allclose(out.pixels, 123.0, rtol=1e-12)

    def test_channel_mismatch(self):
        field = ShadingField(values=np.ones((4, 4)), channel="CR")
        with pytest.raises(ValueError, match="channel"):
            correct_tile(tile_of(np.ones((4, 4))), field)

    def test_extent_mismatch(self):
        field = ShadingField(values=np.ones((5, 5)), channel="CG")
        with pytest.raises(ValueError, match="extent"):
            correct_tile(tile_of(np.ones((4, 4))), field)

    def test_latent_image_recovered_up_to_scale(self):
        # field estimated from the background model, then applied to a
        # structured tile distorted by the true vignette
        rng = np.random.default_rng(3)
        field = estimate_shading(background_tile_stream(
            400, extent=48, lam=80.0, corner=0.6, outlier_fraction=0.0, seed=5
        ))
        latent = rng.integers(50, 400, (48, 48)).astype(float)
        v = vignette_field(48, 0.6)
        distorted = tile_of(np.clip(np.rint(latent * v), 0, 65535))
        corrected = correct_tile(distorted, field)
        r = np.corrcoef(corrected.pixels.ravel(), latent.ravel())[0, 1]
        assert r > 0.999

    def test_residual_vignette_flattened(self):
        tiles = list(background_tile_stream(
            200, extent=64, lam=80.0, corner=0.6, outlier_fraction=0.0, seed=11
        ))
        field = estimate_shading(tiles)
        mean_corr = np.mean([correct_tile(t, field).pixels for t in tiles], axis=0)
        c = 64 // 2
        center = mean_corr[c - 8:c + 8, c - 8:c + 8].mean()
        corner = mean_corr[:8, :8].mean()
        assert abs(corner / center - 1.0) < 0.05


def test_field_stack_round_trip(tmp_path):
    v = vignette_field(16, 0.7)
    field = ShadingField(values=v, channel="CR", sample_count=3)
    stack = field_to_stack(field, 1.34)
    assert stack.voxel_size == (1.34, 1.34, 1.0)
    back = field_from_stack(stack)
    assert np.allclose(back.values, field.values)
    assert back.channel == "CR"


class TestOldFormulaOracle:
    """The shading sums and the correction give the bits of their earlier formulas,
    which are copied here."""

    @staticmethod
    def old_estimate(pixels, lower, upper):
        sums = np.zeros(pixels[0].shape)
        counts = np.zeros(pixels[0].shape, dtype=np.int64)
        for pix in pixels:
            ok = (pix >= lower) & (pix <= upper)
            sums[ok] += pix[ok]
            counts[ok] += 1
        valid = counts > 0
        values = np.ones(pixels[0].shape)
        mean = sums[valid] / counts[valid]
        values[valid] = mean / mean.mean()
        return values, counts

    @pytest.mark.parametrize("lower, upper", [(2.0, 2500.0), (37.25, 401.5)])
    def test_estimate_shading_bits(self, lower, upper):
        rng = np.random.default_rng(5)
        pixels = []
        for _ in range(9):
            pix = rng.uniform(0.0, 3000.0, (23, 17))
            pix[rng.random(pix.shape) < 0.1] = lower  # on the cuts: counted
            pix[rng.random(pix.shape) < 0.1] = upper
            pix[rng.random(pix.shape) < 0.05] = np.nextafter(lower, 0)  # just outside
            pixels.append(pix)
        pixels[0][3, 4] = pixels[1][3, 4] = 0.0  # one pixel valid only in later tiles
        field = estimate_shading([tile_of(p) for p in pixels], lower, upper)
        values, counts = self.old_estimate(pixels, lower, upper)
        assert field.values.tobytes() == values.tobytes()
        assert np.array_equal(field.valid_count, counts)

    def test_correct_tile_bits(self):
        rng = np.random.default_rng(6)
        pix = rng.uniform(0.0, 65535.0, (19, 21))
        pix[0, :3] = (0.0, 65535.0, 60000.0)
        values = rng.uniform(0.4, 1.6, pix.shape)
        out = correct_tile(tile_of(pix), ShadingField(values=values, channel="CG"))
        assert out.pixels.tobytes() == np.clip(pix / values, 0.0, 65535.0).tobytes()
        assert out.pixels.max() == 65535.0  # some quotients were clipped
