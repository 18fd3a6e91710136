import numpy as np
import pytest

from marmopipe._cc import CONN_6_3D, label_components, largest_component_mask
from marmopipe.evalsynth import reference_largest_component, reference_rough_localize
from marmopipe.imgcore import Stack3D
from marmopipe.injsite import (
    CellPointCloud,
    detect_cells,
    hessian_cell_filter,
    roi_from_mask,
    rough_localize,
)


def stack_of(data, voxel=(50.0, 50.0, 50.0), channel="CB"):
    return Stack3D(np.asarray(data, dtype=np.float64), voxel, channel=channel, dtype="u16")


class TestRoughLocalize:
    def test_all_zero_gives_empty(self):
        mask = rough_localize(stack_of(np.zeros((8, 8, 8))))
        assert mask.empty
        assert mask.mask.data.shape == (8, 8, 8)

    def test_cube_matches_oracle(self):
        vol = np.zeros((24, 24, 24))
        vol[9:15, 9:15, 9:15] = 10000.0
        got = rough_localize(stack_of(vol)).mask.data > 0
        want = reference_rough_localize(vol, 50.0, 4500.0, 150.0)
        assert np.array_equal(got, want)
        assert want[11, 11, 11]  # central region survives
        # nothing survives further than 2 sigma (6 voxels) from the cube
        dilated = np.zeros_like(vol, dtype=bool)
        dilated[3:21, 3:21, 3:21] = True
        assert not (want & ~dilated).any()

    def test_larger_blob_wins(self):
        vol = np.zeros((20, 40, 20))
        vol[6:14, 4:12, 6:14] = 9000.0    # 8x8x8
        vol[8:12, 28:32, 8:12] = 9000.0   # 4x4x4, far away
        mask = rough_localize(stack_of(vol)).mask.data > 0
        assert mask[:, 4:14, :].any()
        assert not mask[:, 24:36, :].any()

    def test_random_volumes_match_oracle(self):
        rng = np.random.default_rng(0)
        for k in range(10):
            vol = (rng.random((16, 16, 16)) > 0.7) * 8000.0
            got = rough_localize(stack_of(vol), sigma_um=50.0).mask.data > 0
            want = reference_rough_localize(vol, 50.0, 4500.0, 50.0)
            assert np.array_equal(got, want), f"case {k}"

    def test_scale_invariance_of_relative_threshold(self):
        rng = np.random.default_rng(1)
        vol = (rng.random((12, 12, 12)) > 0.6) * 6000.0
        a = rough_localize(stack_of(vol)).mask.data
        b = rough_localize(stack_of(vol * 1.7)).mask.data
        assert np.array_equal(a, b)


class TestLargestComponent:
    """``_cc.largest_component_mask`` under 6-connectivity, as ``rough_localize`` calls it."""

    def test_single_component_identity(self):
        vol = np.zeros((6, 6, 6))
        vol[2:4, 2:4, 2:4] = 1.0
        out = largest_component_mask(vol > 0, CONN_6_3D)
        assert np.array_equal(out, vol > 0)

    def test_size_tie_break_and_selection(self):
        vol = np.zeros((4, 12, 4))
        vol[1, 1:6, 1] = 1.0   # size 5
        vol[2, 7:11, 1:3]= 1.0 # 4x2 = 8 voxels
        vol[2, 7, 3] = 1.0     # size 9
        out = largest_component_mask(vol > 0, CONN_6_3D)
        assert out.sum() == 9

    def test_empty_in_empty_out(self):
        out = largest_component_mask(np.zeros((3, 3, 3), dtype=bool), CONN_6_3D)
        assert not out.any()

    def test_random_vs_flood_fill(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            vol = rng.random((10, 10, 10)) > 0.72
            got = largest_component_mask(vol, CONN_6_3D)
            want = reference_largest_component(vol)
            assert np.array_equal(got, want)

    def test_true_size_tie_smaller_minimum_wins(self):
        vol = np.zeros((6, 12, 4))
        vol[0:5, 10, 3] = 1.0  # size 5, minimum linear index 43
        vol[1, 0:5, 0] = 1.0   # size 5, minimum linear index 48
        out = largest_component_mask(vol > 0, CONN_6_3D)
        assert np.array_equal(out, reference_largest_component(vol > 0))
        assert out.sum() == 5 and out[0:5, 10, 3].all()


def assert_labels_match_reference(mask):
    """Peel components off with the reference largest-component flood fill;
    each must be exactly one label, numbered by its minimum linear index."""
    labels, count = label_components(mask, CONN_6_3D)
    assert labels.dtype == np.int64 and labels.shape == mask.shape
    assert np.array_equal(labels < 0, ~mask)
    remaining = mask.copy()
    minima = []
    while remaining.any():
        component = reference_largest_component(remaining)
        k = labels[component][0]
        assert np.array_equal(labels == k, component), f"component {k}"
        minima.append((np.flatnonzero(component)[0], k))
        remaining &= ~component
    assert count == len(minima)
    assert [k for _, k in sorted(minima)] == list(range(count))
    return count


class TestLabelComponents:
    def test_random_vs_reference(self):
        rng = np.random.default_rng(6)
        for density in (0.15, 0.3, 0.5, 0.7):
            for shape in ((8, 8, 8), (3, 9, 11)):
                assert_labels_match_reference(rng.random(shape) < density)

    def test_serpentine_spanning_grid(self):
        mask = np.zeros((3, 21, 20), dtype=bool)
        mask[1, ::2] = True
        mask[1, 1::4, -1] = True
        mask[1, 3::4, 0] = True
        assert assert_labels_match_reference(mask) == 1

    def test_diagonal_contacts_stay_apart(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[np.arange(4), np.arange(4), np.arange(4)] = True
        mask[2, 0, 1] = True   # edge-diagonal to (1, 1, 1) only
        assert assert_labels_match_reference(mask) == 5

    def test_empty_full_and_size_one_axes(self):
        assert assert_labels_match_reference(np.zeros((3, 4, 5), dtype=bool)) == 0
        assert assert_labels_match_reference(np.ones((3, 4, 5), dtype=bool)) == 1
        line = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
        assert assert_labels_match_reference(line.reshape(1, 1, 6)) == 3
        assert assert_labels_match_reference(line.reshape(1, 6, 1)) == 3
        assert assert_labels_match_reference(line.reshape(6, 1, 1)) == 3
        rng = np.random.default_rng(7)
        assert_labels_match_reference(rng.random((5, 1, 9)) < 0.5)


class TestHessianFilter:
    def test_constant_zero_response(self):
        out = hessian_cell_filter(np.full((32, 32), 11.0), (2.0,))
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_blob_matches_analytic(self):
        # isotropic Gaussian blob, amplitude A, width s: after blur sigma,
        # center curvature is A * s^2 / (s^2 + sigma^2)^2 in both directions
        a, s, sigma = 1000.0, 6.0, 4.0
        yy, xx = np.mgrid[0:65, 0:65].astype(float)
        img = a * np.exp(-((yy - 32) ** 2 + (xx - 32) ** 2) / (2 * s * s))
        resp = hessian_cell_filter(img, (sigma,))
        want = a * s * s / (s * s + sigma * sigma) ** 2
        assert abs(resp[32, 32] - want) / want < 0.02

    def test_ridge_suppressed(self):
        a, s, sigma = 1000.0, 6.0, 4.0
        yy, xx = np.mgrid[0:65, 0:65].astype(float)
        blob = a * np.exp(-((yy - 32) ** 2 + (xx - 32) ** 2) / (2 * s * s))
        ridge = a * np.exp(-((xx - 32) ** 2) / (2 * s * s))
        blob_resp = hessian_cell_filter(blob, (sigma,))[32, 32]
        ridge_resp = hessian_cell_filter(ridge, (sigma,))[32, 32]
        assert ridge_resp < 0.05 * blob_resp

    def test_rotation_covariant(self):
        a, s = 1000.0, 5.0
        yy, xx = np.mgrid[0:65, 0:65].astype(float)
        u, v = yy - 32, xx - 32
        elong = a * np.exp(-(u ** 2 / (2 * s * s) + v ** 2 / (2 * (2 * s) ** 2)))
        c, d = np.cos(np.pi / 4), np.sin(np.pi / 4)
        ur, vr = c * u - d * v, d * u + c * v
        rotated = a * np.exp(-(ur ** 2 / (2 * s * s) + vr ** 2 / (2 * (2 * s) ** 2)))
        r0 = hessian_cell_filter(elong, (4.0,))[32, 32]
        r1 = hessian_cell_filter(rotated, (4.0,))[32, 32]
        assert abs(r1 - r0) / r0 < 0.03

    def test_max_over_scales(self):
        rng = np.random.default_rng(3)
        img = rng.random((32, 32)) * 100
        multi = hessian_cell_filter(img, (2.0, 3.0, 4.0))
        singles = [hessian_cell_filter(img, (s,)) for s in (2.0, 3.0, 4.0)]
        assert np.array_equal(multi, np.maximum.reduce(singles))

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            hessian_cell_filter(np.zeros((8, 8)), (0.0,))
        with pytest.raises(ValueError):
            hessian_cell_filter(np.zeros((8, 8)), ())


class TestDetectCells:
    def test_empty_saliency(self):
        assert len(detect_cells(np.zeros((2, 8, 8)))) == 0

    def test_single_pixel(self):
        sal = np.zeros((1, 8, 8))
        sal[0, 3, 5] = 0.9
        cloud = detect_cells(sal)
        assert len(cloud) == 1
        assert tuple(cloud.points[0]) == (5, 3, 0)
        assert cloud.scores[0] == 0.9

    def test_plateau_yields_nothing(self):
        sal = np.zeros((1, 8, 8))
        sal[0, 2:5, 2:5] = 0.8
        cloud = detect_cells(sal)
        assert len(cloud) == 0
        # exhaustive check: no pixel is strictly greater than all neighbors
        padded = np.pad(sal[0], 1, constant_values=-np.inf)
        for y in range(8):
            for x in range(8):
                strict = all(
                    sal[0, y, x] > padded[1 + y + dy, 1 + x + dx]
                    for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)
                )
                assert not (strict and sal[0, y, x] > 0.5)

    def test_threshold_strict(self):
        sal = np.zeros((1, 8, 8))
        sal[0, 4, 4] = 0.5
        assert len(detect_cells(sal, t_high=0.5)) == 0

    def test_detections_are_strict_maxima(self):
        rng = np.random.default_rng(4)
        sal = rng.random((3, 24, 24))
        cloud = detect_cells(sal, t_high=0.5)
        for (x, y, z), score in zip(cloud.points, cloud.scores):
            assert score > 0.5
            patch = sal[z, max(0, y - 1):y + 2, max(0, x - 1):x + 2]
            assert sal[z, y, x] == patch.max()
            assert (patch == patch.max()).sum() == 1

    def test_multi_slice_z(self):
        sal = np.zeros((4, 8, 8))
        sal[2, 6, 1] = 0.7
        cloud = detect_cells(sal)
        assert tuple(cloud.points[0]) == (1, 6, 2)

    def test_save_load_round_trip(self, tmp_path):
        cloud = CellPointCloud(
            points=np.array([[1, 2, 3], [4, 5, 6]]),
            scores=np.array([0.75, 0.5]),
        )
        cloud.save(tmp_path / "cells.txt")
        back = CellPointCloud.load(tmp_path / "cells.txt")
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.scores, cloud.scores)


class TestRoiFromMask:
    def make_mask(self, voxels, dims=(12, 16, 16)):
        vol = np.zeros(dims)
        for x, y, z in voxels:
            vol[z, y, x] = 1.0
        from marmopipe.injsite import InjectionMask
        return InjectionMask(mask=stack_of(vol))

    def test_block_arithmetic(self):
        mask = self.make_mask([(10, 10, 5)])
        roi = roi_from_mask(mask, (1000, 1000), pad_px=0)
        assert sorted(roi) == [5]  # slices without mask voxels get no rectangle
        s = 50.0 / 1.34
        assert roi[5][0] == round(10 * s) == 373
        assert roi[5][2] == round(11 * s)

    def test_full_volume_mask(self):
        vol = np.ones((3, 4, 4))
        from marmopipe.injsite import InjectionMask
        roi = roi_from_mask(InjectionMask(mask=stack_of(vol)), (1000, 1000), pad_px=0)
        assert sorted(roi) == [0, 1, 2]
        assert roi[0] == (0, 0, round(4 * 50 / 1.34), round(4 * 50 / 1.34))

    def test_empty_mask(self):
        from marmopipe.injsite import InjectionMask
        with pytest.raises(ValueError, match="empty"):
            roi_from_mask(InjectionMask(mask=stack_of(np.zeros((2, 2, 2)))), (1000, 1000))

    def test_padding_and_clip(self):
        """A rectangle is padded and then clipped to the extent (width, height)."""
        mask = self.make_mask([(0, 0, 1)])
        x1 = round(50 / 1.34) + 8
        assert roi_from_mask(mask, (1000, 1000), pad_px=8)[1] == (0, 0, x1, x1)
        assert roi_from_mask(mask, (40, 100), pad_px=8)[1] == (0, 0, 40, x1)
