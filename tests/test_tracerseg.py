import numpy as np
import pytest

from marmopipe._cc import CONN_8_2D, label_components
from marmopipe.tracerseg import (
    background_subtract,
    compose_label,
    disk_offsets,
    double_threshold,
    morph_close,
    morph_reconstruct,
    threshold_pipeline,
)

import oracles


class TestBackgroundSubtract:
    def test_equal_channels_cancel(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 2000, (16, 16)).astype(float)
        out = background_subtract(img, img, t=1.1)
        assert np.all(out == 0.0)

    def test_paper_example(self):
        out = background_subtract(np.full((2, 2), 500.0), np.full((2, 2), 100.0), t=1.1)
        assert np.allclose(out, 390.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        cg = rng.integers(0, 3000, (20, 20)).astype(float)
        cr = rng.integers(0, 3000, (20, 20)).astype(float)
        out = background_subtract(cg, cr, t=1.1)
        assert np.array_equal(out, oracles.subtract_oracle(cg, cr, 1.1))

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            background_subtract(np.zeros((2, 2)), np.zeros((3, 3)))

    @staticmethod
    def where_form(cg, cr, t):
        """The subtraction as one ``np.where`` on float64 copies of the inputs."""
        cg, cr = np.asarray(cg, dtype=np.float64), np.asarray(cr, dtype=np.float64)
        scaled = t * cr
        return np.where(cg < scaled, 0.0, cg - scaled)

    @pytest.mark.parametrize("dtype", ["<u2", "<f4", "<f8"])
    @pytest.mark.parametrize("t", [1.1, 0.7, 1.0])
    def test_bits_of_the_where_form_inputs_unchanged(self, dtype, t):
        """u16 slices as read, f32 and float64 give the bits of the ``np.where`` form,
        signed zeros included, and neither input is written to."""
        rng = np.random.default_rng(14)
        cg = rng.integers(0, 3000, (32, 40)).astype(dtype)
        cr = rng.integers(0, 3000, (32, 40)).astype(dtype)
        cr[:4] = np.round(cg[:4] / t)  # near and exact ties of cg and t * cr
        if dtype != "<u2":
            cg[5, :6] = [-0.0, 0.0, -0.0, 0.0, -0.0, 1.5]
            cr[5, :6] = [0.0, -0.0, -0.0, 0.0, 1.0, -0.0]
        cg_before, cr_before = cg.copy(), cr.copy()
        out = background_subtract(cg, cr, t=t)
        want = self.where_form(cg, cr, t)
        assert out.dtype == np.float64
        assert out.tobytes() == want.tobytes()
        assert cg.tobytes() == cg_before.tobytes() and cr.tobytes() == cr_before.tobytes()
        if dtype != "<u2":  # -0.0 - (+0.0) stays -0.0 in both forms
            assert np.signbit(out[5, 0]) and np.signbit(want[5, 0])

    def test_nonfinite_like_the_where_form(self):
        cg = np.array([[np.inf, np.nan, 5.0, -np.inf, np.inf, 1.0]])
        cr = np.array([[np.inf, 1.0, np.inf, 2.0, 1.0, np.nan]])
        with np.errstate(invalid="ignore"):  # inf - inf is NaN in both forms
            out = background_subtract(cg, cr, t=1.1)
            assert out.tobytes() == self.where_form(cg, cr, 1.1).tobytes()


class TestDoubleThreshold:
    def test_zero_signal(self):
        hi, lo = double_threshold(np.zeros((4, 4)))
        assert not hi.any() and not lo.any()

    def test_paper_thresholds(self):
        sig = np.array([[50.0, 150.0, 400.0]])
        hi, lo = double_threshold(sig, hi=300.0, lo=100.0)
        assert lo.tolist() == [[False, True, True]]
        assert hi.tolist() == [[False, False, True]]

    def test_hi_subset_lo(self):
        rng = np.random.default_rng(2)
        sig = rng.random((30, 30)) * 500
        hi, lo = double_threshold(sig)
        assert not (hi & ~lo).any()

    def test_bad_order(self):
        with pytest.raises(ValueError):
            double_threshold(np.zeros((2, 2)), hi=100, lo=100)


class TestMorphReconstruct:
    def test_empty_marker(self):
        mask = np.ones((5, 5), dtype=bool)
        out = morph_reconstruct(np.zeros((5, 5), dtype=bool), mask)
        assert not out.any()

    def test_touched_component_kept(self):
        mask = np.zeros((5, 9), dtype=bool)
        mask[1:4, 1:4] = True
        mask[1:4, 6:8] = True
        marker = np.zeros_like(mask)
        marker[2, 2] = True
        out = morph_reconstruct(marker, mask)
        assert out[1:4, 1:4].all()
        assert not out[:, 5:].any()

    def test_marker_not_subset(self):
        marker = np.ones((3, 3), dtype=bool)
        with pytest.raises(ValueError, match="subset"):
            morph_reconstruct(marker, np.zeros((3, 3), dtype=bool))

    def test_random_vs_bfs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mask = rng.random((24, 24)) > 0.55
            marker = mask & (rng.random((24, 24)) > 0.9)
            got = morph_reconstruct(marker, mask)
            want = oracles.reconstruct_oracle(marker, mask)
            assert np.array_equal(got, want)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        mask = rng.random((16, 16)) > 0.5
        marker = mask & (rng.random((16, 16)) > 0.8)
        out = morph_reconstruct(marker, mask)
        assert not (out & ~mask).any()
        assert (marker <= out).all()


def assert_labels_match_oracle(mask):
    """Label k is the oracle flood fill seeded at the k-th smallest component
    minimum, which pins both membership and order."""
    labels, count = label_components(mask, CONN_8_2D)
    assert labels.dtype == np.int64 and labels.shape == mask.shape
    assert np.array_equal(labels < 0, ~mask)
    remaining = mask.copy()
    k = 0
    while remaining.any():
        seed = np.zeros_like(mask)
        seed.flat[np.flatnonzero(remaining)[0]] = True
        component = oracles.reconstruct_oracle(seed, mask)
        assert np.array_equal(labels == k, component), f"component {k}"
        remaining &= ~component
        k += 1
    assert count == k
    return count


class TestLabelComponents:
    def test_random_vs_oracle(self):
        rng = np.random.default_rng(5)
        for density in (0.1, 0.3, 0.45, 0.6, 0.8):
            for shape in ((24, 24), (7, 31), (31, 7)):
                assert_labels_match_oracle(rng.random(shape) < density)

    def test_serpentine_spanning_grid(self):
        mask = np.zeros((41, 40), dtype=bool)
        mask[::2] = True
        mask[1::4, -1] = True
        mask[3::4, 0] = True
        assert assert_labels_match_oracle(mask) == 1

    def test_diagonal_contacts_join(self):
        assert assert_labels_match_oracle(np.eye(6, dtype=bool)) == 1
        checker = (np.add.outer(np.arange(6), np.arange(7)) % 2).astype(bool)
        assert assert_labels_match_oracle(checker) == 1

    def test_empty_full_and_size_one_axes(self):
        assert assert_labels_match_oracle(np.zeros((5, 7), dtype=bool)) == 0
        assert assert_labels_match_oracle(np.ones((5, 7), dtype=bool)) == 1
        row = np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool)
        assert assert_labels_match_oracle(row) == 3
        assert assert_labels_match_oracle(row.T.copy()) == 3
        assert assert_labels_match_oracle(np.ones((1, 1), dtype=bool)) == 1


class TestMorphClose:
    def test_disk_29_pixels(self):
        assert len(disk_offsets(3)) == 29

    def test_solid_rectangle_unchanged(self):
        rect = np.zeros((20, 20), dtype=bool)
        rect[5:15, 4:16] = True
        assert np.array_equal(morph_close(rect, 3), rect)

    def test_gap_filled(self):
        # 3 px thick segments, 2 px gap: the oracle says the gap closes
        img = np.zeros((11, 20), dtype=bool)
        img[4:7, 2:9] = True
        img[4:7, 11:18] = True
        out = morph_close(img, 3)
        assert out[5, 9] and out[5, 10]
        assert np.array_equal(out, oracles.close_oracle(img, 3))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        img = rng.random((40, 40)) > 0.8
        once = morph_close(img, 3)
        twice = morph_close(once, 3)
        assert np.array_equal(once, twice)

    def test_matches_dilate_erode_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            img = rng.random((20, 20)) > 0.8
            assert np.array_equal(morph_close(img, 3), oracles.close_oracle(img, 3))

    def test_extensive(self):
        rng = np.random.default_rng(7)
        img = rng.random((30, 30)) > 0.85
        out = morph_close(img, 3)
        assert (img <= out).all()


class TestComposeLabel:
    def test_zero_saliency(self):
        sig = np.full((4, 4), 100.0)
        out = compose_label(np.zeros((4, 4)), sig)
        assert not out.mask.any()
        assert np.all(out.signal == 0.0)

    def test_full_saliency_passes_signal(self):
        rng = np.random.default_rng(8)
        vals = rng.random((6, 6)) * 100
        sig = vals
        out = compose_label(np.ones((6, 6)), sig)
        assert out.mask.all()
        assert np.array_equal(out.signal, vals)

    def test_mixed_vs_loop(self):
        rng = np.random.default_rng(9)
        sal = rng.random((10, 10))
        vals = rng.random((10, 10)) * 400
        out = compose_label(sal, vals, theta=0.5)
        for y in range(10):
            for x in range(10):
                want = vals[y, x] if sal[y, x] > 0.5 else 0.0
                assert out.signal[y, x] == want


class TestThresholdPipeline:
    @staticmethod
    def oracle(cg, cr, t=1.1, hi=300.0, lo=100.0, radius=3):
        sub = oracles.subtract_oracle(cg, cr, t)
        hi_mask, lo_mask = sub > hi, sub > lo
        rec = oracles.reconstruct_oracle(hi_mask, lo_mask)
        closed = oracles.close_oracle(rec, radius)
        return closed, np.where(closed, sub, 0.0)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            cg = rng.integers(0, 600, (24, 24)).astype(float)
            cr = rng.integers(0, 400, (24, 24)).astype(float)
            label = threshold_pipeline(cg, cr)
            want_mask, want_sig = self.oracle(cg, cr)
            assert np.array_equal(label.mask, want_mask)
            assert np.array_equal(label.signal, want_sig)

    def test_monotone_in_cg(self):
        rng = np.random.default_rng(11)
        cg = rng.integers(0, 600, (16, 16)).astype(float)
        cr = rng.integers(0, 300, (16, 16)).astype(float)
        sub = background_subtract(cg, cr)
        hi0, lo0 = double_threshold(sub)
        cg2 = cg.copy()
        cg2[5, 5] += 500
        hi1, lo1 = double_threshold(background_subtract(cg2, cr))
        assert (hi0 <= hi1).all() and (lo0 <= lo1).all()

    def test_translation_covariant(self):
        rng = np.random.default_rng(12)
        cg = np.zeros((40, 40))
        cr = np.zeros((40, 40))
        cg[10:20, 10:20] = rng.integers(0, 600, (10, 10))
        cr[10:20, 10:20] = rng.integers(0, 300, (10, 10))
        a = threshold_pipeline(cg, cr)
        b = threshold_pipeline(np.roll(cg, (4, 4), (0, 1)), np.roll(cr, (4, 4), (0, 1)))
        assert np.array_equal(np.roll(a.mask, (4, 4), (0, 1))[8:-8, 8:-8], b.mask[8:-8, 8:-8])

    def test_u16_slices_give_the_float64_label(self):
        """Slices as read (u16) segment to the bits of their float64 copies; the inputs
        are not written to."""
        rng = np.random.default_rng(15)
        cg = rng.integers(0, 900, (30, 30)).astype("<u2")
        cr = rng.integers(0, 300, (30, 30)).astype("<u2")
        cg_before = cg.copy()
        got = threshold_pipeline(cg, cr)
        want = threshold_pipeline(cg.astype(np.float64), cr.astype(np.float64))
        assert got.mask.any() and (~got.mask).any()
        assert np.array_equal(got.mask, want.mask)
        assert got.signal.tobytes() == want.signal.tobytes()
        assert np.array_equal(cg, cg_before)

    def test_mask_signal_consistent(self):
        rng = np.random.default_rng(13)
        cg = rng.integers(0, 800, (20, 20)).astype(float)
        cr = rng.integers(0, 300, (20, 20)).astype(float)
        label = threshold_pipeline(cg, cr)
        assert not label.signal[~label.mask].any()
