import numpy as np
import pytest

from marmopipe.imgcore import gaussian_blur
from marmopipe.nnseg import (
    TrainingSample,
    build_cell_weight_map,
    build_tracer_weight_map,
    init_unet,
    load_model,
    sample_training_tiles,
    save_model,
    train,
)


def flat_sample(extent=40, channels=1, seed=0):
    rng = np.random.default_rng(seed)
    return TrainingSample(
        input=rng.random((channels, extent, extent)),
        label=(rng.random((extent, extent)) > 0.9).astype(float),
        weight=np.ones((extent, extent)),
    )


class TestTrain:
    def test_zero_learning_rate_keeps_params(self):
        net = init_unet(2, 4, 1, seed=0)
        sample = flat_sample(28)
        trained, history = train(net, [sample], steps=5, learning_rate=0.0, seed=0)
        for k in net.params:
            assert np.array_equal(trained.params[k], net.params[k])
        assert len(history) == 5

    def test_same_seed_bit_identical(self):
        net = init_unet(2, 4, 1, seed=1)
        samples = [flat_sample(28, seed=s) for s in range(3)]
        a, ha = train(net, samples, steps=20, learning_rate=0.1, seed=7)
        b, hb = train(net, samples, steps=20, learning_rate=0.1, seed=7)
        assert ha == hb
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_input_not_mutated(self):
        net = init_unet(2, 4, 1, seed=2)
        before = {k: v.copy() for k, v in net.params.items()}
        train(net, [flat_sample(28)], steps=3, learning_rate=0.5, seed=0)
        for k in before:
            assert np.array_equal(net.params[k], before[k])

    def test_loaded_model_trains_in_float64(self, tmp_path):
        """A loaded model's float32 parameters train as their float64 upcast does, bit
        for bit, and the trained bundle is float64."""
        save_model(init_unet(2, 4, 1, seed=4), tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        samples = [flat_sample(28, seed=s) for s in range(2)]
        a, ha = train(loaded, samples, steps=6, learning_rate=0.1, seed=3)
        b, hb = train(loaded.astype(np.float64), samples, steps=6, learning_rate=0.1, seed=3)
        assert loaded.dtype == np.float32
        assert ha == hb
        for k in b.params:
            assert a.params[k].dtype == np.float64
            assert np.array_equal(a.params[k], b.params[k])

    def test_loss_decreases_on_learnable_target(self):
        # bright square on dark background, label = the square
        rng = np.random.default_rng(3)
        img = rng.random((1, 28, 28)) * 0.1
        img[0, 10:18, 10:18] += 1.0
        full_label = np.zeros((28, 28))
        full_label[10:18, 10:18] = 1.0
        sample = TrainingSample(input=img, label=full_label, weight=np.ones((28, 28)))
        net = init_unet(2, 4, 1, seed=3)
        _, history = train(net, [sample], steps=300, learning_rate=3.0, seed=0)
        assert history[-1] < 0.5 * history[0]

    def test_no_samples(self):
        with pytest.raises(ValueError):
            train(init_unet(2, 4, 1, seed=0), [], steps=1, learning_rate=0.1)

    def test_divergence_aborts_with_step(self):
        import warnings
        from marmopipe.nnseg import TrainingDiverged

        net = init_unet(2, 4, 1, seed=0)
        net.params["enc0_conv1_w"][0, 0, 0, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingDiverged) as err:
                train(net, [flat_sample(28)], steps=3, learning_rate=0.1, seed=0)
        assert err.value.step == 0


class TestCellWeightMap:
    def test_flat_defaults_to_one(self):
        w = build_cell_weight_map(np.zeros((20, 20)))
        assert np.all(w == 1.0)

    def test_single_center_structure(self):
        labels = np.zeros((31, 31))
        labels[15, 15] = 1.0
        w = build_cell_weight_map(labels, radius_zero=5)
        assert w[15, 15] == 500.0
        assert (w == 500.0).sum() == 1
        yy, xx = np.mgrid[0:31, 0:31]
        d = np.hypot(yy - 15, xx - 15)
        assert np.all(w[(d <= 5) & (d > 0)] == 0.0)
        assert np.all(w[(d > 5) & (d <= 6)] == 2.0)
        assert np.all(w[d > 6] == 1.0)

    def test_log_rule_marks_planted_ridge(self):
        yy, xx = np.mgrid[0:40, 0:40].astype(float)
        img = 1000.0 * np.exp(-((xx - 20) ** 2) / 8.0)
        labels = np.zeros((40, 40))
        # threshold chosen from the analytic LoG response of the ridge
        blurred = gaussian_blur(img, 2.0)
        lap = np.abs(
            np.pad(blurred, 1, mode="reflect")[1:-1, 2:]
            + np.pad(blurred, 1, mode="reflect")[1:-1, :-2]
            + np.pad(blurred, 1, mode="reflect")[2:, 1:-1]
            + np.pad(blurred, 1, mode="reflect")[:-2, 1:-1]
            - 4 * blurred
        )
        thresh = 0.5 * lap.max()
        w = build_cell_weight_map(labels, image=img, log_sigma=2.0, log_threshold=thresh)
        assert np.all(w[:, 20] == 2.0)   # ridge crest marked
        assert np.all(w[:, 0] == 1.0)    # far background untouched

    def test_zero_disk_overrides_structure(self):
        labels = np.zeros((31, 31))
        labels[15, 15] = 1.0
        img = np.zeros((31, 31))
        img[15, 15] = 1000.0
        w = build_cell_weight_map(labels, image=img, log_sigma=2.0, log_threshold=1e-6)
        assert w[15, 15] == 500.0
        assert w[15, 17] == 0.0


class TestTracerWeightMap:
    def test_class_weights(self):
        labels = np.zeros((10, 10))
        labels[2, 2] = 1.0
        negatives = np.zeros((10, 10))
        negatives[5, 5] = 1.0
        w = build_tracer_weight_map(labels, negatives)
        assert w[2, 2] == 8.0
        assert w[5, 5] == 100.0
        assert w[0, 0] == 1.0


class TestSampleTiles:
    def test_zero_labels_all_background(self):
        rng = np.random.default_rng(4)
        img = rng.random((80, 80))
        samples = sample_training_tiles(img, np.zeros((80, 80)), n_dense=10, n_sparse=10,
                                        tile=32, seed=0)
        assert len(samples) == 20
        assert all(not s.label.any() for s in samples)

    def test_dense_tile_centers_near_cluster(self):
        # >= 8/10 dense-tile centres within 2 sigma of the cluster centroid,
        # averaged over 100 seeds; the image encodes coordinates so each
        # tile's origin can be read back from its first pixel
        sigma = 20.0
        tile = 48
        labels = np.zeros((200, 200))
        labels[90:110, 90:110] = 1.0
        yy, xx = np.mgrid[0:200, 0:200]
        img = (yy * 200 + xx).astype(float)
        hits = total = 0
        for seed in range(100):
            for s in sample_training_tiles(img, labels, n_dense=10, n_sparse=0,
                                           tile=tile, seed=seed, density_sigma=sigma):
                code = int(s.input[0, 0, 0])
                oy, ox = divmod(code, 200)
                cy, cx = oy + (tile - 1) / 2.0, ox + (tile - 1) / 2.0
                total += 1
                if np.hypot(cy - 99.5, cx - 99.5) <= 2 * sigma:
                    hits += 1
        assert hits / total >= 0.8

    def test_fixed_seed_identical(self):
        rng = np.random.default_rng(5)
        img = rng.random((64, 64))
        labels = (rng.random((64, 64)) > 0.95).astype(float)
        a = sample_training_tiles(img, labels, tile=32, seed=9)
        b = sample_training_tiles(img, labels, tile=32, seed=9)
        for s, t in zip(a, b):
            assert np.array_equal(s.input, t.input)
            assert np.array_equal(s.label, t.label)

    def test_tile_too_large(self):
        with pytest.raises(ValueError, match="smaller"):
            sample_training_tiles(np.zeros((30, 30)), np.zeros((30, 30)), tile=40)

    def test_weight_fn_applied(self):
        img = np.zeros((64, 64))
        labels = np.zeros((64, 64))
        labels[30, 30] = 1.0
        samples = sample_training_tiles(
            img, labels, n_dense=3, n_sparse=0, tile=40, seed=1,
            weight_fn=lambda lab: np.full_like(lab, 3.0),
        )
        assert all(np.all(s.weight == 3.0) for s in samples)
