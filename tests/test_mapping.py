import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoseer.cli import load_checkpoint, save_checkpoint
from thermoseer.core import (
    Curve,
    DomainError,
    MappingFeatures,
    NumericsError,
    ProcessSettings,
    ShapeError,
)
from thermoseer.mapping import (
    DROPOUT_RATE,
    CurvePairs,
    MappingModel,
    TrainConfig,
    _backprop,
    _training_matrices,
    forward_many,
    forward_raw,
    init_model,
    layer_dims,
    loss_gradients,
    mse_loss,
    param_count,
    train,
)
from thermoseer.pipeline import extract_curve_pairs
from thermoseer.synthgen import SynthParams, generate_wall


def zero_model(n):
    model = init_model(n, seed=0)
    for w in model.weights:
        w[:] = 0.0
    return model


def scaled_model(n, seed):
    # an untrained model with plausible fitted feature statistics, standing in
    # for a model whose scaler was fitted by train()
    model = init_model(n, seed=seed)
    model.feature_mean = np.array([15.0, 165.0, 82.0, 30.0])
    model.feature_std = np.array([4.0, 80.0, 20.0, 17.0])
    model.scaler_fitted = True
    return model


def make_curve(rng, n, duration=60.0, k=1, low=150.0, high=1400.0):
    return Curve(rng.uniform(low, high, size=n), duration, k)


def make_features(rng):
    return MappingFeatures(
        layer_print_time=float(rng.uniform(10, 21)),
        dwell_of_source_layer=float(rng.uniform(30, 300)),
        deposition_rate=float(rng.uniform(50, 115)),
        relative_height=float(rng.uniform(1.5, 60)),
    )


def make_samples(rng, n, count):
    inputs, features, targets = [], [], []
    for _ in range(count):
        inp = make_curve(rng, n).temps
        targets.append(inp * rng.uniform(0.9, 1.1) + rng.normal(0, 5, n))
        inputs.append(inp)
        features.append(make_features(rng).as_array())
    return CurvePairs(np.array(inputs), np.array(features), np.array(targets))


class TestModelShape:
    def test_layer_dims_small(self):
        assert layer_dims(2) == [6, 6, 12, 24, 12, 6, 2]

    def test_param_count_accounting(self):
        for n in (2, 10, 100):
            assert param_count(init_model(n)) == 186 * n * n + 43 * n

    def test_param_count_near_published_total(self):
        # 1,864,300 at N=100 sits within 0.1% of the published 1.8635 million
        count = param_count(init_model(100))
        assert count == 1_864_300
        assert abs(count - 1_863_500) / 1_863_500 < 1e-3

    def test_formula_at_n_one(self):
        # accounting sanity: the closed form at N=1 collapses to 186 + 43
        assert 186 * 1 * 1 + 43 * 1 == 229

    def test_same_seed_identical(self):
        a, b = init_model(10, seed=5), init_model(10, seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_different_seed_differs(self):
        a, b = init_model(10, seed=5), init_model(10, seed=6)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_biases_start_zero(self):
        assert all(np.all(b == 0.0) for b in init_model(10).biases)

    def test_n_below_two_rejected(self):
        with pytest.raises(DomainError):
            init_model(1)


class TestFlatParams:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_views_tile_params_in_order(self, n, seed):
        model = init_model(n, seed=seed)
        blocks = [a for pair in zip(model.weights, model.biases) for a in pair]
        dims = layer_dims(n)
        shapes = [s for a, b in zip(dims[:-1], dims[1:]) for s in ((a, b), (b,))]
        assert [b.shape for b in blocks] == shapes
        at = 0
        for block in blocks:
            assert np.shares_memory(block, model.params)
            assert block.flags.c_contiguous
            np.testing.assert_array_equal(block.reshape(-1),
                                          model.params[at:at + block.size])
            at += block.size
        assert at == model.params.size == param_count(model)
        model.weights[-1][-1, -1] = 7.0
        assert model.params[-n - 1] == 7.0

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_checkpoint_payload_is_params(self, tmp_path_factory, n, seed):
        path = tmp_path_factory.mktemp("flat") / "model.ckpt"
        model = init_model(n, seed=seed)
        save_checkpoint(str(path), model)
        data = path.read_bytes()
        assert data[data.index(b"\n") + 1:] == model.params.tobytes()
        loaded = load_checkpoint(str(path))
        np.testing.assert_array_equal(loaded.params, model.params)
        assert all(np.shares_memory(w, loaded.params) for w in loaded.weights)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 12), batch=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_zero_weight_residual_identity(self, n, batch, seed):
        rng = np.random.default_rng(seed)
        model = zero_model(n)
        temps = rng.uniform(150.0, 1400.0, size=(batch, n))
        feats = np.stack([make_features(rng).as_array() for _ in range(batch)])
        np.testing.assert_array_equal(forward_raw(model, temps, feats), temps)

    def test_copy_owns_its_params(self):
        model = init_model(6, seed=2)
        twin = model.copy()
        assert not np.shares_memory(twin.params, model.params)
        assert all(np.shares_memory(w, twin.params) for w in twin.weights)
        np.testing.assert_array_equal(twin.params, model.params)

    def test_wrong_size_rejected(self):
        with pytest.raises(ShapeError):
            MappingModel(n=4, params=np.zeros(10), feature_mean=np.zeros(4),
                         feature_std=np.ones(4), scaler_fitted=False, seed=0)


class TestForward:
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_residual_identity_with_zero_weights(self, n):
        rng = np.random.default_rng(1)
        model = zero_model(n)
        curve = make_curve(rng, n)
        out = forward_many(model, [curve], [make_features(rng)])[0]
        np.testing.assert_array_equal(out.temps, curve.temps)
        assert out.duration == curve.duration

    def test_inference_deterministic(self):
        rng = np.random.default_rng(2)
        model = scaled_model(12, seed=3)
        temps, feats = make_curve(rng, 12).temps, make_features(rng).as_array()
        a = forward_raw(model, temps, feats)
        b = forward_raw(model, temps, feats)
        np.testing.assert_array_equal(a, b)

    def test_wrong_n_rejected(self):
        rng = np.random.default_rng(4)
        model = scaled_model(12, seed=3)
        with pytest.raises(ShapeError):
            forward_many(model, [make_curve(rng, 13)], [make_features(rng)])
        with pytest.raises(ShapeError):
            forward_raw(model, make_curve(rng, 13).temps, make_features(rng).as_array())

    def test_output_beyond_the_physical_range_is_a_model_error(self):
        rng = np.random.default_rng(6)
        model = zero_model(10)
        model.biases[-1][...] = 20.0  # adds 20,000 degC: finite, but no surface is that hot
        with pytest.raises(NumericsError, match="mapping model predicts"):
            forward_many(model, [make_curve(rng, 10)], [make_features(rng)])

    def test_forward_many_matches_loop(self):
        rng = np.random.default_rng(5)
        model = scaled_model(10, seed=7)
        curves = [make_curve(rng, 10, k=k % 5 + 1) for k in range(8)]
        feats = [make_features(rng) for _ in range(8)]
        batched = forward_many(model, curves, feats)
        for c, f, got in zip(curves, feats, batched):
            want = forward_raw(model, c.temps, f.as_array())[0]
            np.testing.assert_allclose(got.temps, want, rtol=1e-12)


class TestCurvePairs:
    def test_rows_select_a_curve_pair_set(self):
        pairs = make_samples(np.random.default_rng(31), 6, 10)
        for rows, want in ((slice(2, 5), [2, 3, 4]), (slice(None, 4), [0, 1, 2, 3]),
                           ([7, 0, 3], [7, 0, 3]), (np.array([9, 9]), [9, 9])):
            picked = pairs[rows]
            assert isinstance(picked, CurvePairs) and len(picked) == len(want)
            for name in ("inputs", "features", "targets"):
                np.testing.assert_array_equal(getattr(picked, name),
                                              getattr(pairs, name)[want])
        d_w, _, loss = loss_gradients(init_model(6, seed=1), pairs[:4])
        assert np.isfinite(loss) and d_w[0].shape == (10, 18)

    def test_arrays_are_read_only(self):
        pairs = make_samples(np.random.default_rng(32), 4, 3)
        with pytest.raises(ValueError):
            pairs.targets[0, 0] = 500.0

    @pytest.mark.parametrize("inputs, features, targets", [
        ((3, 5), (3, 3), (3, 5)),
        ((3, 5), (3, 4), (3, 6)),
        ((3, 5), (2, 4), (2, 5)),
        ((5,), (1, 4), (1, 5)),
        ((3, 1), (3, 4), (3, 1)),
    ])
    def test_mismatched_shapes_rejected(self, inputs, features, targets):
        with pytest.raises(ShapeError):
            CurvePairs(np.full(inputs, 500.0), np.ones(features), np.full(targets, 400.0))

    @pytest.mark.parametrize("array", ["inputs", "targets"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -273.15, -300.0,
                                       1e4, 1e300])
    def test_temperature_outside_the_physical_range_rejected(self, array, value):
        arrays = {"inputs": np.full((3, 5), 500.0), "features": np.ones((3, 4)),
                  "targets": np.full((3, 5), 400.0)}
        arrays[array][1, 2] = value
        with pytest.raises(DomainError):
            CurvePairs(**arrays)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_bad_feature_rejected(self, value):
        features = np.ones((3, 4))
        features[2, 1] = value
        with pytest.raises(DomainError):
            CurvePairs(np.full((3, 5), 500.0), features, np.full((3, 5), 400.0))


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        n = 8
        model = init_model(n, seed=2)
        samples = make_samples(rng, n, 3)
        d_w, d_b, _ = loss_gradients(model, samples)

        eps = 1e-5
        checks = 0
        picker = np.random.default_rng(13)
        while checks < 20:
            l = int(picker.integers(0, 6))
            if picker.random() < 0.8:
                arr, grads = model.weights[l], d_w[l]
            else:
                arr, grads = model.biases[l], d_b[l]
            idx = tuple(picker.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = mse_loss(model, samples)
            arr[idx] = orig - eps
            lo = mse_loss(model, samples)
            arr[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            denom = max(abs(numeric), abs(grads[idx]), 1e-10)
            assert abs(numeric - grads[idx]) / denom < 1e-4
            checks += 1


class TestTrain:
    def test_zero_epochs_identity(self):
        rng = np.random.default_rng(21)
        model = init_model(8, seed=1)
        out, history = train(model, make_samples(rng, 8, 10), TrainConfig(epochs=0))
        assert history == []
        assert out is model

    def test_loss_history_length_and_lr_schedule(self):
        cfg = TrainConfig()
        for epoch, want in ((99, 0.001), (100, 0.0005), (199, 0.0005),
                            (200, 0.00025), (399, 0.000125), (400, 0.0000625)):
            assert cfg.lr_at(epoch) == pytest.approx(want, rel=1e-12)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(22)
        model = init_model(8, seed=1)
        cfg = TrainConfig(epochs=30, batch_size=16, seed=3)
        out, history = train(model, make_samples(rng, 8, 64), cfg)
        assert len(history) == 30
        assert history[-1] < history[0]
        assert out.training_meta["epochs_run"] == 30
        assert out.training_meta["lr_history"][0] == 0.001

    def test_deterministic_training(self):
        rng = np.random.default_rng(23)
        samples = make_samples(rng, 8, 32)
        cfg = TrainConfig(epochs=5, batch_size=8, seed=9)
        a, ha = train(init_model(8, seed=4), samples, cfg)
        b, hb = train(init_model(8, seed=4), samples, cfg)
        assert ha == hb
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_scaler_fitted_once(self):
        rng = np.random.default_rng(24)
        samples = make_samples(rng, 8, 32)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=9)
        trained, _ = train(init_model(8, seed=4), samples, cfg)
        assert trained.scaler_fitted
        other = make_samples(rng, 8, 8)
        tuned, _ = train(trained, other, cfg)
        np.testing.assert_array_equal(tuned.feature_mean, trained.feature_mean)
        np.testing.assert_array_equal(tuned.feature_std, trained.feature_std)

    def test_mixed_n_rejected(self):
        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 7,
                                         layer_print_time=20.5, deposition_rate=52.8)
        walls = [generate_wall(settings, SynthParams(seed=25), points_per_layer=2, n=n)
                 for n in (8, 9)]
        with pytest.raises(ShapeError):
            train(init_model(8, seed=0), extract_curve_pairs(walls), TrainConfig(epochs=1))


def reference_train(model, samples, config, dtype=np.float32):
    """The per-layer Adam loop that flat, blocked training replaced: one
    moment pair per weight and bias array, updated array by array.  With
    float32 the gradients and moments are float32 and each float32 step is
    subtracted from the float64 weights, as ``train`` does; with float64
    every value is float64, as training was before it ran in float32."""
    out = model.copy()
    feats = samples.features
    std = feats.std(axis=0)
    std[std < 1e-12] = 1.0
    out.feature_mean, out.feature_std, out.scaler_fitted = feats.mean(axis=0), std, True
    x_all, r_all = (a.astype(dtype) for a in _training_matrices(out, samples))
    rng = np.random.default_rng(config.seed)
    m_w = [np.zeros(w.shape, dtype) for w in out.weights]
    v_w = [np.zeros(w.shape, dtype) for w in out.weights]
    m_b = [np.zeros(b.shape, dtype) for b in out.biases]
    v_b = [np.zeros(b.shape, dtype) for b in out.biases]
    step, history = 0, []
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(len(samples))
        sse = 0.0
        for lo in range(0, len(samples), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            mask = rng.random((batch.size, 3 * out.n)) >= DROPOUT_RATE
            weights = [w.astype(dtype) for w in out.weights]
            biases = [b.astype(dtype) for b in out.biases]
            d_w = [np.empty_like(w) for w in weights]
            d_b = [np.empty_like(b) for b in biases]
            loss = _backprop(weights, biases, x_all[batch], r_all[batch], mask, d_w, d_b)
            sse += loss * batch.size
            step += 1
            correct1 = 1.0 - config.beta1 ** step
            correct2 = 1.0 - config.beta2 ** step
            for l in range(6):
                for grads, params, ms, vs in (
                    (d_w[l], out.weights[l], m_w[l], v_w[l]),
                    (d_b[l], out.biases[l], m_b[l], v_b[l]),
                ):
                    ms *= config.beta1
                    ms += (1.0 - config.beta1) * grads
                    vs *= config.beta2
                    vs += (1.0 - config.beta2) * grads ** 2
                    params -= lr * (ms / correct1) / (np.sqrt(vs / correct2) + config.epsilon)
        history.append(sse / len(samples))
    return out, history


class TestFlatAdam:
    # (40, 50, 16): N = 40 has 299,320 parameters, so Adam runs over nine
    # full blocks and a ragged tail, and 50 pairs leave a last batch of 2
    @pytest.mark.parametrize("n, count, batch", [(6, 40, 16), (11, 23, 8), (40, 50, 16)])
    def test_bit_identical_to_per_layer_loop(self, n, count, batch):
        rng = np.random.default_rng(n)
        samples = make_samples(rng, n, count)
        cfg = TrainConfig(epochs=5, batch_size=batch, seed=3,
                          lr_decay_epochs=(2, 4))
        got, got_history = train(init_model(n, seed=5), samples, cfg)
        want, want_history = reference_train(init_model(n, seed=5), samples, cfg)
        assert got.params.dtype == np.float64
        assert got_history == want_history
        assert got.params.tobytes() == want.params.tobytes()

    def test_close_to_float64_training(self):
        # float32 rounds to about 6e-8 relative.  Over these 40 Adam steps the
        # weights move by about 2.5e-2; allow 1e-5 on each (1% of one step of
        # lr 1e-3) and 1e-5 relative on each epoch's loss, some 70 times the
        # differences measured when this test was written (1e-6 and 1.4e-7)
        rng = np.random.default_rng(40)
        samples = make_samples(rng, 40, 50)
        cfg = TrainConfig(epochs=10, batch_size=16, seed=3, lr_decay_epochs=(5,))
        got, got_history = train(init_model(40, seed=5), samples, cfg)
        want, want_history = reference_train(init_model(40, seed=5), samples, cfg,
                                             dtype=np.float64)
        np.testing.assert_allclose(got_history, want_history, rtol=1e-5)
        np.testing.assert_allclose(got.params, want.params, rtol=0, atol=1e-5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises(self):
        rng = np.random.default_rng(61)
        samples = make_samples(rng, 8, 16)
        with pytest.raises(NumericsError):
            train(init_model(8, seed=1), samples,
                  TrainConfig(epochs=3, batch_size=16, initial_lr=1e150))


class TestLatency:
    def test_thirty_five_curves_under_budget(self):
        import time

        rng = np.random.default_rng(51)
        model = scaled_model(100, seed=1)
        curves = [make_curve(rng, 100, k=k % 5 + 1) for k in range(35)]
        feats = [make_features(rng) for _ in range(35)]
        forward_many(model, curves, feats)  # warm the BLAS path
        # the best of five timed calls, as criterion 12 takes, so one busy
        # moment on the host does not fail the budget
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            forward_many(model, curves, feats)
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.01
