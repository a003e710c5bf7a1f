import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoseer.cli import load_checkpoint, save_checkpoint
from thermoseer.core import Curve, DomainError, MappingFeatures, NumericsError, ShapeError
from thermoseer.mapping import (
    CurvePairSample,
    MappingModel,
    TrainConfig,
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
    samples = []
    for _ in range(count):
        inp = make_curve(rng, n)
        target = Curve(inp.temps * rng.uniform(0.9, 1.1) + rng.normal(0, 5, n),
                       inp.duration * 0.9, inp.curve_index)
        samples.append(CurvePairSample(inp, make_features(rng), target))
    return samples


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

    def test_forward_many_matches_loop(self):
        rng = np.random.default_rng(5)
        model = scaled_model(10, seed=7)
        curves = [make_curve(rng, 10, k=k % 5 + 1) for k in range(8)]
        feats = [make_features(rng) for _ in range(8)]
        batched = forward_many(model, curves, feats)
        for c, f, got in zip(curves, feats, batched):
            want = forward_raw(model, c.temps, f.as_array())[0]
            np.testing.assert_allclose(got.temps, want, rtol=1e-12)


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
        rng = np.random.default_rng(25)
        samples = make_samples(rng, 8, 4) + make_samples(rng, 9, 1)
        with pytest.raises(ShapeError):
            train(init_model(8, seed=0), samples, TrainConfig(epochs=1))


def reference_train(model, samples, config):
    """The per-layer Adam loop the flat-vector training replaced: one moment
    pair per weight and bias array, updated block by block."""
    out = model.copy()
    feats = np.stack([s.features.as_array() for s in samples])
    std = feats.std(axis=0)
    std[std < 1e-12] = 1.0
    out.feature_mean, out.feature_std, out.scaler_fitted = feats.mean(axis=0), std, True
    x_all, r_all = _training_matrices(out, samples)
    rng = np.random.default_rng(config.seed)
    m_w = [np.zeros_like(w) for w in out.weights]
    v_w = [np.zeros_like(w) for w in out.weights]
    m_b = [np.zeros_like(b) for b in out.biases]
    v_b = [np.zeros_like(b) for b in out.biases]
    step, history = 0, []
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(len(samples))
        sse = 0.0
        for lo in range(0, len(samples), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            mask = rng.random((batch.size, 3 * out.n)) >= out.dropout_rate
            batch_samples = [samples[i] for i in batch]
            d_w, d_b, loss = loss_gradients(out, batch_samples, mask)
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
    @pytest.mark.parametrize("n, count, batch", [(6, 40, 16), (11, 23, 8)])
    def test_bit_identical_to_per_layer_loop(self, n, count, batch):
        rng = np.random.default_rng(n)
        samples = make_samples(rng, n, count)
        cfg = TrainConfig(epochs=5, batch_size=batch, seed=3,
                          lr_decay_epochs=(2, 4))
        got, got_history = train(init_model(n, seed=5), samples, cfg)
        want, want_history = reference_train(init_model(n, seed=5), samples, cfg)
        assert got_history == want_history
        assert got.params.tobytes() == want.params.tobytes()

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
        t0 = time.perf_counter()
        forward_many(model, curves, feats)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.01
