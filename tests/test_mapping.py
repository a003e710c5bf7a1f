import dataclasses
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoseer import mapping
from thermoseer.cli import load_checkpoint, save_checkpoint
from thermoseer.core import (
    DomainError,
    NumericsError,
    ProcessSettings,
    ShapeError,
    ThermoseerError,
)
from thermoseer.mapping import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    DROPOUT_RATE,
    CurvePairs,
    MappingModel,
    TrainConfig,
    _backprop,
    _layer_views,
    _net_forward,
    _training_matrices,
    forward_many,
    forward_raw,
    init_model,
    layer_dims,
    loss_gradients,
    mse_loss,
    param_count,
    param_size,
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


def make_curves(rng, n, count=1, low=150.0, high=1400.0):
    return rng.uniform(low, high, size=(count, n))


def make_features(rng, count=1):
    # layer print time, source-layer dwell, deposition rate, relative height
    return np.array([[rng.uniform(10, 21), rng.uniform(30, 300), rng.uniform(50, 115),
                      rng.uniform(1.5, 60)] for _ in range(count)])


def make_samples(rng, n, count):
    inputs, features, targets = [], [], []
    for _ in range(count):
        inp = make_curves(rng, n)[0]
        targets.append(inp * rng.uniform(0.9, 1.1) + rng.normal(0, 5, n))
        inputs.append(inp)
        features.append(make_features(rng)[0])
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

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("n", [2, 7, 100])
    def test_weights_equal_per_layer_uniform_draws(self, n, seed):
        # each weight matrix drawn in place has the bytes of rng.uniform's own
        # matrix, one fan-in-scaled layer after the other
        rng = np.random.default_rng(seed)
        dims = layer_dims(n)
        want = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(1.0 / fan_in)
            want += [rng.uniform(-bound, bound, size=(fan_in, fan_out)), np.zeros(fan_out)]
        assert init_model(n, seed=seed).params.tobytes() == np.concatenate(
            [a.reshape(-1) for a in want]).tobytes()

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
        feats = make_features(rng, batch)
        np.testing.assert_array_equal(forward_raw(model, temps, feats), temps)

    def test_wrong_size_rejected(self):
        with pytest.raises(ShapeError):
            MappingModel(n=4, params=np.zeros(10), feature_mean=np.zeros(4),
                         feature_std=np.ones(4), scaler_fitted=False, seed=0)


BAD_NUMBERS = (math.nan, math.inf, -math.inf, 0.0, -1.0)


def _model_fields(model):
    return {"n": model.n, "params": model.params.copy(),
            "feature_mean": model.feature_mean.copy(), "feature_std": model.feature_std.copy(),
            "scaler_fitted": model.scaler_fitted, "seed": model.seed}


class TestModelInvariants:
    # a model that holds a NaN weight or a zero feature_std would score every
    # pair as a NaN REOP; it is refused when it is built
    @pytest.mark.parametrize("field, value", [("params", math.nan), ("feature_std", 0.0)])
    def test_nan_weight_or_zero_feature_std_refused(self, field, value):
        fields = _model_fields(scaled_model(4, seed=1))
        fields[field][-1] = value
        with pytest.raises(DomainError, match=field.replace("params", "parameters")):
            MappingModel(**fields)

    @pytest.mark.parametrize("n", [0, 1])
    def test_n_below_two_refused(self, n):
        # param_size is the one N rule, which the model and init_model both reach
        with pytest.raises(DomainError, match="n must be >= 2"):
            MappingModel(n=n, params=np.zeros(0), feature_mean=np.zeros(4),
                         feature_std=np.ones(4), scaler_fitted=False, seed=0)
        with pytest.raises(DomainError, match="n must be >= 2"):
            init_model(n)

    def test_non_finite_trained_weights_raise_numerics_error(self):
        # one step at lr 1e39 moves weights past the float32 maximum while the
        # step's own loss is still finite
        samples = make_samples(np.random.default_rng(61), 8, 4)
        with pytest.raises(NumericsError, match="parameters must be finite"):
            train(init_model(8, seed=1), samples,
                  TrainConfig(epochs=1, batch_size=64, initial_lr=1e39))

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("epochs", 2.5), ("epochs", math.nan),
        ("batch_size", 2.5)])
    def test_train_config_refuses_what_train_cannot_run(self, field, value):
        # each of these used to pass the constructor and fail inside train
        # with a bare numpy or Python error
        with pytest.raises(DomainError, match=f"{field} must be a whole number"):
            TrainConfig(**{field: value})

    @settings(max_examples=100, deadline=None)
    @given(field=st.sampled_from(["n", "params", "feature_mean", "feature_std", "seed"]),
           value=st.sampled_from(BAD_NUMBERS), index=st.integers(0, 2 ** 16))
    def test_bad_number_refused_or_harmless(self, field, value, index):
        # one numeric field (one entry of an array) set to NaN, +-inf, 0 or
        # -1: building the model either raises a package error or gives a
        # model whose outputs are finite, with no numpy warning
        fields = _model_fields(scaled_model(4, seed=1))
        if isinstance(fields[field], np.ndarray):
            fields[field][index % fields[field].size] = value
        else:
            fields[field] = value
        rng = np.random.default_rng(index)
        temps, feats = make_curves(rng, 4, 3), make_features(rng, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                model = MappingModel(**fields)
            except ThermoseerError:
                return
            out = forward_raw(model, temps, feats)
        assert np.isfinite(out).all()


class TestForward:
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_residual_identity_with_zero_weights(self, n):
        rng = np.random.default_rng(1)
        model = zero_model(n)
        temps = make_curves(rng, n, 3)
        np.testing.assert_array_equal(forward_many(model, temps, make_features(rng, 3)), temps)

    def test_inference_deterministic(self):
        rng = np.random.default_rng(2)
        model = scaled_model(12, seed=3)
        temps, feats = make_curves(rng, 12), make_features(rng)
        a = forward_raw(model, temps, feats)
        b = forward_raw(model, temps, feats)
        np.testing.assert_array_equal(a, b)

    def test_wrong_n_rejected(self):
        rng = np.random.default_rng(4)
        model = scaled_model(12, seed=3)
        with pytest.raises(ShapeError):
            forward_many(model, make_curves(rng, 13), make_features(rng))
        with pytest.raises(ShapeError):
            forward_raw(model, make_curves(rng, 13), make_features(rng))
        with pytest.raises(ShapeError):  # features must pair up with the curves
            forward_many(model, make_curves(rng, 12, 3), make_features(rng, 2))

    def test_output_beyond_the_physical_range_is_a_model_error(self):
        rng = np.random.default_rng(6)
        model = zero_model(10)
        model.biases[-1][...] = 20.0  # adds 20,000 degC: finite, but no surface is that hot
        with pytest.raises(NumericsError, match="mapping model predicts"):
            forward_many(model, make_curves(rng, 10), make_features(rng))

    def test_forward_many_matches_loop(self):
        rng = np.random.default_rng(5)
        model = scaled_model(10, seed=7)
        curves, feats = make_curves(rng, 10, 8), make_features(rng, 8)
        batched = forward_many(model, curves, feats)
        assert batched.shape == (8, 10)
        for c, f, got in zip(curves, feats, batched):
            want = forward_raw(model, c, f)[0]
            np.testing.assert_allclose(got, want, rtol=1e-12)
        assert forward_many(model, curves[:0], feats[:0]).shape == (0, 10)


def reference_forward(model, temps, features):
    """forward_raw as it ran when every model was float64: the affine chain
    in float64, the residual added to the input curves."""
    h = np.concatenate([temps / 1000.0, (features - model.feature_mean) / model.feature_std],
                       axis=-1)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    return (h @ model.weights[-1] + model.biases[-1]) * 1000.0 + temps


def trained_model(n, seed):
    rng = np.random.default_rng(seed)
    model, _ = train(init_model(n, seed=seed), make_samples(rng, n, 32),
                     TrainConfig(epochs=2, batch_size=8, seed=seed))
    return model


class TestFloat32Model:
    def test_float64_model_keeps_its_bits(self):
        # an N = 100 batch of 35, as one layer's map runs online
        rng = np.random.default_rng(2024)
        model = init_model(100, seed=1)
        temps, feats = make_curves(rng, 100, 35), make_features(rng, 35)
        assert model.params.dtype == np.float64
        assert (forward_raw(model, temps, feats).tobytes()
                == reference_forward(model, temps, feats).tobytes())

    def test_trained_model_maps_in_float32(self):
        rng = np.random.default_rng(71)
        model = trained_model(10, seed=7)
        wide = dataclasses.replace(model, params=model.params.astype(np.float64))
        temps, feats = make_curves(rng, 10, 6), make_features(rng, 6)
        got, want = forward_raw(model, temps, feats), forward_raw(wide, temps, feats)
        assert model.params.dtype == np.float32 and got.dtype == np.float64
        assert not np.array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-3)

    @pytest.mark.parametrize("batch", [1, 35])
    def test_zero_weight_identity_in_float32(self, batch):
        rng = np.random.default_rng(72)
        model = zero_model(12)
        model = dataclasses.replace(model, params=model.params.astype(np.float32))
        temps = make_curves(rng, 12, batch)
        np.testing.assert_array_equal(forward_raw(model, temps, make_features(rng, batch)),
                                      temps)

    def test_loss_and_gradients_are_those_of_the_float64_copy(self):
        model = trained_model(8, seed=9)
        wide = dataclasses.replace(model, params=model.params.astype(np.float64))
        pairs = make_samples(np.random.default_rng(73), 8, 12)
        d_w, d_b, loss = loss_gradients(model, pairs)
        want_w, want_b, want_loss = loss_gradients(wide, pairs)
        assert loss == want_loss == mse_loss(model, pairs) == mse_loss(wide, pairs)
        for got, want in zip(d_w + d_b, want_w + want_b):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        assert model.params.dtype == np.float32  # widened per call, not in place


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

    def test_lr_keeps_halving_past_epoch_500(self):
        # the paper's formula 0.001 * 0.5 ** (epoch // 100) holds for any
        # number of epochs, not only the default 500
        cfg = TrainConfig(epochs=700)
        assert cfg.lr_at(499) == 6.25e-05
        assert cfg.lr_at(500) == 3.125e-05
        assert cfg.lr_at(600) == 1.5625e-05

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(22)
        model = init_model(8, seed=1)
        cfg = TrainConfig(epochs=30, batch_size=16, seed=3)
        out, history = train(model, make_samples(rng, 8, 64), cfg)
        assert len(history) == 30
        assert history[-1] < history[0]
        assert out.training_meta["epochs_run"] == 30
        assert out.training_meta["lr_history"][0] == 0.001

    def test_meta_records_the_blas_build_and_thread_setting(self):
        # they decide a float32 matmul's last bits, so a checkpoint carries them
        out, _ = train(init_model(4, seed=1), make_samples(np.random.default_rng(5), 4, 8),
                       TrainConfig(epochs=1, batch_size=8))
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert out.training_meta["blas_name"] == blas["name"]
        assert out.training_meta["blas_version"] == blas["version"]
        assert (out.training_meta["openblas_num_threads"]
                == os.environ.get("OPENBLAS_NUM_THREADS"))
        # an unset setting leaves OpenBLAS one thread per CPU
        assert out.training_meta["cpu_count"] == os.cpu_count()

    def test_deterministic_training(self):
        rng = np.random.default_rng(23)
        samples = make_samples(rng, 8, 32)
        cfg = TrainConfig(epochs=5, batch_size=8, seed=9)
        a, ha = train(init_model(8, seed=4), samples, cfg)
        b, hb = train(init_model(8, seed=4), samples, cfg)
        assert ha == hb
        assert a.params.tobytes() == b.params.tobytes()

    def test_trained_weights_are_one_float32_store(self):
        # the trained params are the float32 store training updated
        rng = np.random.default_rng(27)
        trained, _ = train(init_model(8, seed=4), make_samples(rng, 8, 32),
                           TrainConfig(epochs=3, batch_size=8, seed=9))
        assert trained.params.dtype == np.float32
        np.testing.assert_array_equal(
            trained.params.astype(np.float32).astype(np.float64), trained.params)

    @pytest.mark.parametrize("fitted", [False, True])
    def test_input_model_is_not_written(self, fitted):
        rng = np.random.default_rng(28)
        samples = make_samples(rng, 8, 32)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=9)
        model = init_model(8, seed=4)
        if fitted:  # a pretrained model, as fine-tuning starts from
            model, _ = train(model, samples, cfg)
            model.params.flags.writeable = False
        def state(m):
            return (m.params.tobytes(), m.feature_mean.tobytes(), m.feature_std.tobytes(),
                    m.params.flags.writeable, m.scaler_fitted)
        before = state(model)
        tuned, _ = train(model, make_samples(rng, 8, 16), cfg)
        assert state(model) == before
        assert not np.shares_memory(tuned.params, model.params)
        assert tuned.params.tobytes() != model.params.tobytes()

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


def allocating_backprop(weights, biases, x, r, dropout_mask):
    """The backward pass written plainly, with a new array for every
    gradient: the reference for ``_backprop``, which writes input gradients
    over the activations and lets the maps share one gradient buffer.
    Returns each map's weight and bias gradients and the batch loss, in the
    dtype of the arrays passed."""
    out, post = _net_forward(weights, biases, x, dropout_mask)
    diff = out - r
    loss = float(np.mean(diff ** 2))
    d_weights, d_biases = [None] * 6, [None] * 6
    grad = (2.0 / diff.size) * diff
    d_weights[-1] = post[-1].T @ grad
    d_biases[-1] = grad.sum(axis=0)
    grad = grad @ weights[-1].T
    if dropout_mask is not None:
        grad *= dropout_mask
        grad /= 1.0 - DROPOUT_RATE
    for l in range(4, -1, -1):
        grad *= post[l] > 0.0
        below = post[l - 1] if l > 0 else x
        d_weights[l] = below.T @ grad
        d_biases[l] = grad.sum(axis=0)
        if l > 0:
            grad = grad @ weights[l].T
    return d_weights, d_biases, loss


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


class TestBackprop:
    @pytest.mark.parametrize("n", [6, 11, 40])
    @pytest.mark.parametrize("dropout", [False, True])
    def test_bits_equal_the_allocating_backward_pass(self, n, dropout):
        rng = np.random.default_rng(n)
        samples = make_samples(rng, n, 24)
        model = scaled_model(n, seed=3)
        mask = rng.random((24, 3 * n)) >= DROPOUT_RATE if dropout else None
        x, r = _training_matrices(samples, model.feature_mean, model.feature_std)

        # float64, through loss_gradients
        d_w, d_b, loss = loss_gradients(model, samples, mask)
        want_w, want_b, want_loss = allocating_backprop(model.weights, model.biases, x, r, mask)
        assert (_bytes(d_w), _bytes(d_b), loss) == (_bytes(want_w), _bytes(want_b), want_loss)

        # float32, as training runs it
        params = model.params.astype(np.float32)
        weights, biases = _layer_views(params, n)
        x, r = x.astype(np.float32), r.astype(np.float32)
        want_w, want_b, want_loss = allocating_backprop(weights, biases, x, r, mask)
        d_w, d_b = _layer_views(np.empty_like(params), n)
        assert _backprop(weights, biases, x, r, mask, d_w, d_b) == want_loss
        assert (_bytes(d_w), _bytes(d_b)) == (_bytes(want_w), _bytes(want_b))

        # as train calls it: every map's gradient at the head of one shared
        # buffer, taken by the hook, which then overwrites the map's weights
        dims = layer_dims(n)
        maps = list(zip(dims[:-1], dims[1:]))
        shared = np.empty(max((fan_in + 1) * fan_out for fan_in, fan_out in maps), np.float32)
        d_w = [shared[:fan_in * fan_out].reshape(fan_in, fan_out) for fan_in, fan_out in maps]
        d_b = [shared[fan_in * fan_out:(fan_in + 1) * fan_out] for fan_in, fan_out in maps]
        taken = {}

        def done(l):
            taken[l] = (d_w[l].tobytes(), d_b[l].tobytes())
            weights[l][:] = np.nan

        assert _backprop(weights, biases, x, r, mask, d_w, d_b, done) == want_loss
        assert list(taken) == [5, 4, 3, 2, 1, 0]
        assert [taken[l] for l in range(6)] == list(zip(_bytes(want_w), _bytes(want_b)))


@pytest.fixture(scope="module")
def canonical_pairs():
    """The 1,015 curve pairs of layers 1-30 of the canonical 40 x 7 wall at N = 100."""
    settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 40,
                                     layer_print_time=20.5, deposition_rate=52.8)
    return extract_curve_pairs(generate_wall(settings, SynthParams(seed=7), n=100),
                               range(1, 31))


class TestTrainMemory:
    # In units of the float32 store S = 4 bytes a parameter (7.46 MB at
    # N = 100), training holds the weights and Adam's two moments (3 S), one
    # map's gradient (0.39 S) and one step's activations: 4.06 S traced.  A
    # caller that holds its float64 starting model adds that model's 2 S
    # (6.06-6.16 S); one that passes it as a temporary has it freed before
    # the first step.  With a full-size gradient, a new array per layer's
    # gradient and the starting model held to the end, both cases peaked at
    # 6.95-7.06 S.
    @pytest.mark.parametrize("held, bound", [
        (True, 6.5),
        pytest.param(False, 4.5, marks=pytest.mark.skipif(
            sys.version_info < (3, 11),
            reason="CPython 3.10 keeps a call's arguments on the caller's stack")),
    ])
    def test_traced_peak_in_float32_stores(self, canonical_pairs, held, bound):
        config = TrainConfig(epochs=1, batch_size=256, seed=0)

        def run():
            if held:
                model = init_model(100, seed=0)
                return train(model, canonical_pairs, config)
            return train(init_model(100, seed=0), canonical_pairs, config)

        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1] / (4 * param_size(100))
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    # training's bytes do not depend on the allocator's history: a freed
    # block larger than one step's activations leaves the heap's reuse
    # threshold and free memory different for the second run, at one batch
    # of all 1,015 pairs and at 256, whose last batch holds 247
    @pytest.mark.parametrize("batch_size", [2048, 256])
    def test_a_freed_block_changes_nothing(self, canonical_pairs, batch_size):
        config = TrainConfig(epochs=2, batch_size=batch_size, seed=0)
        plain, plain_history = train(init_model(100, seed=0), canonical_pairs, config)
        activations = min(batch_size, len(canonical_pairs)) * sum(layer_dims(100)[1:-1])
        block = np.full(2 * activations, np.nan, np.float32)
        del block
        primed, primed_history = train(init_model(100, seed=0), canonical_pairs, config)
        assert primed_history == plain_history
        assert primed.params.tobytes() == plain.params.tobytes()


def reference_train(model, samples, config, dtype=np.float32):
    """The per-layer Adam loop that flat, blocked training replaced: one
    master copy and one moment pair per weight and bias array, updated array
    by array with Adam's bias corrections folded into the step size and
    epsilon (Kingma and Ba).  With float32 the masters, gradients and moments
    are float32, as in ``train``; with float64 every value is float64, as
    training was before it ran in float32.  The returned params are in the
    training dtype."""
    feats = samples.features
    std = feats.std(axis=0)
    std[std < 1e-12] = 1.0
    out = dataclasses.replace(model, feature_mean=feats.mean(axis=0), feature_std=std,
                              scaler_fitted=True)
    x_all, r_all = (a.astype(dtype) for a in _training_matrices(samples, out.feature_mean,
                                                                 out.feature_std))
    rng = np.random.default_rng(config.seed)
    weights = [w.astype(dtype) for w in out.weights]
    biases = [b.astype(dtype) for b in out.biases]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step, history = 0, []
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(len(samples))
        sse = 0.0
        for lo in range(0, len(samples), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            mask = rng.random((batch.size, 3 * out.n)) >= DROPOUT_RATE
            d_w = [np.empty_like(w) for w in weights]
            d_b = [np.empty_like(b) for b in biases]
            loss = _backprop(weights, biases, x_all[batch], r_all[batch], mask, d_w, d_b)
            sse += loss * batch.size
            step += 1
            root2 = math.sqrt(1.0 - ADAM_BETA2 ** step)
            alpha = lr * root2 / (1.0 - ADAM_BETA1 ** step)
            eps_hat = ADAM_EPSILON * root2
            for l in range(6):
                for grads, params, ms, vs in (
                    (d_w[l], weights[l], m_w[l], v_w[l]),
                    (d_b[l], biases[l], m_b[l], v_b[l]),
                ):
                    ms *= ADAM_BETA1
                    ms += (1.0 - ADAM_BETA1) * grads
                    vs *= ADAM_BETA2
                    vs += (1.0 - ADAM_BETA2) * grads ** 2
                    params -= alpha * (ms / (np.sqrt(vs) + eps_hat))
        history.append(sse / len(samples))
    params = np.concatenate([a.ravel() for layer in zip(weights, biases) for a in layer])
    return dataclasses.replace(out, params=params), history


class TestFlatAdam:
    # (40, 50, 16): N = 40 has 299,320 parameters, so Adam runs over nine
    # full blocks and a ragged tail, and 50 pairs leave a last batch of 2
    @pytest.mark.parametrize("n, count, batch", [(6, 40, 16), (11, 23, 8), (40, 50, 16)])
    def test_bit_identical_to_per_layer_loop(self, n, count, batch, monkeypatch):
        monkeypatch.setattr(mapping, "LR_DECAY_EVERY", 2)
        rng = np.random.default_rng(n)
        samples = make_samples(rng, n, count)
        cfg = TrainConfig(epochs=5, batch_size=batch, seed=3)
        got, got_history = train(init_model(n, seed=5), samples, cfg)
        want, want_history = reference_train(init_model(n, seed=5), samples, cfg)
        assert got.params.dtype == want.params.dtype == np.float32
        assert got_history == want_history
        assert got.params.tobytes() == want.params.tobytes()

    def test_close_to_float64_training(self, monkeypatch):
        # float32 rounds to about 6e-8 relative.  Over these 40 Adam steps the
        # weights move by about 2.5e-2; allow 1e-5 on each (1% of one step of
        # lr 1e-3) and 1e-5 relative on each epoch's loss, some 70 times the
        # differences measured when this test was written (1e-6 and 1.4e-7)
        rng = np.random.default_rng(40)
        samples = make_samples(rng, 40, 50)
        monkeypatch.setattr(mapping, "LR_DECAY_EVERY", 5)
        cfg = TrainConfig(epochs=10, batch_size=16, seed=3)
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
        curves, feats = make_curves(rng, 100, 35), make_features(rng, 35)
        forward_many(model, curves, feats)  # warm the BLAS path
        # the best of five timed calls, as criterion 12 takes, so one busy
        # moment on the host does not fail the budget
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            forward_many(model, curves, feats)
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.01
