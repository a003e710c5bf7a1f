import inspect
import math
import time
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from thermoseer.core import (
    DomainError,
    NumericsError,
    PointId,
    Profile,
    ShapeError,
    ThermoseerError,
    reop,
)
from thermoseer.reconstruct import (
    ElmModel,
    LayerReconstruction,
    build_profile_matrix,
    elm_predict,
    elm_train,
    fit_layer,
    pod_decompose,
    reconstruct_profile,
    reconstruct_stacked,
)

from conftest import layer_at_threshold


def affine_profile(d, n=100, layer=8, travel_speed=8.0, base=400.0, slope=30.0):
    """Profile whose stacked vector is an exact affine function of delay."""
    rng = np.random.default_rng(17)
    shape_a = rng.uniform(0.5, 1.5, size=5 * n)
    shape_b = rng.uniform(-0.5, 0.5, size=5 * n)
    delay = d / travel_speed
    stacked = base * shape_a + slope * delay * (1.0 + shape_b)
    point = PointId.from_distance(layer, d, travel_speed)
    return Profile(point, stacked.reshape(5, n), [50.0 + 2 * k for k in range(5)])


def layer_profiles(count, n=100, layer=8, travel_speed=8.0, base=400.0, slope=30.0):
    return [affine_profile(20.0 * j, n, layer, travel_speed, base, slope)
            for j in range(1, count + 1)]


class TestProfileMatrix:
    def test_shape_five_n_by_m(self):
        matrix, delays = build_profile_matrix(layer_profiles(7))
        assert matrix.shape == (500, 7)
        assert delays.shape == (7,)

    def test_columns_sorted_by_delay(self):
        profiles = layer_profiles(5)
        matrix, delays = build_profile_matrix(list(reversed(profiles)))
        assert np.all(np.diff(delays) > 0)
        np.testing.assert_array_equal(matrix[:, 0], profiles[0].temps.reshape(-1))

    def test_column_unstacks_to_curves(self):
        profiles = layer_profiles(4, n=20)
        matrix, _ = build_profile_matrix(profiles)
        prof = profiles[2]
        for k in range(5):
            np.testing.assert_array_equal(
                matrix[k * 20:(k + 1) * 20, 2], prof.temps[k])

    def test_duplicated_profile_is_rank_one(self):
        prof = layer_profiles(1)[0]
        other = Profile(PointId.from_distance(8, 40.0, 8.0), prof.temps, prof.durations)
        matrix, _ = build_profile_matrix([prof, other])
        assert np.linalg.matrix_rank(matrix) == 1

    def test_mixed_layers_rejected(self):
        a = layer_profiles(2, layer=3)
        b = layer_profiles(2, layer=4)
        with pytest.raises(DomainError):
            build_profile_matrix([a[0], b[1]])

    def test_mixed_n_rejected(self):
        a = layer_profiles(2, n=30)[0]
        b = layer_profiles(2, n=40)[1]
        with pytest.raises(ShapeError):
            build_profile_matrix([a, b])

    def test_too_few_profiles_rejected(self):
        with pytest.raises(DomainError):
            build_profile_matrix(layer_profiles(1))


class TestPodDecompose:
    def test_rank_one_matrix(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(100)
        v = rng.standard_normal(6)
        basis, rows, m_star, s = pod_decompose(np.outer(u, v))
        assert m_star == 1
        assert s[0] > 0 and np.all(s[1:] < 1e-10)

    def test_two_singular_values_hand_case(self):
        # singular values (3, 1): first-mode energy 9/10 < 0.99, so m_star = 2
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((50, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        s_true = np.array([3.0, 1.0])
        matrix = q @ np.diag(s_true) @ v.T
        _, _, m_star, s = pod_decompose(matrix, 0.99)
        np.testing.assert_allclose(s, s_true, atol=1e-12)
        assert m_star == 2
        _, _, m_star_low, _ = pod_decompose(matrix, 0.9)
        assert m_star_low == 1

    def test_full_basis_reproduces_matrix(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((500, 7))
        basis, rows, m_star, _ = pod_decompose(matrix, 1.0)
        assert m_star == 7
        err = np.linalg.norm(matrix - basis @ rows.T) / np.linalg.norm(matrix)
        assert err < 1e-10

    def test_energy_bound_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            matrix = rng.standard_normal((500, 7))
            basis, rows, m_star, s = pod_decompose(matrix, 0.99)
            err = np.linalg.norm(matrix - basis @ rows.T) / np.linalg.norm(matrix)
            assert err <= np.sqrt(1.0 - 0.99) + 1e-10

    def test_m_star_minimality_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            matrix = rng.standard_normal((60, 9)) * rng.uniform(0.1, 10)
            threshold = rng.uniform(0.5, 0.999)
            _, _, m_star, s = pod_decompose(matrix, threshold)
            total = np.sum(s ** 2)
            prefix = [np.sum(s[:m] ** 2) / total for m in range(1, s.size + 1)]
            assert prefix[m_star - 1] >= threshold - 1e-12
            if m_star > 1:
                assert prefix[m_star - 2] < threshold

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(rows=st.integers(2, 80), cols=st.integers(1, 12),
                      seed=st.integers(0, 2 ** 32 - 1), threshold=st.floats(0.05, 1.0))
    def test_energy_bound_property(self, rows, cols, seed, threshold):
        # m* modes keep at least the threshold's share of the energy, both by
        # the singular values and by the reconstruction; m* - 1 modes keep less
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((rows, cols)) * rng.uniform(0.1, 10.0, size=cols)
        basis, coeffs, m_star, s = pod_decompose(matrix, threshold)
        share = np.sum(s[:m_star] ** 2) / np.sum(s ** 2)
        assert share >= threshold - 1e-12
        kept = 1.0 - (np.linalg.norm(matrix - basis @ coeffs.T) / np.linalg.norm(matrix)) ** 2
        assert kept >= threshold - 1e-9
        if m_star > 1:
            assert np.sum(s[:m_star - 1] ** 2) / np.sum(s ** 2) < threshold

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(7)
        basis, _, m_star, _ = pod_decompose(rng.standard_normal((200, 5)), 0.99)
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(m_star))) < 1e-10

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            pod_decompose(np.zeros((50, 4)))

    def test_nonfinite_rejected(self):
        bad = np.ones((50, 4))
        bad[0, 0] = np.nan
        with pytest.raises(DomainError):
            pod_decompose(bad)


class TestElm:
    def test_planted_solution_recovered(self):
        rng = np.random.default_rng(8)
        delays = rng.uniform(0.5, 20.0, size=7)
        sample = elm_train(delays, np.zeros((7, 3)), n_hidden=128, seed=11)
        h = np.maximum(
            np.outer((delays - sample.delay_mean) / sample.delay_std,
                     sample.hidden_weights) + sample.hidden_biases, 0.0)
        beta0 = rng.standard_normal((128, 3))
        y = h @ beta0
        elm = elm_train(delays, y, n_hidden=128, seed=11)
        np.testing.assert_allclose(elm_predict(elm, delays), y, atol=1e-8)

    def test_residual_matches_pseudoinverse(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m, m_star = 7, int(rng.integers(1, 8))
            delays = rng.uniform(0.1, 25.0, size=m)
            y = rng.standard_normal((m, m_star)) * rng.uniform(0.5, 50)
            elm = elm_train(delays, y, n_hidden=128, seed=int(rng.integers(1000)))
            h = np.maximum(
                np.outer((delays - elm.delay_mean) / elm.delay_std,
                         elm.hidden_weights) + elm.hidden_biases, 0.0)
            res = np.linalg.norm(h @ elm.output_weights - y)
            res_pinv = np.linalg.norm(h @ (np.linalg.pinv(h) @ y) - y)
            assert abs(res - res_pinv) < 1e-8

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(10)
        delays = rng.uniform(0.5, 20.0, size=7)
        y = rng.standard_normal((7, 4))
        elm = elm_train(delays, y, n_hidden=128, seed=3)
        h = np.maximum(
            np.outer((delays - elm.delay_mean) / elm.delay_std,
                     elm.hidden_weights) + elm.hidden_biases, 0.0)
        best = np.linalg.norm(h @ elm.output_weights - y)
        for _ in range(100):
            perturbed = elm.output_weights + rng.standard_normal(
                elm.output_weights.shape) * rng.uniform(1e-6, 1e-2)
            assert best <= np.linalg.norm(h @ perturbed - y) + 1e-6

    def test_single_output_column_shape(self):
        elm = elm_train(np.linspace(1, 10, 5), np.ones((5, 1)), n_hidden=16, seed=0)
        assert elm.output_weights.shape == (16, 1)
        assert elm_predict(elm, [3.0]).shape == (1, 1)
        # the delays are one 1-D sequence: a bare scalar or a 2-D block is refused
        for delays in (3.0, np.ones((2, 1))):
            with pytest.raises(ShapeError, match="1-D"):
                elm_predict(elm, delays)

    def test_zero_hidden_parameters_give_zero_output(self):
        elm = ElmModel(np.zeros(8), np.zeros(8), np.ones((8, 3)), 0.0, 1.0)
        np.testing.assert_array_equal(elm_predict(elm, [123.4]), np.zeros((1, 3)))

    def test_deterministic(self):
        delays = np.linspace(1, 10, 6)
        y = np.arange(18.0).reshape(6, 3)
        a = elm_train(delays, y, seed=5)
        b = elm_train(delays, y, seed=5)
        np.testing.assert_array_equal(a.output_weights, b.output_weights)
        np.testing.assert_array_equal(elm_predict(a, [4.2]), elm_predict(b, [4.2]))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            elm_train(np.array([1.0, 2.0]), np.array([[np.inf], [1.0]]))

    # each key must give its own draw, so a cache keyed on less than
    # (n_hidden, seed) fails one of these
    @pytest.mark.parametrize("n_hidden, seed", [(128, 0), (128, 11), (16, 11), (16, 5)])
    def test_hidden_layer_drawn_once_per_seed_and_read_only(self, n_hidden, seed):
        delays = np.linspace(1.0, 10.0, 6)
        a = elm_train(delays, np.ones((6, 2)), n_hidden=n_hidden, seed=seed)
        b = elm_train(delays + 1.0, np.zeros((6, 3)), n_hidden=n_hidden, seed=seed)
        rng = np.random.default_rng(seed)
        omega = rng.uniform(-1.0, 1.0, size=n_hidden)
        bias = rng.uniform(-1.0, 1.0, size=n_hidden)
        assert a.hidden_weights.tobytes() == omega.tobytes()
        assert a.hidden_biases.tobytes() == bias.tobytes()
        assert b.hidden_weights is a.hidden_weights and b.hidden_biases is a.hidden_biases
        for array in (a.hidden_weights, a.hidden_biases):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("m", [2, 7, 8, 9, 17, 100])
    def test_delay_moments_equal_numpy_bit_for_bit(self, m):
        # the sizes cross numpy's 8-element pairwise-summation block
        rng = np.random.default_rng(m)
        for scale in (1e-3, 1.0, 37.0, 1e6):
            delays = rng.uniform(0.0, scale, size=m)
            elm = elm_train(delays, np.ones((m, 1)), n_hidden=8)
            assert elm.delay_mean == float(np.mean(delays))
            assert elm.delay_std == float(np.std(delays))


class TestFrameGeometry:
    @pytest.mark.parametrize("n", [2, 3, 40, 100])
    @pytest.mark.parametrize("durations", [(5.0,) * 5, (50.0, 52.0, 54.0, 56.0, 58.0),
                                           (0.1, 1e3, 0.7, 33.3, 1.0 / 3.0)])
    def test_bounds_and_grids_equal_their_formulas(self, n, durations):
        basis = np.linalg.qr(np.random.default_rng(n).normal(size=(5 * n, 1)))[0]
        elm = elm_train(np.array([1.0, 2.0]), np.ones((2, 1)), n_hidden=8)
        recon = LayerReconstruction(basis, elm, layer=3, durations=durations,
                                    delay_range=(1.0, 2.0))
        bounds = np.concatenate([[0.0], np.cumsum(durations)])
        grids = np.linspace(0.0, durations, n, axis=-1)
        assert recon.bounds.tobytes() == bounds.tobytes()
        assert recon.grids.shape == (5, n) and recon.grids.tobytes() == grids.tobytes()
        for k in range(5):
            assert recon.grids[k].tobytes() == np.linspace(0.0, durations[k], n).tobytes()
        assert recon.bounds is recon.bounds and recon.grids is recon.grids
        assert not (recon.bounds.flags.writeable or recon.grids.flags.writeable)


class TestReconstructStacked:
    @hypothesis.given(m_star=st.integers(1, 7), n=st.integers(2, 40),
                      n_delays=st.integers(1, 1000), n_rows=st.integers(1, 4),
                      seed=st.integers(0, 2**32 - 1))
    @hypothesis.settings(max_examples=60, deadline=None)
    def test_gathered_rows_equal_the_block_bit_for_bit(self, m_star, n, n_delays,
                                                        n_rows, seed):
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.normal(size=(5 * n, m_star)))[0]
        train_delays = np.sort(rng.uniform(0.0, 20.0, size=m_star + 1))
        elm = elm_train(train_delays, rng.normal(0.0, 500.0, size=(m_star + 1, m_star)),
                        seed=seed % 7)
        recon = LayerReconstruction(basis, elm, layer=3, durations=(5.0,) * 5,
                                    delay_range=(train_delays[0], train_delays[-1]))
        delays = rng.uniform(-5.0, 25.0, size=n_delays)
        rows = rng.integers(0, 5 * n, size=(n_rows, n_delays))
        got = reconstruct_stacked(recon, delays, rows)
        assert got.shape == rows.shape
        assert np.array_equal(got, reconstruct_stacked(recon, delays)[rows,
                                                                      np.arange(n_delays)])


class TestReconstructProfile:
    def test_training_point_reproduced_with_full_basis(self):
        profiles = layer_profiles(5)
        recon = layer_at_threshold(profiles, 1.0, seed=2)
        assert recon.m_star <= 5
        for prof in profiles:
            got = reconstruct_profile(recon, prof.point)
            rel = np.linalg.norm(got.temps - prof.temps) / np.linalg.norm(prof.temps)
            assert rel < 1e-8

    def test_linear_field_interior_delay(self):
        # the affine family has rank exactly two; retaining its full effective
        # rank leaves only the ELM's delay interpolation as the error source
        profiles = layer_profiles(5)  # training points at 20..100 mm
        recon = layer_at_threshold(profiles, 1.0, seed=3)
        assert recon.m_star == 2
        for d in (30.0, 50.0, 70.0, 90.0):
            want = affine_profile(d)
            got = reconstruct_profile(recon, want.point)
            assert reop(got, want) < 0.01

    def test_output_shape_contract(self):
        recon = fit_layer(layer_profiles(6, n=40))
        point = PointId(recon.layer, 9.37 * 8.0, 9.37)
        prof = reconstruct_profile(recon, point)
        assert prof.temps.shape == (5, 40)
        assert prof.n == 40
        assert prof.point is point
        np.testing.assert_array_equal(prof.temps.reshape(-1),
                                      reconstruct_stacked(recon, [9.37])[:, 0])

    def test_point_on_another_layer_rejected(self):
        recon = fit_layer(layer_profiles(6, n=40))
        with pytest.raises(DomainError, match="layer 9"):
            reconstruct_profile(recon, PointId(recon.layer + 1, 40.0, 5.0))

    def test_end_to_end_timing_budget(self):
        profiles = layer_profiles(7)
        t0 = time.perf_counter()
        recon = fit_layer(profiles)
        for delay in (3.0, 9.0, 15.0):
            reconstruct_profile(recon, PointId(recon.layer, delay * 8.0, delay))
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.02

    def test_fit_layer_runs_on_the_paper_constants(self):
        # fit_layer takes no setting, and it is the full-rank cases' helper at
        # 99% energy and hidden seed 0, bit for bit
        assert list(inspect.signature(fit_layer).parameters) == ["profiles"]
        rng = np.random.default_rng(29)
        profiles = [Profile(p.point, rng.uniform(100.0, 1500.0, size=(5, 40)), p.durations)
                    for p in layer_profiles(7, n=40)]
        got, want = fit_layer(profiles), layer_at_threshold(profiles, 0.99)
        assert got.m_star == want.m_star > 1
        for a, b in ((got.basis, want.basis), (got.elm.output_weights, want.elm.output_weights),
                     (got.elm.hidden_weights, want.elm.hidden_weights)):
            assert a.tobytes() == b.tobytes()
        assert got.elm.hidden_weights.size == 128
        assert (got.layer, got.durations, got.delay_range) == \
            (want.layer, want.durations, want.delay_range)


def _layer_parts(n=4, m_star=2):
    """An orthonormal (5n, m_star) basis and an ELM predicting m_star
    coefficients from delays in [1, 4]."""
    rng = np.random.default_rng(23)
    basis = np.linalg.qr(rng.normal(size=(5 * n, m_star)))[0]
    elm = elm_train(np.array([1.0, 2.0, 4.0]), rng.normal(0.0, 100.0, size=(3, m_star)),
                    n_hidden=8)
    return basis, elm


BAD_NUMBERS = (math.nan, math.inf, -math.inf, 0.0, -1.0)


def _elm_of(n_hidden, output_rows, n_biases=None):
    return ElmModel(np.zeros(n_hidden), np.zeros(n_hidden if n_biases is None else n_biases),
                    np.zeros((output_rows, 2)), 0.0, 1.0)


class TestArgumentErrors:
    @pytest.mark.parametrize("error, call", [
        (ShapeError, lambda: pod_decompose(np.ones(6))),
        (DomainError, lambda: pod_decompose(np.eye(6, 2), energy_threshold=0.0)),
        (DomainError, lambda: pod_decompose(np.eye(6, 2), energy_threshold=1.5)),
        (DomainError, lambda: elm_train(np.array([1.0]), np.zeros((1, 2)))),
        (ShapeError, lambda: elm_train(np.arange(3.0), np.zeros((4, 2)))),
        (DomainError, lambda: elm_train(np.arange(3.0), np.zeros((3, 2)), n_hidden=0)),
        (ShapeError, lambda: _elm_of(4, 4, n_biases=3)),
        (ShapeError, lambda: _elm_of(4, 3)),
        (ShapeError, lambda: LayerReconstruction(np.eye(10)[0], _elm_of(4, 4), 3,
                                                 (1.0,) * 5, (1.0, 4.0))),
        (ShapeError, lambda: LayerReconstruction(np.eye(6, 2), _elm_of(4, 4), 3,
                                                 (1.0,) * 5, (1.0, 4.0))),
        (ShapeError, lambda: build_profile_matrix(layer_profiles(10, n=2)))],
        ids=["pod-1d", "pod-energy-0", "pod-energy-1.5", "elm-one-delay",
             "elm-row-count", "elm-no-hidden", "elm-biases", "elm-output-rows",
             "layer-1d-basis", "layer-rows-not-5n", "matrix-wide"])
    def test_raises_its_package_error(self, error, call):
        # each bad argument is named by the package's own error class, never
        # left to a numpy error further in
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error


class TestModelInvariants:
    def test_nan_basis_refused(self):
        _, elm = _layer_parts(m_star=1)
        with pytest.raises(NumericsError, match="orthonormal"):
            LayerReconstruction(np.full((10, 1), np.nan), elm, 3, (1.0,) * 5, (1.0, 4.0))

    @pytest.mark.parametrize("durations, delay_range", [
        ((-1.0, 0.0, math.nan, 1.0, 1.0), (math.nan, -math.inf)),
        ((-1.0, 0.0, math.nan, 1.0, 1.0), (1.0, 4.0)),
        ((1.0,) * 5, (math.nan, -math.inf)),
        ((1.0,) * 5, (4.0, 1.0))])
    def test_bad_durations_or_delay_range_refused(self, durations, delay_range):
        basis, elm = _layer_parts()
        with pytest.raises(DomainError):
            LayerReconstruction(basis, elm, 3, durations, delay_range)

    def test_elm_of_another_width_refused(self):
        basis, _ = _layer_parts(m_star=2)
        _, elm = _layer_parts(m_star=3)
        with pytest.raises(ShapeError):
            LayerReconstruction(basis, elm, 3, (1.0,) * 5, (1.0, 4.0))

    @pytest.mark.parametrize("field, value", [("output_weights", math.nan),
                                              ("delay_std", 0.0)])
    def test_nan_output_weights_or_zero_delay_std_refused(self, field, value):
        _, elm = _layer_parts()
        fields = {"hidden_weights": elm.hidden_weights, "hidden_biases": elm.hidden_biases,
                  "output_weights": elm.output_weights.copy(),
                  "delay_mean": elm.delay_mean, "delay_std": elm.delay_std}
        if field == "output_weights":
            fields[field][0, 0] = value
        else:
            fields[field] = value
        with pytest.raises(DomainError):
            ElmModel(**fields)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(field=st.sampled_from(
        ["hidden_weights", "hidden_biases", "output_weights", "delay_mean", "delay_std",
         "basis", "layer", "durations", "delay_range"]),
        value=st.sampled_from(BAD_NUMBERS), index=st.integers(0, 2 ** 16))
    def test_bad_number_refused_or_harmless(self, field, value, index):
        # one numeric field (one entry of an array or tuple) set to NaN,
        # +-inf, 0 or -1: building the ELM, then the layer, either raises a
        # package error or gives finite outputs, with no numpy warning
        basis, elm = _layer_parts()
        elm_fields = {"hidden_weights": elm.hidden_weights.copy(),
                      "hidden_biases": elm.hidden_biases.copy(),
                      "output_weights": elm.output_weights.copy(),
                      "delay_mean": elm.delay_mean, "delay_std": elm.delay_std}
        layer_fields = {"basis": basis, "layer": 3,
                        "durations": np.array([5.0, 6.0, 7.0, 8.0, 9.0]),
                        "delay_range": np.array([1.0, 4.0])}
        fields = elm_fields if field in elm_fields else layer_fields
        if isinstance(fields[field], np.ndarray):
            fields[field].flat[index % fields[field].size] = value
        else:
            fields[field] = value
        for key in ("durations", "delay_range"):
            layer_fields[key] = tuple(layer_fields[key].tolist())
        delays = np.array([0.0, 1.0, 2.5, 4.0, 6.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                built = ElmModel(**elm_fields)
                recon = LayerReconstruction(elm=built, **layer_fields)
            except ThermoseerError:
                return
            outputs = (elm_predict(built, delays), reconstruct_stacked(recon, delays),
                       recon.bounds, recon.grids)
        assert all(np.isfinite(out).all() for out in outputs)
