import time

import numpy as np
import pytest

from thermoseer.core import Curve, DomainError, PointId, Profile, ShapeError, reop
from thermoseer.reconstruct import (
    ElmModel,
    build_profile_matrix,
    elm_predict,
    elm_predict_many,
    elm_train,
    fit_layer,
    pod_decompose,
    reconstruct_profile,
)


def affine_profile(d, n=100, layer=8, travel_speed=8.0, base=400.0, slope=30.0):
    """Profile whose stacked vector is an exact affine function of delay."""
    rng = np.random.default_rng(17)
    shape_a = rng.uniform(0.5, 1.5, size=5 * n)
    shape_b = rng.uniform(-0.5, 0.5, size=5 * n)
    delay = d / travel_speed
    stacked = base * shape_a + slope * delay * (1.0 + shape_b)
    point = PointId.from_distance(layer, d, travel_speed)
    curves = tuple(
        Curve(stacked[k * n:(k + 1) * n], 50.0 + 2 * k, k + 1) for k in range(5)
    )
    return Profile(point, curves)


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
        np.testing.assert_array_equal(matrix[:, 0], profiles[0].stacked())

    def test_column_unstacks_to_curves(self):
        profiles = layer_profiles(4, n=20)
        matrix, _ = build_profile_matrix(profiles)
        prof = profiles[2]
        for k in range(5):
            np.testing.assert_array_equal(
                matrix[k * 20:(k + 1) * 20, 2], prof.curves[k].temps)

    def test_duplicated_profile_is_rank_one(self):
        prof = layer_profiles(1)[0]
        other = Profile(PointId.from_distance(8, 40.0, 8.0), prof.curves)
        matrix, _ = build_profile_matrix([prof, other])
        assert np.linalg.matrix_rank(matrix) == 1

    def test_mixed_layers_rejected(self):
        a = layer_profiles(2, layer=3)
        b = layer_profiles(2, layer=4)
        with pytest.raises(ShapeError):
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
        np.testing.assert_allclose(elm_predict_many(elm, delays), y, atol=1e-8)

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
        assert elm_predict(elm, 3.0).shape == (1,)

    def test_zero_hidden_parameters_give_zero_output(self):
        elm = ElmModel(np.zeros(8), np.zeros(8), np.ones((8, 3)), 0.0, 1.0, 0)
        np.testing.assert_array_equal(elm_predict(elm, 123.4), np.zeros(3))

    def test_deterministic(self):
        delays = np.linspace(1, 10, 6)
        y = np.arange(18.0).reshape(6, 3)
        a = elm_train(delays, y, seed=5)
        b = elm_train(delays, y, seed=5)
        np.testing.assert_array_equal(a.output_weights, b.output_weights)
        np.testing.assert_array_equal(elm_predict(a, 4.2), elm_predict(b, 4.2))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            elm_train(np.array([1.0, 2.0]), np.array([[np.inf], [1.0]]))


class TestReconstructProfile:
    def test_training_point_reproduced_with_full_basis(self):
        profiles = layer_profiles(5)
        recon = fit_layer(profiles, travel_speed=8.0, energy_threshold=1.0, seed=2)
        assert recon.m_star <= 5
        for prof in profiles:
            got = reconstruct_profile(recon, prof.point.relative_delay)
            rel = np.linalg.norm(got.stacked() - prof.stacked()) \
                / np.linalg.norm(prof.stacked())
            assert rel < 1e-8

    def test_linear_field_interior_delay(self):
        # the affine family has rank exactly two; retaining its full effective
        # rank leaves only the ELM's delay interpolation as the error source
        profiles = layer_profiles(5)  # training points at 20..100 mm
        recon = fit_layer(profiles, travel_speed=8.0, energy_threshold=1.0, seed=3)
        assert recon.m_star == 2
        for d in (30.0, 50.0, 70.0, 90.0):
            want = affine_profile(d)
            got = reconstruct_profile(recon, want.point.relative_delay)
            assert reop(got, want) < 0.01

    def test_output_shape_contract(self):
        recon = fit_layer(layer_profiles(6, n=40), travel_speed=8.0, seed=1)
        prof = reconstruct_profile(recon, 9.37)
        assert len(prof.curves) == 5
        assert prof.n == 40
        assert prof.point.axial_distance == pytest.approx(9.37 * 8.0)

    def test_end_to_end_timing_budget(self):
        profiles = layer_profiles(7)
        t0 = time.perf_counter()
        recon = fit_layer(profiles, travel_speed=8.0, seed=0)
        for delay in (3.0, 9.0, 15.0):
            reconstruct_profile(recon, delay)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.02
