import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from thermoseer.core import (
    DomainError,
    HorizonError,
    MetricError,
    PairingError,
    PointId,
    ProcessSettings,
    ProtocolError,
    Profile,
    ShapeError,
    WallDataset,
    mapping_features,
    reop,
)
from thermoseer.mapping import CurvePairs, TrainConfig, forward_raw, init_model, train
from thermoseer.pipeline import (
    ROOM_TEMPERATURE,
    count_curve_pairs,
    evaluate,
    extract_curve_pairs,
    mapped_pair_reops,
    predict_layer,
    predict_next_layer,
    predict_point,
    render_field,
    run_benchmark,
)
from thermoseer.preprocess import overlap_truncate_rows
from thermoseer.reconstruct import reconstruct_stacked
from thermoseer.synthgen import SynthParams, generate_experiment_wall, generate_wall

from conftest import layer_at_threshold


def zero_model(n):
    model = init_model(n, seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.scaler_fitted = True
    return model


@pytest.fixture(scope="module")
def wall(request):
    from thermoseer.core import ProcessSettings

    settings = ProcessSettings(
        travel_speed=8.0, wire_feed_rate=3.0, wire_diameter=1.2,
        layer_length=160.0, layer_thickness=1.5, layer_print_time=20.5,
        deposition_rate=52.8, interpass_target=200.0, num_layers=40,
    )
    return generate_wall(settings, SynthParams(seed=42), points_per_layer=7, n=100)


@pytest.fixture(scope="module")
def noisy_wall(wall):
    """The canonical wall with 1 degC sensor noise, whose layers keep six or
    seven modes at energy thresholds near 1."""
    return generate_wall(wall.settings, SynthParams(seed=42, noise_sd=1.0),
                         points_per_layer=7, n=100)


@pytest.fixture(scope="module")
def trained(wall):
    """A 2-epoch model of the canonical wall's layers 1-30, with the float32
    parameters training leaves."""
    model, _ = train(init_model(100, seed=0),
                     extract_curve_pairs(wall, layers=list(range(1, 31))),
                     TrainConfig(epochs=2, batch_size=256, seed=0))
    return model


class TestFloat32Inference:
    def test_within_a_millidegree_of_float64_inference(self, wall, trained):
        # the same weights widened to float64 map every curve of the wall
        # (1,190) to within 2.6e-4 degC of the float32 pass, as measured when
        # this test was written
        pairs = extract_curve_pairs(wall)
        wide = dataclasses.replace(trained, params=trained.params.astype(np.float64))
        got = forward_raw(trained, pairs.inputs, pairs.features)
        assert trained.params.dtype == np.float32
        np.testing.assert_allclose(got, forward_raw(wide, pairs.inputs, pairs.features),
                                   rtol=0, atol=1e-3)


class TestPredictNextLayer:
    def test_zero_model_maps_identically(self, wall):
        measured = wall.profiles_on(12)
        pred = predict_next_layer(zero_model(100), measured,
                                  wall.settings, wall.schedule)
        assert pred.layer == 13
        assert len(pred.mapped_profiles) == 7
        for got, src in zip(pred.mapped_profiles, measured):
            np.testing.assert_array_equal(got.temps, src.temps)
            assert got.point.layer == 13
            assert got.durations == src.durations

    def test_reconstruction_built(self, wall):
        pred = predict_next_layer(zero_model(100), wall.profiles_on(30),
                                  wall.settings, wall.schedule)
        assert pred.reconstruction.m_star <= 7
        assert pred.reconstruction.layer == 31

    def test_latency_budget(self, wall):
        measured = wall.profiles_on(30)
        model = zero_model(100)
        predict_next_layer(model, measured, wall.settings, wall.schedule)  # warm-up
        runs = [predict_next_layer(model, measured, wall.settings, wall.schedule)
                for _ in range(3)]
        assert all(p.elapsed < 0.1 for p in runs)
        assert min(p.map_seconds for p in runs) < 0.01
        assert min(p.reconstruct_seconds for p in runs) < 0.02

    def test_mixed_layers_rejected(self, wall):
        mixed = wall.profiles_on(3)[:2] + wall.profiles_on(4)[:1]
        with pytest.raises(DomainError):
            predict_next_layer(zero_model(100), mixed, wall.settings, wall.schedule)

    def test_first_layer_guard(self, wall):
        with pytest.raises(ProtocolError, match="first layer"):
            predict_layer(zero_model(100), wall, 1)

    def test_predict_layer_matches_manual(self, wall):
        a = predict_layer(zero_model(100), wall, 9)
        b = predict_next_layer(zero_model(100), wall.profiles_on(8),
                               wall.settings, wall.schedule)
        for pa, pb in zip(a.mapped_profiles, b.mapped_profiles):
            np.testing.assert_array_equal(pa.temps, pb.temps)


class TestPredictPoint:
    def test_training_position_near_mapped_profile(self, wall):
        # at full effective rank the ELM exact-fit composition reproduces a
        # training point up to the discarded below-rank energy (~5e-7 here)
        pred = predict_next_layer(zero_model(100), wall.profiles_on(20),
                                  wall.settings, wall.schedule)
        pred = dataclasses.replace(
            pred, reconstruction=layer_at_threshold(pred.mapped_profiles, 1.0))
        mapped = pred.mapped_profiles[2]
        got = predict_point(pred, mapped.point.axial_distance, wall.settings)
        rel = np.linalg.norm(got.temps - mapped.temps) / np.linalg.norm(mapped.temps)
        assert rel < 1e-5

    def test_training_position_within_truncation_error_at_default(self, wall):
        pred = predict_next_layer(zero_model(100), wall.profiles_on(20),
                                  wall.settings, wall.schedule)
        mapped = pred.mapped_profiles[2]
        got = predict_point(pred, mapped.point.axial_distance, wall.settings)
        rel = np.linalg.norm(got.temps - mapped.temps) / np.linalg.norm(mapped.temps)
        assert rel < 0.01

    def test_delay_arithmetic(self, wall):
        pred = predict_next_layer(zero_model(100), wall.profiles_on(20),
                                  wall.settings, wall.schedule)
        prof = predict_point(pred, 60.0, wall.settings)
        assert prof.point.relative_delay == pytest.approx(60.0 / 8.0)
        assert prof.point.layer == 21

    def test_shape_contract(self, wall):
        pred = predict_next_layer(zero_model(100), wall.profiles_on(20),
                                  wall.settings, wall.schedule)
        prof = predict_point(pred, 47.3, wall.settings)
        assert prof.temps.shape == (5, 100) and prof.n == 100

    def test_returns_the_requested_distance(self):
        # at 11 mm/s, d / 11 * 11 is not d for these distances
        settings = ProcessSettings.build(11.0, 3.0, 160.0, 1.5, 12,
                                         layer_print_time=20.5, deposition_rate=52.8)
        small = generate_wall(settings, SynthParams(seed=3), points_per_layer=3, n=20)
        pred = predict_layer(zero_model(20), small, 4)
        for d in (60.0, 100.0, 120.0):
            assert d / 11.0 * 11.0 != d
            point = predict_point(pred, d, settings).point
            assert point.axial_distance == d
            assert point.relative_delay == d / 11.0

    def test_out_of_range_rejected(self, wall):
        pred = predict_next_layer(zero_model(100), wall.profiles_on(20),
                                  wall.settings, wall.schedule)
        with pytest.raises(DomainError):
            predict_point(pred, 161.0, wall.settings)

    def test_builds_one_profile(self, wall, monkeypatch):
        pred = predict_next_layer(zero_model(100), wall.profiles_on(20),
                                  wall.settings, wall.schedule)
        built = []
        post_init = Profile.__post_init__

        def counting(profile):
            built.append(profile)
            post_init(profile)

        monkeypatch.setattr(Profile, "__post_init__", counting)
        prof = predict_point(pred, 47.3, wall.settings)
        assert built == [prof]


@pytest.fixture(scope="module")
def pred(wall):
    return predict_next_layer(zero_model(100), wall.profiles_on(30),
                              wall.settings, wall.schedule)


class TestRenderField:
    def test_time_zero_all_room_but_origin(self, wall, pred):
        frame = render_field(pred, wall.settings, wall.schedule, 0.0)
        assert frame.temps.size == 160
        assert np.all(frame.temps[1:] == ROOM_TEMPERATURE)
        assert frame.temps[0] > 1000.0

    def test_monotone_gradient_after_full_print(self, wall, pred):
        frame = render_field(pred, wall.settings, wall.schedule, 20.5)
        # all deposited; later positions are hotter, judged inside the mapped
        # span where the ELM interpolates instead of extrapolating
        assert np.all(frame.temps > ROOM_TEMPERATURE)
        inner = frame.temps[frame.interior]
        assert inner[-1] > inner[0]
        assert np.mean(np.diff(inner) >= 0) > 0.95

    def test_interior_flags_mapped_span(self, wall, pred):
        frame = render_field(pred, wall.settings, wall.schedule, 20.5)
        span = frame.positions[frame.interior]
        assert span[0] >= 20.0 - 1e-9
        assert span[-1] <= 140.0 + 1e-9

    def test_default_resolution(self, wall, pred):
        frame = render_field(pred, wall.settings, wall.schedule, 5.0)
        assert frame.positions.size == 160
        assert frame.positions[0] == 0.0
        assert frame.positions[-1] == wall.settings.layer_length

    def test_continuity_away_from_front(self, wall, pred):
        a = render_field(pred, wall.settings, wall.schedule, 40.0)
        b = render_field(pred, wall.settings, wall.schedule, 40.1)
        assert np.max(np.abs(b.temps - a.temps)) < 50.0

    def test_horizon_error(self, wall, pred):
        limit = float(np.sum(pred.reconstruction.durations))
        render_field(pred, wall.settings, wall.schedule, limit - 1.0)
        with pytest.raises(HorizonError, match="maximum representable"):
            render_field(pred, wall.settings, wall.schedule, limit + 0.1)

    @pytest.mark.parametrize("local_time", [float("nan"), float("inf"), -1.0])
    def test_bad_local_time_rejected(self, wall, pred, local_time):
        with pytest.raises(DomainError, match="local_time"):
            render_field(pred, wall.settings, wall.schedule, local_time)

    @pytest.mark.parametrize("n_positions", [1, 10**9])
    def test_bad_position_count_rejected_before_allocating(self, wall, pred, n_positions):
        with pytest.raises(DomainError, match="positions"):
            render_field(pred, wall.settings, wall.schedule, 5.0, n_positions=n_positions)

    def test_bound_counts_the_elm_hidden_matrix(self):
        # at N = 2 a position needs 10 curve values but 128 hidden-matrix
        # values: 3,000,000 positions (about 3 GB) are refused before allocating
        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                         layer_print_time=20.5, deposition_rate=52.8)
        tiny = generate_wall(settings, SynthParams(seed=3), points_per_layer=3, n=2)
        pred = predict_layer(zero_model(2), tiny, 4)
        assert pred.reconstruction.elm.hidden_weights.size == 128
        with pytest.raises(DomainError, match="3000000 positions"):
            render_field(pred, settings, tiny.schedule, 5.0, n_positions=3_000_000)


def _reference_frame(prediction, settings, local_time, n_positions):
    """The per-position loop render_field ran before its array pass: one
    np.linspace grid and one np.interp call per printed position."""
    recon = prediction.reconstruction
    bounds = np.concatenate([[0.0], np.cumsum(recon.durations)])
    positions = np.linspace(0.0, settings.layer_length, n_positions)
    temps = np.full(n_positions, ROOM_TEMPERATURE)
    deposit_times = positions / settings.travel_speed
    printed = local_time >= deposit_times
    if not np.any(printed):
        return temps
    delays = deposit_times[printed]
    stacked = reconstruct_stacked(recon, delays)
    n = recon.n
    values = np.empty(delays.size)
    for i, tau in enumerate(local_time - delays):
        k = min(int(np.searchsorted(bounds, tau, side="right")) - 1, 4)
        grid = np.linspace(0.0, recon.durations[k], n)
        values[i] = np.interp(tau - bounds[k], grid, stacked[k * n:(k + 1) * n, i])
    temps[printed] = values
    return temps


class TestRenderFieldMatchesLoop:
    @pytest.mark.parametrize("n_positions", [2, 7, 160, 1000])
    def test_bit_identical_at_boundaries_and_interior(self, wall, pred, n_positions):
        boundaries = np.cumsum(pred.reconstruction.durations)  # the last is the horizon
        times = [0.0, *boundaries, *np.linspace(0.0, boundaries[-1], 27)[1:-1]]
        for t in times:
            frame = render_field(pred, wall.settings, wall.schedule, t,
                                 n_positions=n_positions)
            assert np.array_equal(frame.temps,
                                  _reference_frame(pred, wall.settings, t, n_positions)), t

    @pytest.mark.parametrize("layer", [2, 20, 35])
    def test_bit_identical_for_a_trained_model(self, wall, trained, layer):
        pred = predict_layer(trained, wall, layer)
        boundaries = np.cumsum(pred.reconstruction.durations)
        for t in [0.0, *boundaries, *np.linspace(0.0, boundaries[-1], 27)[1:-1]]:
            frame = render_field(pred, wall.settings, wall.schedule, t)
            assert np.array_equal(frame.temps,
                                  _reference_frame(pred, wall.settings, t, 160)), t

    @pytest.mark.parametrize("energy_threshold, m_star", [(0.999999, 6), (1.0, 7)])
    def test_bit_identical_with_several_modes(self, noisy_wall, energy_threshold, m_star):
        pred = predict_next_layer(zero_model(100), noisy_wall.profiles_on(30),
                                  noisy_wall.settings, noisy_wall.schedule)
        pred = dataclasses.replace(pred, reconstruction=layer_at_threshold(
            pred.mapped_profiles, energy_threshold))
        assert pred.reconstruction.m_star == m_star
        boundaries = np.cumsum(pred.reconstruction.durations)
        for n_positions in (2, 7, 160, 1000):
            for t in [0.0, *boundaries, *np.linspace(0.0, boundaries[-1], 27)[1:-1]]:
                frame = render_field(pred, noisy_wall.settings, noisy_wall.schedule, t,
                                     n_positions=n_positions)
                want = _reference_frame(pred, noisy_wall.settings, t, n_positions)
                assert np.array_equal(frame.temps, want), (n_positions, t)

    @given(data=st.data(), n_positions=st.sampled_from([2, 7, 160, 1000]))
    @hsettings(max_examples=60, deadline=None)
    def test_bit_identical_at_any_time(self, wall, pred, data, n_positions):
        horizon = float(np.cumsum(pred.reconstruction.durations)[-1])
        t = data.draw(st.floats(0.0, horizon), label="local_time")
        frame = render_field(pred, wall.settings, wall.schedule, t, n_positions=n_positions)
        assert np.array_equal(frame.temps,
                              _reference_frame(pred, wall.settings, t, n_positions))


class TestEvaluate:
    def test_identical_all_zero(self, wall):
        truth = wall.profiles_on(10)
        report = evaluate(truth, truth)
        assert all(r == 0.0 for r in report.reops())
        assert report.per_layer[10].median == 0.0

    def test_one_scaled_profile(self, wall):
        truth = wall.profiles_on(10)
        preds = list(truth)
        scaled = Profile(truth[0].point, truth[0].temps * 1.02, truth[0].durations)
        preds[0] = scaled
        report = evaluate(preds, truth)
        values = dict((p.axial_distance, r) for p, r in report.per_point)
        assert values[truth[0].point.axial_distance] == pytest.approx(0.02, abs=1e-12)
        assert report.per_layer[10].median == 0.0
        assert report.per_layer[10].maximum == pytest.approx(0.02, abs=1e-12)

    def test_median_is_sorted_middle(self, wall):
        truth = wall.profiles_on(10)
        preds = [Profile(p.point, p.temps * (1.0 + 0.01 * j), p.durations)
                 for j, p in enumerate(truth)]
        report = evaluate(preds, truth)
        values = sorted(report.reops())
        assert report.per_layer[10].median == pytest.approx(values[len(values) // 2])

    def test_orphans_rejected(self, wall):
        truth = wall.profiles_on(10)
        with pytest.raises(PairingError):
            evaluate(truth[:-1], truth)

    @pytest.mark.parametrize("side", ["predictions", "truth"])
    def test_point_named_twice_rejected(self, wall, side):
        # the later entry would replace the earlier one and score one point less
        a, b, c = wall.profiles_on(10)[:3]
        twice, once = [a, a, b, c], [a, b, c]
        with pytest.raises(PairingError, match=rf"\(10, {a.point.place}\) twice"):
            evaluate(twice, once) if side == "predictions" else evaluate(once, twice)

    def test_truncates_truth_to_prediction_duration(self, wall):
        # a prediction carrying the lower layer's shorter durations scores
        # against truth truncated to the same horizon
        lower = wall.profiles_on(10)[0]
        upper = wall.profiles_on(11)[0]
        pred = Profile(upper.point, lower.temps, lower.durations)
        report = evaluate([pred], [upper])
        assert report.reops()[0] < 0.15

    @hsettings(max_examples=60, deadline=None)
    @given(n_pred=st.integers(2, 12), n_truth=st.integers(2, 12),
           points=st.lists(st.tuples(st.sampled_from([4, 9]), st.integers(0, 160)),
                           min_size=1, max_size=8, unique=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_a_per_curve_oracle(self, n_pred, n_truth, points, seed):
        # points on two layers, truth N != prediction N, prediction durations
        # no longer than the truth's, both lists shuffled
        rng = np.random.default_rng(seed)
        preds, truth, want = [], [], {}
        for layer, d in points:
            point = PointId.from_distance(layer, float(d), 8.0)
            t_dur = rng.uniform(5.0, 80.0, size=5)
            p_dur = t_dur * np.where(rng.random(5) < 0.3, 1.0, rng.uniform(0.05, 1.0, size=5))
            t_temps = rng.uniform(1.0, 1500.0, size=(5, n_truth))
            p_temps = rng.uniform(1.0, 1500.0, size=(5, n_pred))
            preds.append(Profile(point, p_temps, p_dur))
            truth.append(Profile(point, t_temps, t_dur))
            aligned = np.concatenate([
                np.interp(np.linspace(0, p_dur[k], n_pred),
                          np.linspace(0, t_dur[k], n_truth), t_temps[k])
                for k in range(5)])
            p = np.concatenate(p_temps)
            want[(layer, float(d))] = np.mean(np.abs(p - aligned) / aligned)
        rng.shuffle(preds)
        rng.shuffle(truth)

        report = evaluate(preds, truth)
        got = [((p.layer, p.axial_distance), value) for p, value in report.per_point]
        assert [key for key, _ in got] == sorted(want)
        assert all(value == want[key] for key, value in got)
        assert sorted(report.per_layer) == sorted({layer for layer, _ in points})

    @pytest.mark.parametrize("side", ["predictions", "truth"])
    def test_mixed_n_rejected(self, wall, side):
        truth = wall.profiles_on(10)
        other = Profile(truth[0].point, truth[0].temps[:, :50], truth[0].durations)
        mixed = [other] + truth[1:]
        with pytest.raises(ShapeError):
            evaluate(mixed, truth) if side == "predictions" else evaluate(truth, mixed)


@pytest.mark.parametrize("path", ["reop", "evaluate", "mapped_pair_reops"])
def test_zero_degree_truth_is_a_metric_error(path):
    # 0 degC is a valid curve temperature, but REOP divides by the truth
    n = 6
    point = PointId.from_distance(3, 40.0, 8.0)
    temps = np.full((5, n), 300.0)
    temps[0, 0] = 0.0
    truth = Profile(point, temps, (50.0,) * 5)
    pred = Profile(point, np.full((5, n), 310.0), (50.0,) * 5)
    pairs = CurvePairs(np.full((5, n), 310.0), np.ones((5, 4)), temps)
    score = {"reop": lambda: reop(pred, truth),
             "evaluate": lambda: evaluate([pred], [truth]),
             "mapped_pair_reops": lambda: mapped_pair_reops(zero_model(n), pairs)}[path]
    with pytest.raises(MetricError, match="<= 0 degC"):
        score()


def test_nan_parameters_are_a_metric_error():
    # a model's params stay writable; a NaN written into them makes NaN
    # predictions, which the REOP kernel refuses instead of scoring NaN
    model = init_model(8)
    model.params[:] = np.nan
    pairs = CurvePairs(np.full((5, 8), 310.0), np.ones((5, 4)), np.full((5, 8), 300.0))
    with pytest.raises(MetricError, match="not finite"):
        mapped_pair_reops(model, pairs)


class TestCurvePairs:
    def test_full_wall_pair_count(self, wall):
        # 34 usable transitions x 7 points x 5 curves
        assert len(extract_curve_pairs(wall)) == 1190

    def test_count_is_the_extracted_length(self, wall):
        # a point dropped from layer 9 leaves its layer-8 partner unmatched
        # and takes its own pairs to layer 10 with it
        dropped = wall.profiles_on(9)[3]
        sparse = WallDataset(wall.settings, wall.schedule,
                             [p for p in wall.profiles if p is not dropped])
        for w in (wall, sparse):
            assert count_curve_pairs(w) == len(extract_curve_pairs(w))
        assert count_curve_pairs(sparse) == 1190 - 2 * 5

    def test_training_split_count(self, wall):
        # transitions inside layers 1..30: sources 1..29
        pairs = extract_curve_pairs(wall, layers=list(range(1, 31)))
        assert len(pairs) == 1015

    def test_targets_are_truncated_upper_curves(self, wall):
        pairs = extract_curve_pairs(wall, layers=[5, 6])
        assert len(pairs) == 35
        lower, upper = wall.profiles_on(5)[0], wall.profiles_on(6)[0]
        np.testing.assert_array_equal(
            pairs.targets[0],
            overlap_truncate_rows(upper.temps[:1], np.array(upper.durations[:1]),
                                  np.array(lower.durations[:1]), upper.n)[0])
        assert pairs.features[0, 1] == wall.schedule.for_layer(5)

    @hsettings(max_examples=30, deadline=None)
    @given(styles=st.lists(st.sampled_from(["simulation", "experiment"]),
                           min_size=1, max_size=2),
           n=st.integers(2, 12), points=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
    def test_rows_match_a_per_curve_oracle(self, styles, n, points, seed):
        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 8,
                                         layer_print_time=20.5, deposition_rate=52.8)
        make = {"simulation": generate_wall, "experiment": generate_experiment_wall}
        walls = [make[style](settings, SynthParams(seed=seed + w), points_per_layer=points, n=n)
                 for w, style in enumerate(styles)]
        pairs = extract_curve_pairs(walls)
        row = 0
        for wall in walls:
            for layer in wall.layers()[:-1]:
                feats = mapping_features(wall.settings, wall.schedule, layer)
                for lower, upper in zip(wall.profiles_on(layer), wall.profiles_on(layer + 1)):
                    for lo, lo_dur, up, up_dur in zip(lower.temps, lower.durations,
                                                      upper.temps, upper.durations):
                        want = np.interp(np.linspace(0, lo_dur, n),
                                         np.linspace(0, up_dur, n), up)
                        assert pairs.inputs[row].tobytes() == lo.tobytes()
                        assert pairs.features[row].tobytes() == feats.tobytes()
                        assert pairs.targets[row].tobytes() == want.tobytes()
                        row += 1
        assert row == len(pairs) == len(walls) * 2 * points * 5


class TestRunBenchmark:
    def test_zero_epoch_benchmark_runs(self, wall):
        report = run_benchmark(
            wall, wall,
            train_layers=list(range(1, 31)),
            test_layers=[31, 32],
            train_config=TrainConfig(epochs=0, seed=0),
            model_seed=0,
        )
        assert report.train_pairs == 1015
        assert sorted(report.per_layer) == [31, 32]

    def test_split_overlap_rejected(self, wall):
        with pytest.raises(ProtocolError):
            run_benchmark(wall, wall,
                          train_layers=list(range(1, 31)),
                          test_layers=[30, 31],
                          train_config=TrainConfig(epochs=0))

    def test_default_test_layers_overlap_rejected(self):
        from thermoseer.core import ProcessSettings

        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                         layer_print_time=20.5, deposition_rate=52.8)
        small = generate_wall(settings, SynthParams(seed=7), points_per_layer=3, n=40)
        # left out, the test layers are every layer with one below it
        with pytest.raises(ProtocolError, match=r"\[2, 3, 4\]"):
            run_benchmark(small, small, train_layers=[1, 2, 3, 4],
                          train_config=TrainConfig(epochs=0))

    def test_deterministic_report(self, wall):
        kwargs = dict(
            train_layers=list(range(1, 31)), test_layers=[31],
            train_config=TrainConfig(epochs=1, batch_size=256, seed=5),
            model_seed=3,
        )
        a = run_benchmark(wall, wall, **kwargs)
        b = run_benchmark(wall, wall, **kwargs)
        assert _report_fields(a) == _report_fields(b)

    def test_a_tuple_of_walls_is_the_list_of_them(self):
        # a WallDataset is one wall and any other iterable a collection of
        # walls, for run_benchmark as for extract_curve_pairs
        settings = ProcessSettings.build(num_layers=12, layer_print_time=20.5,
                                         deposition_rate=52.8)
        first, second, test = (generate_wall(settings, SynthParams(seed=seed),
                                             points_per_layer=3, n=40) for seed in (7, 8, 9))
        config = TrainConfig(epochs=1, batch_size=32, seed=5)
        reports = [run_benchmark(walls, test, train_config=config)
                   for walls in ([first, second], (first, second))]
        assert reports[0].train_pairs == len(extract_curve_pairs((first, second))) == 180
        assert _report_fields(reports[0]) == _report_fields(reports[1])


def _report_fields(report):
    return (report.train_pairs, report.final_train_loss, report.per_layer,
            report.mapped_per_layer)
