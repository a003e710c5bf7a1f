import hashlib
import math

import numpy as np
import pytest

from thermoseer import core
from thermoseer.cli import save_dataset
from thermoseer.core import (
    CURVES_PER_PROFILE,
    DomainError,
    PointId,
    ProcessSettings,
    curve_duration,
    deposition_time,
    reop_rows,
)
from thermoseer.preprocess import overlap_truncate_rows
from thermoseer.synthgen import (
    SynthParams,
    analytic_curve,
    build_schedule,
    cooling_time,
    deposition_peak,
    emulate_pyrometer,
    generate_experiment_wall,
    generate_wall,
    point_trace,
    solve_dwell,
)


@pytest.fixture
def params():
    return SynthParams(seed=42)


@pytest.fixture
def wall(settings, params):
    return generate_wall(settings, params, points_per_layer=7, n=100)


class TestSolveDwell:
    def test_closed_form_hand_value(self):
        # 30 * ln(600/175)
        assert cooling_time(30.0, 625.0, 25.0, 200.0) == pytest.approx(36.9643, abs=1e-3)

    def test_target_at_peak_is_zero(self, params):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 40, deposition_rate=52.8)
        peak = deposition_peak(params, s, s.layer_length / s.travel_speed)
        s_at_peak = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 40, deposition_rate=52.8,
                                          interpass_target=peak)
        assert solve_dwell(params, s_at_peak, 5) == pytest.approx(0.0, abs=1e-12)

    def test_height_independent_law_gives_identical_dwell(self, settings):
        # no height term anywhere: identical peaks and taus on every layer
        p = SynthParams(cool_height_gain=0.0, substrate_chill=0.0)
        dwells = {solve_dwell(p, settings, i) for i in range(1, 41)}
        assert len(dwells) == 1

    def test_nondecreasing_with_height(self, settings, params):
        sched = build_schedule(params, settings)
        assert all(sched.for_layer(i + 1) >= sched.for_layer(i) for i in range(1, 40))

    def test_target_at_or_below_ambient_rejected(self, params):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 40, interpass_target=20.0)
        with pytest.raises(DomainError):
            solve_dwell(SynthParams(ambient=25.0), s, 1)

    def test_oversized_cooling_constant_named(self, settings):
        # the cooling time constant overflows to inf, and so would the dwell
        with pytest.raises(DomainError, match=r"after layer \d+ .*cool_tau0 = 1e\+308"):
            build_schedule(SynthParams(cool_tau0=1e308), settings)


class TestGenerateWall:
    def test_layers_and_point_placement(self, settings, wall):
        assert wall.layers() == list(range(1, 36))
        on_one = wall.profiles_on(1)
        assert [p.point.axial_distance for p in on_one] == pytest.approx(
            [20.0 * j for j in range(1, 8)])

    def test_curve_start_is_the_deposition_peak(self, settings, params, wall):
        prof = wall.profiles_on(12)[3]
        peak = deposition_peak(params, settings, prof.point.relative_delay)
        assert prof.temps[0, 0] == pytest.approx(peak, abs=1.0)

    def test_durations_match_duration_law(self, settings, wall):
        for layer in (1, 10, 35):
            for prof in wall.profiles_on(layer):
                for k, duration in enumerate(prof.durations, start=1):
                    assert duration == curve_duration(wall.schedule, settings, layer, k)

    def test_same_layer_points_share_durations(self, wall):
        rows = wall.profiles_on(7)
        assert all(r.durations == rows[0].durations for r in rows)

    def test_cycle_continuity(self, wall):
        for prof in (wall.profiles_on(1)[0], wall.profiles_on(20)[4]):
            for k in range(4):
                gap = abs(prof.temps[k, -1] - prof.temps[k + 1, 0])
                assert gap < 1.0

    def test_end_of_dwell_near_interpass_target(self, settings, params, wall):
        # evaluate the oracle at the layer-end point, at the global end of the
        # layer's dwell, for every layer
        end_delay = settings.layer_length / settings.travel_speed
        for layer in range(1, 36):
            pt = PointId.from_distance(layer, settings.layer_length, settings.travel_speed)
            local = (settings.layer_print_time - end_delay) + wall.schedule.for_layer(layer)
            temp = analytic_curve(params, settings, wall.schedule, [pt], 1,
                                  np.array([local]))[0, 0]
            assert abs(temp - settings.interpass_target) <= 10.0

    def test_equals_per_curve_oracle_and_noise(self, settings):
        # one oracle call and one (5, n) noise draw per point give the bits of
        # five per-curve calls and five n-value draws from the same stream
        params = SynthParams(seed=9, noise_sd=1.5)
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 10, deposition_rate=52.8)
        ds = generate_wall(s, params, points_per_layer=3, n=30)
        for layer in ds.layers():
            for j, prof in enumerate(ds.profiles_on(layer), start=1):
                rng = np.random.default_rng((params.seed, layer, j))
                for k, (row, duration) in enumerate(zip(prof.temps, prof.durations), start=1):
                    (want,) = analytic_curve(params, s, ds.schedule, [prof.point], k,
                                             np.linspace(0.0, duration, 30))
                    want += rng.normal(0.0, params.noise_sd, size=30)
                    assert np.array_equal(row, want)

    def test_deterministic(self, settings, params):
        a = generate_wall(settings, params, points_per_layer=3, n=40)
        b = generate_wall(settings, params, points_per_layer=3, n=40)
        for pa, pb in zip(a.profiles, b.profiles, strict=True):
            assert pa.point == pb.point
            np.testing.assert_array_equal(pa.temps, pb.temps)

    def test_curve_similarity_bounded_and_shrinking(self, settings, wall):
        # REOP between the overlap-truncated upper curve and the lower curve
        # of each point pair: below 0.15 from layer 10 up, and its j-average
        # decreases with the layer.
        def layer_similarity(i):
            lows = wall.profiles_on(i)
            ups = wall.profiles_on(i + 1)
            assert [up.point.place for up in ups] == [low.point.place for low in lows]
            trunc = overlap_truncate_rows(
                np.concatenate([up.temps for up in ups]),
                np.array([up.durations for up in ups]).reshape(-1),
                np.array([low.durations for low in lows]).reshape(-1), wall.n)
            return reop_rows(trunc.reshape(len(lows), -1),
                             np.array([low.temps.reshape(-1) for low in lows]))

        averages = {}
        for i in range(10, 35):
            vals = layer_similarity(i)
            assert max(vals) < 0.15
            averages[i] = float(np.mean(vals))
        assert all(averages[i + 1] < averages[i] for i in range(10, 34))

    def test_rejects_tiny_walls_and_point_counts(self, settings, params):
        with pytest.raises(DomainError):
            generate_wall(settings, params, points_per_layer=1)
        small = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 5)
        with pytest.raises(DomainError):
            generate_wall(small, params, points_per_layer=7)

    def test_seven_points_a_layer_by_default(self):
        # both generators default to the canonical wall's seven points a layer
        s = ProcessSettings.build(num_layers=8)
        for generate in (generate_wall, generate_experiment_wall):
            ds = generate(s, SynthParams(seed=1), n=4)
            assert [len(ds.profiles_on(layer)) for layer in ds.layers()] == [7, 7, 7]

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be a whole number >= 0"):
            SynthParams(seed=-1, noise_sd=1.0)

    def test_rejects_overflowing_spacing(self, settings, params):
        for spacing in (20.0, 0.0, float("nan")):
            with pytest.raises(DomainError, match="do not fit"):
                generate_wall(settings, params, points_per_layer=9, spacing_mm=spacing)

    def test_a_spacing_that_is_not_a_real_number_takes_the_rule(self, settings, params):
        # True placed points at 1, 2 and 3 mm, and "5" ended in a bare TypeError
        for spacing in (True, "5", [5.0], 10**400):
            with pytest.raises(DomainError, match=r"^spacing_mm must be finite, got "):
                generate_wall(settings, params, points_per_layer=3, spacing_mm=spacing)
        for spacing in (float("inf"), np.float32("nan"), -5.0):
            with pytest.raises(DomainError, match="do not fit"):
                generate_wall(settings, params, points_per_layer=3, spacing_mm=spacing)
        wall = generate_wall(settings, params, points_per_layer=3, n=10,
                             spacing_mm=np.float32(5.0))
        assert [p.point.axial_distance for p in wall.profiles_on(1)] == [5.0, 10.0, 15.0]


class TestEmulatePyrometer:
    def test_inside_band_unchanged(self):
        temps = np.full(10, 500.0)
        out = emulate_pyrometer(temps, noise_sd=0.0)
        np.testing.assert_array_equal(out, temps)
        assert out is not temps

    def test_clamps_both_bounds(self):
        temps = np.array([1450.0, 500.0, 25.0])
        out = emulate_pyrometer(temps, noise_sd=0.0)
        np.testing.assert_allclose(out, [1000.0, 500.0, 150.0])
        np.testing.assert_array_equal(temps, [1450.0, 500.0, 25.0])  # input untouched

    def test_deterministic_given_seed(self):
        temps = np.full(50, 500.0)
        a = emulate_pyrometer(temps, noise_sd=5.0, seed=9)
        b = emulate_pyrometer(temps, noise_sd=5.0, seed=9)
        np.testing.assert_array_equal(a, b)


def _reference_trace(params, settings, schedule, point, sample_period, lead_in):
    """The masked loop point_trace ran before its one oracle call: one
    analytic_curve call per cycle on the samples inside that cycle's window."""
    durations = [curve_duration(schedule, settings, point.layer, k)
                 for k in range(1, CURVES_PER_PROFILE + 1)]
    n_lead = int(round(lead_in / sample_period))
    n_span = int(math.ceil(float(sum(durations)) / sample_period))
    offsets = (np.arange(-n_lead, n_span + 1)) * sample_period
    temps = np.empty_like(offsets)
    temps[:n_lead] = params.ambient
    bounds = np.concatenate([[0.0], np.cumsum(durations)])
    local = offsets[n_lead:]
    for k in range(CURVES_PER_PROFILE):
        lo, hi = bounds[k], bounds[k + 1]
        sel = (local >= lo) & ((local < hi) | (k == CURVES_PER_PROFILE - 1))
        temps[n_lead:][sel] = analytic_curve(params, settings, schedule, [point], k + 1,
                                             local[sel] - lo)[0]
    return temps


class TestPointTrace:
    @pytest.mark.parametrize("reheat_tau", [2.0, 0.7])
    @pytest.mark.parametrize("layer, d, sample_period, lead_in", [
        (1, 10.0, 0.1, 0.0), (4, 60.0, 0.5, 5.0), (9, 150.0, 0.25, 2.0),
        (12, 80.0, 0.37, 0.0), (30, 0.0, 1.0, 3.0)])
    def test_equals_masked_loop(self, settings, reheat_tau, layer, d, sample_period, lead_in):
        params = SynthParams(seed=3, reheat_tau=reheat_tau)
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(layer, d, settings.travel_speed)
        _, (temps,) = point_trace(params, settings, sched, [pt], sample_period, lead_in)
        want = _reference_trace(params, settings, sched, pt, sample_period, lead_in)
        assert np.array_equal(temps, want)

    def test_a_layer_of_points_is_each_point_in_turn(self, settings, params):
        # one oracle pass over a layer's points gives every point's own row
        sched = build_schedule(params, settings)
        pts = [PointId.from_distance(9, d, settings.travel_speed)
               for d in (0.0, 33.3, 80.0, 160.0)]
        times, temps = point_trace(params, settings, sched, pts, 0.25, 5.0)
        curves = analytic_curve(params, settings, sched, pts, np.arange(1, 6)[:, np.newaxis],
                                np.linspace(0.0, 40.0, 9))
        for pt, row_times, row_temps, row_curves in zip(pts, times, temps, curves,
                                                       strict=True):
            (one_times,), (one_temps,) = point_trace(params, settings, sched, [pt],
                                                     0.25, 5.0)
            assert np.array_equal(row_times, one_times)
            assert np.array_equal(row_temps, one_temps)
            assert np.array_equal(row_curves, analytic_curve(
                params, settings, sched, (pt,), np.arange(1, 6)[:, np.newaxis],
                np.linspace(0.0, 40.0, 9))[0])

    def test_points_of_two_layers_refused(self, settings, params):
        sched = build_schedule(params, settings)
        pts = [PointId.from_distance(layer, 40.0, settings.travel_speed) for layer in (3, 4)]
        with pytest.raises(DomainError, match="one layer"):
            point_trace(params, settings, sched, pts)
        with pytest.raises(DomainError, match="one layer"):
            analytic_curve(params, settings, sched, [], 1, np.zeros(3))

    @pytest.mark.parametrize("sample_period, lead_in", [(1e-300, 0.0), (0.1, 1e300),
                                                         (1e-300, 1e300), (1e-7, 0.0)])
    def test_a_trace_too_large_to_hold_is_refused(self, settings, params,
                                                  sample_period, lead_in):
        # these ended in numpy's bare "Maximum allowed size exceeded", or
        # tried to allocate gigabytes
        sched = build_schedule(params, settings)
        pts = [PointId.from_distance(3, 40.0, settings.travel_speed)]
        with pytest.raises(DomainError, match=f"more than the {core.MAX_WALL_VALUES} allowed"):
            point_trace(params, settings, sched, pts, sample_period, lead_in)

    def test_a_bare_point_is_refused(self, settings, params):
        # the oracle takes a sequence of one layer's points, never one PointId
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(3, 40.0, settings.travel_speed)
        with pytest.raises(TypeError):
            point_trace(params, settings, sched, pt)
        with pytest.raises(TypeError):
            analytic_curve(params, settings, sched, pt, 1, np.zeros(3))

    @pytest.mark.parametrize("sample_period", [math.nan, math.inf, 0.0, -0.5])
    def test_rejects_a_period_that_is_not_positive_and_finite(self, settings, params,
                                                             sample_period):
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(3, 40.0, settings.travel_speed)
        with pytest.raises(DomainError, match="sample_period"):
            point_trace(params, settings, sched, [pt], sample_period=sample_period)

    def test_spans_five_cycles(self, settings, params):
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(3, 40.0, settings.travel_speed)
        (times,), (temps,) = point_trace(params, settings, sched, [pt], sample_period=0.5)
        total = sum(curve_duration(sched, settings, 3, k) for k in range(1, 6))
        assert times.shape == temps.shape
        np.testing.assert_allclose(np.diff(times), 0.5, rtol=0, atol=1e-9)
        assert times[-1] - times[0] >= total - 1e-9

    def test_lead_in_is_ambient(self, settings, params):
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(3, 40.0, settings.travel_speed)
        _, (temps,) = point_trace(params, settings, sched, [pt], sample_period=0.5,
                                  lead_in=3.0)
        assert np.all(temps[:6] == params.ambient)
        # deposition jump right after the lead-in
        assert temps[6] > 1000.0

    def test_first_boundary_hand_value(self, settings):
        # layer 1, d = 80 mm at 8 mm/s: deposition at 10 s
        params = SynthParams()
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(1, 80.0, settings.travel_speed)
        assert deposition_time(sched, settings, 1, 80.0) == pytest.approx(10.0)
        (times,), _ = point_trace(params, settings, sched, [pt], sample_period=0.1)
        assert times[0] == pytest.approx(10.0)

    def test_matches_analytic_curves_at_sample_times(self, settings):
        # each sample inside the k-th window between successive deposition
        # times equals curve k of the oracle at the sample's local time
        params = SynthParams()
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(6, 100.0, settings.travel_speed)
        (times,), (temps,) = point_trace(params, settings, sched, [pt], sample_period=0.1)
        assert times[0] == deposition_time(sched, settings, 6, 100.0)
        for k in range(1, 6):
            lo = deposition_time(sched, settings, pt.layer + k - 1, pt.axial_distance)
            hi = deposition_time(sched, settings, pt.layer + k, pt.axial_distance)
            inside = (times > lo + 1e-9) & (times < hi - 1e-9)
            assert inside.sum() >= (hi - lo) / 0.1 - 2
            (want,) = analytic_curve(params, settings, sched, [pt], k, times[inside] - lo)
            np.testing.assert_allclose(temps[inside], want, rtol=0, atol=1e-9)


class TestExperimentWall:
    def test_shapes_and_clamping(self, params):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12, deposition_rate=52.8)
        ds = generate_experiment_wall(s, params, points_per_layer=3, n=60)
        assert ds.layers() == list(range(1, 8))
        for prof in ds.profiles:
            assert prof.n == 60
            assert prof.temps.max() <= 1000.0
            assert prof.temps.min() >= 150.0
        # first curve's deposition peak is clipped to the pyrometer band
        assert ds.profiles_on(3)[0].temps[0, 0] == pytest.approx(1000.0)

    def test_durations_close_to_duration_law(self, params):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12, deposition_rate=52.8)
        ds = generate_experiment_wall(s, params, points_per_layer=3, n=60)
        for prof in ds.profiles_on(2):
            for k, duration in enumerate(prof.durations, start=1):
                want = curve_duration(ds.schedule, s, 2, k)
                assert duration == pytest.approx(want, abs=3.0)

    @pytest.mark.parametrize("sample_period", [0.05, 0.1, 0.2, 0.25])
    def test_generates_at_fine_sampling(self, sample_period):
        # a rise per sample found too few segments at these periods, and a
        # rise at a trace's last sample left a one-sample segment at 0.25 s
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 10, deposition_rate=52.8)
        ds = generate_experiment_wall(s, SynthParams(seed=3), points_per_layer=2, n=20,
                                      sample_period=sample_period)
        assert ds.layers() == list(range(1, 6)) and len(ds.profiles) == 10

    def test_builds_no_curve(self, params, monkeypatch):
        # a point's five curves go from the trace to its (5, N) block in one
        # resampling call, never through Profile.curves
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12, deposition_rate=52.8)
        reads = []
        curves = core.Profile.curves.fget
        monkeypatch.setattr(core.Profile, "curves",
                            property(lambda prof: reads.append(prof) or curves(prof)))
        ds = generate_experiment_wall(s, params, points_per_layer=3, n=40)
        assert len(ds.profiles) == 21 and reads == []
        first = ds.profiles[0]
        assert len(first.curves) == 5 and reads == [first]  # the counter counts

    @pytest.mark.parametrize("jitter_mm", [1e308, 161.0, math.inf, math.nan, -1.0])
    def test_rejects_a_jitter_outside_the_layer(self, params, jitter_mm):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12, deposition_rate=52.8)
        with pytest.raises(DomainError, match="jitter_mm"):
            generate_experiment_wall(s, params, points_per_layer=3, n=8, jitter_mm=jitter_mm)

    def test_jitter_of_a_whole_layer_accepted(self, params):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12, deposition_rate=52.8)
        ds = generate_experiment_wall(s, params, points_per_layer=3, n=8, jitter_mm=160.0)
        assert ds.layers() == list(range(1, 8))

    def test_deterministic(self, params):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12, deposition_rate=52.8)
        a = generate_experiment_wall(s, params, points_per_layer=2, n=40)
        b = generate_experiment_wall(s, params, points_per_layer=2, n=40)
        for pa, pb in zip(a.profiles, b.profiles, strict=True):
            assert pa.point == pb.point
            np.testing.assert_array_equal(pa.temps, pb.temps)


def _settings(num_layers):
    return ProcessSettings.build(8.0, 3.0, 160.0, 1.5, num_layers,
                                 layer_print_time=20.5, deposition_rate=52.8)


class TestPinnedBytes:
    """sha256 of saved walls, pinned so a faster generator must reproduce
    every byte, noise and pyrometer splits included."""

    @pytest.mark.parametrize("build, digest", [
        (lambda: generate_wall(_settings(40), SynthParams(seed=7), 7, n=100),
         "0a6c702e7ad6baee6358e0b0d33ae33c3649de5599fd2777c4fc12ecf0b9ac8b"),
        (lambda: generate_wall(_settings(40), SynthParams(seed=7, noise_sd=1.0), 7, n=100),
         "e8d1fad260f83527535cda49a4ae0e3b72a28fe31614f2ac22213ec97f40f526"),
        (lambda: generate_experiment_wall(_settings(12), SynthParams(seed=1), 3, n=40,
                                          sample_period=0.1),
         "4d11ed4967c8c7f4d0eb6092d4432938ee60603c2ab6159fc390d6a92479b5fb"),
        (lambda: generate_experiment_wall(_settings(12), SynthParams(seed=1), 3, n=40,
                                          sample_period=0.25),
         "e95a87e4438a444a2ada064016da0a791f33a168609e60ead721b94055b73442"),
        (lambda: generate_experiment_wall(_settings(12), SynthParams(seed=1), 3, n=40,
                                          sample_period=0.5),
         "1e0c84c35ef046c080b38175057af4fa6cb1b86e93391f4ce7e6010f92ee25ad"),
        (lambda: generate_experiment_wall(_settings(12), SynthParams(seed=1), 3, n=40,
                                          sample_period=1.0),
         "b22e7465d98d0553b9851a3bf4167379261e16913153a1137acf4d444ec1c45c"),
        (lambda: generate_experiment_wall(_settings(40), SynthParams(seed=7), 7, n=100),
         "6cb00e71d05887dd83d80da480963ad1b18997b5d49adc0cc8696f9ba94222ff"),
    ], ids=["simulation-noise0", "simulation-noise1", "experiment-0.1s", "experiment-0.25s",
            "experiment-0.5s", "experiment-1.0s", "experiment-canonical"])
    def test_saved_wall_digest(self, tmp_path, build, digest):
        path = tmp_path / "wall.tsd"
        save_dataset(str(path), build())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
