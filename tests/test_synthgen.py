import math

import numpy as np
import pytest

from thermoseer import core
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
        peak = deposition_peak(params, s, 5, s.layer_length / s.travel_speed)
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


class TestGenerateWall:
    def test_layers_and_point_placement(self, settings, wall):
        assert wall.layers() == list(range(1, 36))
        on_one = wall.profiles_on(1)
        assert [p.point.axial_distance for p in on_one] == pytest.approx(
            [20.0 * j for j in range(1, 8)])

    def test_curve_start_is_the_deposition_peak(self, settings, params, wall):
        prof = wall.profiles_on(12)[3]
        peak = deposition_peak(params, settings, 12, prof.point.relative_delay)
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
            temp = analytic_curve(params, settings, wall.schedule, pt, 1,
                                  np.array([local]))[0]
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
                    want = analytic_curve(params, s, ds.schedule, prof.point, k,
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

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            SynthParams(seed=-1, noise_sd=1.0)

    def test_rejects_overflowing_spacing(self, settings, params):
        for spacing in (20.0, 0.0, float("nan")):
            with pytest.raises(DomainError, match="do not fit"):
                generate_wall(settings, params, points_per_layer=9, spacing_mm=spacing)


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
        temps[n_lead:][sel] = analytic_curve(params, settings, schedule, point, k + 1,
                                             local[sel] - lo)
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
        _, temps = point_trace(params, settings, sched, pt, sample_period, lead_in)
        want = _reference_trace(params, settings, sched, pt, sample_period, lead_in)
        assert np.array_equal(temps, want)

    def test_spans_five_cycles(self, settings, params):
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(3, 40.0, settings.travel_speed)
        times, temps = point_trace(params, settings, sched, pt, sample_period=0.5)
        total = sum(curve_duration(sched, settings, 3, k) for k in range(1, 6))
        assert times.shape == temps.shape
        np.testing.assert_allclose(np.diff(times), 0.5, rtol=0, atol=1e-9)
        assert times[-1] - times[0] >= total - 1e-9

    def test_lead_in_is_ambient(self, settings, params):
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(3, 40.0, settings.travel_speed)
        _, temps = point_trace(params, settings, sched, pt, sample_period=0.5, lead_in=3.0)
        assert np.all(temps[:6] == params.ambient)
        # deposition jump right after the lead-in
        assert temps[6] > 1000.0

    def test_first_boundary_hand_value(self, settings):
        # layer 1, d = 80 mm at 8 mm/s: deposition at 10 s
        params = SynthParams()
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(1, 80.0, settings.travel_speed)
        assert deposition_time(sched, settings, 1, 80.0) == pytest.approx(10.0)
        times, _ = point_trace(params, settings, sched, pt, sample_period=0.1)
        assert times[0] == pytest.approx(10.0)

    def test_matches_analytic_curves_at_sample_times(self, settings):
        # each sample inside the k-th window between successive deposition
        # times equals curve k of the oracle at the sample's local time
        params = SynthParams()
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(6, 100.0, settings.travel_speed)
        times, temps = point_trace(params, settings, sched, pt, sample_period=0.1)
        assert times[0] == deposition_time(sched, settings, 6, 100.0)
        for k in range(1, 6):
            lo = deposition_time(sched, settings, pt.layer + k - 1, pt.axial_distance)
            hi = deposition_time(sched, settings, pt.layer + k, pt.axial_distance)
            inside = (times > lo + 1e-9) & (times < hi - 1e-9)
            assert inside.sum() >= (hi - lo) / 0.1 - 2
            want = analytic_curve(params, settings, sched, pt, k, times[inside] - lo)
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

    def test_builds_no_curve(self, params, monkeypatch):
        # a point's five curves go from the trace to its (5, N) block in one
        # resampling call, never through per-curve objects
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12, deposition_rate=52.8)
        built = []
        post_init = core.Curve.__post_init__

        def counting(curve):
            built.append(curve)
            post_init(curve)

        monkeypatch.setattr(core.Curve, "__post_init__", counting)
        ds = generate_experiment_wall(s, params, points_per_layer=3, n=40)
        assert len(ds.profiles) == 21 and built == []
        first = ds.profiles[0]
        assert len(first.curves) == 5 and len(built) == 5  # the counter counts

    def test_deterministic(self, params):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12, deposition_rate=52.8)
        a = generate_experiment_wall(s, params, points_per_layer=2, n=40)
        b = generate_experiment_wall(s, params, points_per_layer=2, n=40)
        for pa, pb in zip(a.profiles, b.profiles, strict=True):
            assert pa.point == pb.point
            np.testing.assert_array_equal(pa.temps, pb.temps)
