import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from thermoseer.core import (
    Curve,
    DomainError,
    DwellSchedule,
    MetricError,
    PointId,
    ProcessSettings,
    Profile,
    ShapeError,
    WallDataset,
    curve_duration,
    deposition_time,
    mapping_features,
    reop,
    reop_rows,
    wire_deposition_rate,
)

from conftest import constant_profile, random_positive_profile


def brute_force_deposition_time(schedule, settings, layer, d):
    # Independent oracle: walk the build layer by layer, accumulating print
    # and dwell time, then add the in-layer travel time.
    t = 0.0
    for m in range(1, layer):
        t += settings.layer_print_time
        t += schedule.for_layer(m)
    return t + d / settings.travel_speed


class TestDepositionTime:
    def test_first_layer_origin(self, settings, schedule):
        assert deposition_time(schedule, settings, 1, 0.0) == 0.0

    def test_first_layer_travel(self, settings, schedule):
        # 20 mm at 8 mm/s
        assert deposition_time(schedule, settings, 1, 20.0) == pytest.approx(2.5, abs=1e-12)

    def test_second_layer_hand_value(self, settings):
        sched = DwellSchedule((30.0,) + (0.0,) * 39)
        # 20.5 + 30 + 40/8 = 55.5
        assert deposition_time(sched, settings, 2, 40.0) == pytest.approx(55.5, abs=1e-12)

    def test_matches_brute_force(self, settings, schedule):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            layer = int(rng.integers(1, settings.num_layers + 1))
            d = float(rng.uniform(0.0, settings.layer_length))
            got = deposition_time(schedule, settings, layer, d)
            want = brute_force_deposition_time(schedule, settings, layer, d)
            assert abs(got - want) <= 1e-9

    def test_layer_difference_identity(self, settings, schedule):
        for layer in range(1, settings.num_layers):
            for d in (0.0, 37.0, 160.0):
                delta = deposition_time(schedule, settings, layer + 1, d) \
                    - deposition_time(schedule, settings, layer, d)
                want = settings.layer_print_time + schedule.for_layer(layer)
                assert delta == pytest.approx(want, abs=1e-9)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(num_layers=st.integers(2, 60), seed=st.integers(0, 2 ** 32 - 1),
                      data=st.data())
    def test_layer_difference_identity_property(self, num_layers, seed, data):
        # over random settings, schedules, layers and distances: moving up one
        # layer at a fixed distance adds one print time plus that layer's dwell
        rng = np.random.default_rng(seed)
        travel_speed, layer_length = rng.uniform(1.0, 30.0), rng.uniform(10.0, 500.0)
        settings = ProcessSettings.build(
            travel_speed, 3.0, layer_length, rng.uniform(0.5, 3.0), num_layers,
            layer_print_time=layer_length / travel_speed + rng.uniform(0.0, 10.0))
        schedule = DwellSchedule(tuple(rng.uniform(0.0, 500.0, size=num_layers)))
        layer = data.draw(st.integers(1, num_layers - 1))
        d = data.draw(st.floats(0.0, layer_length))
        delta = deposition_time(schedule, settings, layer + 1, d) \
            - deposition_time(schedule, settings, layer, d)
        want = settings.layer_print_time + schedule.for_layer(layer)
        assert delta == pytest.approx(want, abs=1e-9)

    def test_strictly_increasing(self, settings, schedule):
        assert deposition_time(schedule, settings, 3, 10.0) < deposition_time(schedule, settings, 3, 11.0)
        assert deposition_time(schedule, settings, 3, 10.0) < deposition_time(schedule, settings, 4, 10.0)

    def test_domain_errors_name_field(self, settings, schedule):
        with pytest.raises(DomainError, match="layer"):
            deposition_time(schedule, settings, 0, 10.0)
        with pytest.raises(DomainError, match="layer"):
            deposition_time(schedule, settings, 41, 10.0)
        with pytest.raises(DomainError, match="axial_distance"):
            deposition_time(schedule, settings, 1, -1.0)
        with pytest.raises(DomainError, match="axial_distance"):
            deposition_time(schedule, settings, 1, 161.0)


class TestCurveDuration:
    def test_hand_value(self, settings):
        sched = DwellSchedule((30.0,) + (0.0,) * 39)
        assert curve_duration(sched, settings, 1, 1) == pytest.approx(50.5, abs=1e-12)

    def test_zero_dwell(self, settings):
        sched = DwellSchedule((0.0,) * 40)
        for layer, k in ((1, 1), (7, 3), (30, 5)):
            assert curve_duration(sched, settings, layer, k) == settings.layer_print_time

    def test_same_dwell_index(self, settings, schedule):
        # i=3,k=2 and i=4,k=1 both read dwell[4]
        assert curve_duration(schedule, settings, 3, 2) == curve_duration(schedule, settings, 4, 1)

    def test_constant_across_points(self, settings, schedule):
        # duration law ignores axial distance by construction: no argument.
        assert curve_duration(schedule, settings, 5, 2) == settings.layer_print_time + schedule.for_layer(6)

    def test_overflow(self, settings, schedule):
        with pytest.raises(DomainError):
            curve_duration(schedule, settings, 40, 2)
        curve_duration(schedule, settings, 40, 1)  # still fine


class TestMappingFeatures:
    def test_simulation_one_row(self, settings, schedule):
        f = mapping_features(settings, schedule, 10)
        assert f.shape == (4,)
        layer_print_time, dwell_of_source_layer, deposition_rate, relative_height = f
        assert layer_print_time == 20.5
        assert dwell_of_source_layer == schedule.for_layer(10)
        assert deposition_rate == 52.8
        assert relative_height == pytest.approx(15.0)

    def test_first_layer_height(self, schedule):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 2.0, 40, layer_print_time=20.5,
                                  deposition_rate=70.4)
        f = mapping_features(s, schedule, 1)
        assert f[3] == pytest.approx(2.0)  # relative height

    def test_wire_deposition_rate_experiment_one(self):
        # WFR 3 m/min, 1.2 mm wire: published table value 56.52 mm^3/s
        assert wire_deposition_rate(3.0, 1.2) == pytest.approx(56.52, rel=1e-3)

    def test_out_of_range(self, settings, schedule):
        with pytest.raises(DomainError):
            mapping_features(settings, schedule, 0)
        with pytest.raises(DomainError):
            mapping_features(settings, schedule, 41)


class TestReop:
    def test_identical_is_zero(self):
        p = constant_profile(500.0)
        assert reop(p, p) == 0.0

    def test_scaled_value(self):
        rng = np.random.default_rng(3)
        truth = random_positive_profile(rng)
        pred = Profile(truth.point, truth.temps * 1.1, truth.durations)
        assert reop(pred, truth) == pytest.approx(0.1, abs=1e-12)

    def test_constant_offset(self):
        truth = constant_profile(200.0)
        pred = constant_profile(210.0)
        assert reop(pred, truth) == pytest.approx(0.05, abs=1e-12)

    def test_scaling_algebra(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            truth = random_positive_profile(rng)
            for alpha in (0.5, 1.0, 1.1, 2.0):
                pred = Profile(truth.point, truth.temps * alpha, truth.durations)
                assert reop(pred, truth) == pytest.approx(abs(alpha - 1.0), abs=1e-12)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(n=st.integers(2, 60), seed=st.integers(0, 2 ** 32 - 1),
                      alpha=st.floats(0.01, 10.0), c=st.floats(0.01, 100.0))
    def test_scaling_properties(self, n, seed, alpha, c):
        # REOP(alpha T, T) = |alpha - 1|, and REOP is invariant to scaling
        # both operands by c; the prediction stays 1-50% off the truth so the
        # difference p - t carries no cancellation error, and c * p stays
        # below MAX_TEMPERATURE_C, so every operand is a valid curve
        rng = np.random.default_rng(seed)
        t = rng.uniform(1.0, 66.0, size=(5, n))
        p = t * (1.0 + rng.choice([-1.0, 1.0], size=t.shape) * rng.uniform(0.01, 0.5, size=t.shape))

        def profile(temps):
            point = PointId.from_distance(3, 40.0, 8.0)
            return Profile(point, temps, (50.0,) * 5)

        assert abs(reop(profile(alpha * t), profile(t)) - abs(alpha - 1.0)) <= 1e-12
        base = reop(profile(p), profile(t))
        assert abs(reop(profile(c * p), profile(c * t)) - base) <= 1e-12 * base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        truth = random_positive_profile(rng)
        pred = random_positive_profile(rng)
        base = reop(pred, truth)
        perm = rng.permutation(truth.n)
        truth2 = Profile(truth.point, truth.temps[:, perm], truth.durations)
        pred2 = Profile(pred.point, pred.temps[:, perm], pred.durations)
        assert reop(pred2, truth2) == pytest.approx(base, rel=1e-12)

    def test_truth_must_be_positive(self):
        truth = constant_profile(0.0)
        pred = constant_profile(10.0)
        with pytest.raises(MetricError):
            reop(pred, truth)

    def test_mixed_n_rejected(self):
        with pytest.raises(ShapeError):
            reop(constant_profile(10.0, n=20), constant_profile(10.0, n=21))

    @pytest.mark.parametrize("shapes", [((5,), (5,)), ((2, 5), (3, 5)), ((1, 5), (2, 5))])
    def test_rows_need_two_arrays_of_one_2d_shape(self, shapes):
        # (1, 5) against (2, 5) would broadcast to two rows without the check
        with pytest.raises(ShapeError):
            reop_rows(np.full(shapes[0], 10.0), np.full(shapes[1], 20.0))


class TestTypes:
    def test_settings_reject_nonpositive(self):
        with pytest.raises(DomainError):
            ProcessSettings.build(0.0, 3.0, 160.0, 1.5, 40)

    def test_settings_reject_too_short_print_time(self):
        with pytest.raises(DomainError, match="travel time"):
            ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 40, layer_print_time=19.0)

    def test_build_derives_defaults(self):
        s = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 40)
        assert s.layer_print_time == pytest.approx(20.5)
        assert s.deposition_rate == pytest.approx(wire_deposition_rate(3.0, 1.2))

    def test_dwell_rejects_negative(self):
        with pytest.raises(DomainError):
            DwellSchedule((1.0, -0.5))

    def test_point_delay_consistency_enforced_by_dataset(self, settings, schedule):
        good = constant_profile(300.0, layer=2, distance=40.0, travel_speed=8.0)
        WallDataset(settings, schedule, [good])
        bad_point = PointId(layer=2, axial_distance=40.0, relative_delay=4.0)
        bad = Profile(bad_point, good.temps, good.durations)
        with pytest.raises(DomainError, match="relative_delay"):
            WallDataset(settings, schedule, [bad])

    def test_curve_rejects_bad_values(self):
        # a Curve is one row, a Profile five rows with one duration each;
        # both check their values the same way
        pt = PointId.from_distance(1, 10.0, 8.0)
        kinds = (lambda temps, d: Curve(temps, d),
                 lambda temps, d: Profile(pt, np.tile(temps, (5, 1)), (1.0,) * 4 + (d,)))
        for make in kinds:
            with pytest.raises(DomainError):
                make(np.array([1.0, np.nan]), 1.0)
            with pytest.raises(DomainError):
                make(np.array([1.0, -300.0]), 1.0)
            for value in (np.inf, -np.inf, -273.15, 1e4, 1e300):
                with pytest.raises(DomainError):
                    make(np.array([1.0, value]), 1.0)
            make(np.array([-273.14, 9999.99]), 1.0)  # inside the physical range
            for duration in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(DomainError):
                    make(np.array([1.0, 2.0]), duration)
            with pytest.raises(ShapeError):  # N < 2
                make(np.array([1.0]), 1.0)
        for temps in (np.full(2, 300.0), np.full((4, 2), 300.0), np.full((6, 2), 300.0),
                      np.full((5, 2, 1), 300.0), np.full((5, 1), 300.0), np.full((5, 0), 300.0)):
            with pytest.raises(ShapeError):
                Profile(pt, temps, (1.0,) * 5)
        for durations in ((1.0,) * 4, (1.0,) * 6):
            with pytest.raises(ShapeError):
                Profile(pt, np.full((5, 2), 300.0), durations)
        with pytest.raises(ShapeError):
            Curve(np.full((1, 2), 300.0), 1.0)

    def test_curve_is_immutable(self):
        c = Curve(np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError):
            c.temps[0] = 5.0
        p = Profile(PointId.from_distance(1, 10.0, 8.0), np.full((5, 2), 300.0), [1.0] * 5)
        with pytest.raises(ValueError):
            p.temps[0, 0] = 5.0
        assert p.durations == (1.0,) * 5 and p.n == 2
        assert [c.duration for c in p.curves] == [1.0] * 5

    def test_dataset_rejects_mixed_n(self, settings, schedule):
        a = constant_profile(300.0, n=20, layer=2, distance=20.0)
        b = constant_profile(300.0, n=21, layer=2, distance=40.0)
        with pytest.raises(ShapeError):
            WallDataset(settings, schedule, [a, b])

    def test_dataset_profiles_on_sorted(self, settings, schedule):
        a = constant_profile(300.0, layer=2, distance=60.0)
        b = constant_profile(300.0, layer=2, distance=20.0)
        ds = WallDataset(settings, schedule, [a, b])
        rows = ds.profiles_on(2)
        assert [p.point.axial_distance for p in rows] == [20.0, 60.0]

    @pytest.mark.parametrize("seed", range(3))
    def test_dataset_orders_profiles_by_layer_then_place(self, settings, schedule, seed):
        made = [constant_profile(300.0, layer=layer, distance=distance)
                for layer in (1, 2, 7) for distance in (0.0, 20.0, 20.0 + 1e-6, 140.0)]
        given = [made[i] for i in np.random.default_rng(seed).permutation(len(made))]
        ds = WallDataset(settings, schedule, iter(given))
        assert type(ds.profiles) is tuple
        assert [(p.point.layer, p.point.axial_distance) for p in ds.profiles] == \
            [(p.point.layer, p.point.axial_distance) for p in made]
        assert ds.layers() == [1, 2, 7] and ds.profiles_on(7) == list(ds.profiles[8:])

    @pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12])
    def test_dataset_refuses_a_point_listed_twice(self, settings, schedule, offset):
        # one layer, one place (PointId.place): the same point, whatever
        # order the two come in and whatever else the wall holds
        a = constant_profile(300.0, layer=4, distance=40.0)
        b = constant_profile(310.0, layer=4, distance=40.0 + offset)
        others = [constant_profile(300.0, layer=layer, distance=40.0) for layer in (3, 5)]
        for given in ([a, b], [b, *others, a]):
            with pytest.raises(DomainError, match="listed twice"):
                WallDataset(settings, schedule, given)
