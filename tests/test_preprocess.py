import numpy as np
import pytest

from thermoseer.core import Curve, DomainError, PointId
from thermoseer.preprocess import Segment, overlap_truncate_rows, resample, split_experiment
from thermoseer.synthgen import (
    RawTrace,
    SynthParams,
    build_schedule,
    emulate_pyrometer,
    point_trace,
)


def make_trace(temps, dt=1.0, layer=1, d=10.0):
    temps = np.asarray(temps, dtype=float)
    pt = PointId.from_distance(layer, d, 8.0)
    return RawTrace(np.arange(temps.size) * dt, temps, pt, dt)


class TestSplitExperiment:
    def test_monotone_cooling_single_segment(self):
        trace = make_trace(np.linspace(900.0, 200.0, 50))
        assert len(split_experiment(trace, 100.0)) == 1

    def test_two_step_ups_three_segments(self):
        temps = np.concatenate([np.linspace(500, 400, 10),
                                [720.0] + list(np.linspace(700, 500, 9)),
                                [810.0] + list(np.linspace(800, 600, 9))])
        segs = split_experiment(make_trace(temps), 100.0)
        assert len(segs) == 3
        assert [len(s) for s in segs] == [10, 10, 10]

    def test_threshold_above_all_diffs(self):
        temps = np.concatenate([np.linspace(500, 400, 10), [450.0, 430.0]])
        assert len(split_experiment(make_trace(temps), 1000.0)) == 1

    def test_consecutive_steep_samples_are_one_rise(self):
        # a ramp of three successive +200 steps is one rise event
        temps = np.array([300.0, 290, 280, 480, 680, 880, 870, 860])
        segs = split_experiment(make_trace(temps), 100.0)
        assert len(segs) == 2
        assert len(segs[0]) == 3

    def test_segments_rezeroed(self):
        temps = np.array([300.0, 290, 600, 590, 580])
        segs = split_experiment(make_trace(temps), 100.0)
        for seg in segs:
            assert seg.times[0] == 0.0

    def test_noise_notched_rise_is_one_event(self):
        # a rise whose middle difference dips below the threshold still cuts
        # only once: the second run starts within the refractory separation
        temps = np.array([300.0, 295, 290, 420, 510, 650, 780, 775, 770, 765])
        segs = split_experiment(make_trace(temps), 100.0)
        assert len(segs) == 2
        assert len(segs[0]) == 3

    def test_counts_deposition_events_on_pyrometer_trace(self, settings):
        # one rise per visible deposition event: the first deposition plus the
        # four re-heats (at the emulated pyrometer's 2 Hz rate)
        params = SynthParams(seed=1)
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(4, 60.0, settings.travel_speed)
        trace = point_trace(params, settings, sched, pt, sample_period=0.5, lead_in=5.0)
        seen = emulate_pyrometer(trace, noise_sd=2.0, seed=5)
        segs = split_experiment(seen, 50.0)
        # six visible deposition events: the point's own deposition plus the
        # five re-heat arcs of the layers above it
        assert len(segs) - 1 == 6


class TestResample:
    def test_constant(self):
        seg = Segment(np.arange(5.0), np.full(5, 321.0))
        c = resample(seg, 7)
        np.testing.assert_array_equal(c.temps, np.full(7, 321.0))
        assert c.duration == 4.0

    def test_linear_ramp_hand_values(self):
        seg = Segment(np.array([0.0, 4.0]), np.array([100.0, 200.0]))
        c = resample(seg, 5)
        np.testing.assert_allclose(c.temps, [100.0, 125.0, 150.0, 175.0, 200.0])

    def test_identity_on_even_input(self):
        rng = np.random.default_rng(0)
        temps = rng.uniform(200, 900, 50)
        seg = Segment(np.linspace(0.0, 10.0, 50), temps)
        c = resample(seg, 50)
        np.testing.assert_allclose(c.temps, temps, atol=1e-12)

    def test_endpoints_exact(self):
        seg = Segment(np.array([0.0, 1.0, 3.0]), np.array([700.0, 500.0, 450.0]))
        c = resample(seg, 9)
        assert c.temps[0] == 700.0 and c.temps[-1] == 450.0

    def test_errors(self):
        with pytest.raises(DomainError):
            resample(Segment(np.array([0.0]), np.array([1.0])), 5)
        with pytest.raises(DomainError):
            resample(Segment(np.array([0.0, 1.0]), np.array([1.0, 2.0])), 1)


class TestOverlapTruncate:
    def test_equal_durations_is_plain_resample(self):
        cur = Curve(np.linspace(900, 300, 30), 8.0, 1)
        a = overlap_truncate_rows(cur.temps[np.newaxis], np.array([8.0]), np.array([8.0]), 10)
        b = resample(Segment(cur.times(), cur.temps), 10)
        np.testing.assert_allclose(a[0], b.temps, atol=1e-12)

    def test_half_ramp(self):
        cur = Curve(np.array([0.0, 100.0]), 10.0, 1)
        c = overlap_truncate_rows(cur.temps[np.newaxis], np.array([10.0]), np.array([5.0]), 6)
        np.testing.assert_allclose(c[0], [0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        # the row samples the first 5 s of the curve, endpoint included
        np.testing.assert_array_equal(c[0], np.interp(np.linspace(0.0, 5.0, 6),
                                                      cur.times(), cur.temps))

    def test_n_preserved(self):
        cur = Curve(np.linspace(1000, 250, 100), 20.0, 1)
        fracs = np.array([0.2, 0.5, 0.9])
        rows = overlap_truncate_rows(np.tile(cur.temps, (3, 1)), np.full(3, 20.0),
                                     20 * fracs, 33)
        assert rows.shape == (3, 33)

    def test_accepts_curve(self):
        cur = Curve(np.linspace(0.0, 100.0, 11), 10.0, 2)
        out = overlap_truncate_rows(cur.temps[np.newaxis], np.array([cur.duration]),
                                    np.array([5.0]), cur.n)
        assert out.shape == (1, 11)
        np.testing.assert_allclose(out[0], np.linspace(0.0, 50.0, 11))

    def test_longer_than_upper_rejected(self):
        cur = Curve(np.linspace(0.0, 100.0, 11), 10.0, 1)
        with pytest.raises(DomainError):
            overlap_truncate_rows(cur.temps[np.newaxis], np.array([10.0]), np.array([11.0]), 11)

