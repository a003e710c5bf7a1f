import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from thermoseer.core import Curve, DomainError, PointId, ShapeError
from thermoseer.preprocess import overlap_truncate_rows, resample, split_experiment
from thermoseer.synthgen import (
    SynthParams,
    build_schedule,
    emulate_pyrometer,
    point_trace,
)


def make_trace(temps, dt=1.0):
    """``(times, temps)`` of a trace read every ``dt`` seconds."""
    temps = np.asarray(temps, dtype=float)
    return np.arange(temps.size) * dt, temps


def whole(trace):
    """The cut indices of a trace kept as one segment."""
    return np.array([0, trace[0].size])


class TestSplitExperiment:
    def test_monotone_cooling_single_segment(self):
        _, temps = make_trace(np.linspace(900.0, 200.0, 50))
        cuts = split_experiment(temps, 1.0, 100.0)
        np.testing.assert_array_equal(cuts, [0, 50])
        assert cuts.dtype.kind == "i"

    def test_two_step_ups_three_segments(self):
        temps = np.concatenate([np.linspace(500, 400, 10),
                                [720.0] + list(np.linspace(700, 500, 9)),
                                [810.0] + list(np.linspace(800, 600, 9))])
        cuts = split_experiment(temps, 1.0, 100.0)
        assert cuts.size - 1 == 3
        assert list(np.diff(cuts)) == [10, 10, 10]

    def test_threshold_above_all_diffs(self):
        temps = np.concatenate([np.linspace(500, 400, 10), [450.0, 430.0]])
        assert split_experiment(temps, 1.0, 1000.0).size - 1 == 1

    def test_consecutive_steep_samples_are_one_rise(self):
        # a ramp of three successive +200 steps is one rise event
        temps = np.array([300.0, 290, 280, 480, 680, 880, 870, 860])
        cuts = split_experiment(temps, 1.0, 100.0)
        np.testing.assert_array_equal(cuts, [0, 3, 8])

    def test_segments_rezeroed(self):
        # each segment is resampled on its own clock: durations count from
        # the segment's first sample, which is the block row's first value
        temps = np.array([300.0, 290, 600, 590, 580])
        cuts = split_experiment(temps, 1.0, 100.0)
        block, durations = resample(*make_trace(temps), cuts, 3)
        np.testing.assert_array_equal(durations, [1.0, 2.0])
        np.testing.assert_array_equal(block[:, 0], temps[cuts[:-1]])

    def test_noise_notched_rise_is_one_event(self):
        # a rise whose middle difference dips below the threshold still cuts
        # only once: the second run starts within the refractory separation
        temps = np.array([300.0, 295, 290, 420, 510, 650, 780, 775, 770, 765])
        cuts = split_experiment(temps, 1.0, 100.0)
        np.testing.assert_array_equal(cuts, [0, 3, 10])

    def test_counts_deposition_events_on_pyrometer_trace(self, settings):
        # one rise per visible deposition event: the first deposition plus the
        # four re-heats (at the emulated pyrometer's 2 Hz rate)
        params = SynthParams(seed=1)
        sched = build_schedule(params, settings)
        pt = PointId.from_distance(4, 60.0, settings.travel_speed)
        _, temps = point_trace(params, settings, sched, pt, sample_period=0.5, lead_in=5.0)
        seen = emulate_pyrometer(temps, noise_sd=2.0, seed=5)
        cuts = split_experiment(seen, 0.5, 50.0)
        # six visible deposition events: the point's own deposition plus the
        # five re-heat arcs of the layers above it
        assert cuts.size - 2 == 6

    def test_rejects_nonpositive_threshold(self):
        # a threshold no difference can exceed finds no rise either
        for threshold in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="rise_threshold"):
                split_experiment(np.array([1.0, 2.0]), 1.0, threshold)

    @pytest.mark.parametrize("sample_period", [0.0, -0.5, float("nan")])
    def test_rejects_nonpositive_sample_period(self, sample_period):
        with pytest.raises(DomainError):
            split_experiment(np.array([1.0, 200.0, 190.0]), sample_period, 50.0)


class TestResample:
    def test_constant(self):
        trace = make_trace(np.full(5, 321.0))
        block, durations = resample(*trace, whole(trace), 7)
        np.testing.assert_array_equal(block, np.full((1, 7), 321.0))
        assert durations[0] == 4.0

    def test_linear_ramp_hand_values(self):
        trace = make_trace([100.0, 200.0], dt=4.0)
        block, _ = resample(*trace, whole(trace), 5)
        np.testing.assert_allclose(block[0], [100.0, 125.0, 150.0, 175.0, 200.0])

    def test_identity_on_even_input(self):
        rng = np.random.default_rng(0)
        temps = rng.uniform(200, 900, 50)
        trace = make_trace(temps, dt=10.0 / 49)
        block, _ = resample(*trace, whole(trace), 50)
        np.testing.assert_allclose(block[0], temps, atol=1e-12)

    def test_endpoints_exact(self):
        trace = make_trace([700.0, 500.0, 450.0])
        block, _ = resample(*trace, whole(trace), 9)
        assert block[0, 0] == 700.0 and block[0, -1] == 450.0

    def test_errors(self):
        with pytest.raises(DomainError):  # a one-sample segment
            resample(*make_trace([1.0, 2.0, 3.0]), np.array([0, 1, 3]), 5)
        with pytest.raises(DomainError):
            resample(*make_trace([1.0, 2.0]), np.array([0, 2]), 1)
        with pytest.raises(ShapeError):  # times and temps of different lengths
            resample(np.arange(4.0), np.array([1.0, 2.0, 3.0]), np.array([0, 3]), 5)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(data=st.data(), dt=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
                      n=st.integers(2, 40))
    def test_rows_equal_per_segment_interp(self, data, dt, n):
        # a trace of cooling runs, each begun by a sharp rise, split and
        # resampled in one call, matches one np.interp per segment bit for bit
        runs = data.draw(st.lists(st.integers(2, 60), min_size=1, max_size=7), label="runs")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        temps = [np.array([300.0, 299.0])]
        for r in runs:
            start = temps[-1][-1] + rng.uniform(60.0, 400.0)
            temps.append(start - np.cumsum(rng.uniform(0.0, 5.0, r)))
        temps = np.concatenate(temps)
        times, temps = make_trace(temps, dt=dt)
        cuts = split_experiment(temps, dt, 50.0)
        block, durations = resample(times, temps, cuts, n)
        assert block.shape == (cuts.size - 1, n) and durations.shape == (cuts.size - 1,)
        for row, duration, lo, hi in zip(block, durations, cuts[:-1], cuts[1:]):
            local = times[lo:hi] - times[lo]
            want = np.interp(np.linspace(local[0], local[-1], n), local, temps[lo:hi])
            assert np.array_equal(row, want)
            assert duration == local[-1] - local[0]


class TestOverlapTruncate:
    def test_equal_durations_is_plain_resample(self):
        cur = Curve(np.linspace(900, 300, 30), 8.0)
        a = overlap_truncate_rows(cur.temps[np.newaxis], np.array([8.0]), np.array([8.0]), 10)
        trace = make_trace(cur.temps, dt=8.0 / 29)
        b, _ = resample(*trace, whole(trace), 10)
        np.testing.assert_allclose(a[0], b[0], atol=1e-12)

    def test_half_ramp(self):
        cur = Curve(np.array([0.0, 100.0]), 10.0)
        c = overlap_truncate_rows(cur.temps[np.newaxis], np.array([10.0]), np.array([5.0]), 6)
        np.testing.assert_allclose(c[0], [0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        # the row samples the first 5 s of the curve, endpoint included
        np.testing.assert_array_equal(c[0], np.interp(np.linspace(0.0, 5.0, 6),
                                                      np.linspace(0.0, 10.0, 2), cur.temps))

    def test_n_preserved(self):
        cur = Curve(np.linspace(1000, 250, 100), 20.0)
        fracs = np.array([0.2, 0.5, 0.9])
        rows = overlap_truncate_rows(np.tile(cur.temps, (3, 1)), np.full(3, 20.0),
                                     20 * fracs, 33)
        assert rows.shape == (3, 33)

    def test_accepts_curve(self):
        cur = Curve(np.linspace(0.0, 100.0, 11), 10.0)
        out = overlap_truncate_rows(cur.temps[np.newaxis], np.array([cur.duration]),
                                    np.array([5.0]), cur.temps.size)
        assert out.shape == (1, 11)
        np.testing.assert_allclose(out[0], np.linspace(0.0, 50.0, 11))

    def test_longer_than_upper_rejected(self):
        cur = Curve(np.linspace(0.0, 100.0, 11), 10.0)
        with pytest.raises(DomainError):
            overlap_truncate_rows(cur.temps[np.newaxis], np.array([10.0]), np.array([11.0]), 11)

