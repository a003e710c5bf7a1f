"""Raw trace to fixed-shape curve preprocessing.

A raw trace is two equal-length arrays, its sample times and temperatures,
read every ``sample_period`` seconds.  Experiment-style traces are split at
sharp temperature rises into cut indices, and the segments between cuts are
resampled to one block of rows of evenly spaced values.  Curves are
overlap-truncated as rows of one array (:func:`overlap_truncate_rows`),
both to build the curve pairs of successive layers and to align truth
curves with a prediction's durations before scoring.  Interpolation is
linear throughout.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, ShapeError, real_number, whole_number

MIN_RISE_SEPARATION_S = 5.0  # see split_experiment
_RISE_WINDOW_S = 0.5  # split_experiment's rise_threshold is a rise over this span


def split_experiment(temps: np.ndarray, sample_period: float,
                     rise_threshold: float = 50.0) -> np.ndarray:
    """Cut indices ``[0, rise_1, ..., temps.size]`` that split a trace's
    temperatures, read every ``sample_period`` seconds, at each sharp rise:
    segment i is samples ``cuts[i]`` to ``cuts[i + 1]`` (exclusive).

    A rise is a window of ``w = max(1, round(0.5 / sample_period))`` samples
    over which the temperature climbs by more than ``rise_threshold``, so
    the threshold means degC over about half a second at any sampling rate
    (at 0.5 s and above, w = 1: one sample to the next).  A maximal run of
    such windows is one rise event, cut at the end of its first window.
    Rises closer than :data:`MIN_RISE_SEPARATION_S` to the previous one are
    treated as the same deposition event (noise can briefly dip a rise below
    the threshold; true rises are at least one print cycle apart), and a
    rise that would leave fewer than two samples after its cut is ignored.
    A trace with no rise comes back as the one segment ``[0, temps.size]``."""
    rise_threshold = real_number("rise_threshold", rise_threshold, "> 0")
    sample_period = real_number("sample_period", sample_period, "> 0")
    # a window longer than the trace finds no rise (and a subnormal period
    # would make the ratio overflow)
    w = max(1, round(min(_RISE_WINDOW_S / sample_period, len(temps))))
    steep = temps[w:] - temps[:-w] > rise_threshold
    starts = np.flatnonzero(steep & ~np.concatenate([[False], steep[:-1]]))
    kept = []
    for cut in (starts + w).tolist():
        if cut > len(temps) - 2:
            break
        if not kept or (cut - kept[-1]) * sample_period >= MIN_RISE_SEPARATION_S:
            kept.append(cut)
    return np.array([0] + kept + [len(temps)])


def resample(times: np.ndarray, temps: np.ndarray, cuts: np.ndarray,
             n: int) -> tuple[np.ndarray, np.ndarray]:
    """Evenly resample each segment ``[cuts[i], cuts[i + 1])`` of a trace to
    ``n`` temperatures over its own [0, duration] with linear interpolation;
    returns the (len(cuts) - 1, n) block and the segment durations.  Segment
    endpoints are preserved exactly.  ``times`` and ``temps`` of different
    shapes raise ShapeError."""
    if np.shape(times) != np.shape(temps):
        raise ShapeError(f"times {np.shape(times)} and temps {np.shape(temps)} "
                         "must have one shape")
    cuts = np.asarray(cuts)
    lengths = np.diff(cuts)
    if np.any(lengths < 2):
        raise DomainError(f"segment needs >= 2 samples to resample, got {lengths.min()}")
    n = whole_number("n", n, 2)
    durations = times[cuts[1:] - 1] - times[cuts[:-1]]
    # the transposed view axis=-1 would return, without its bookkeeping
    grids = np.linspace(0.0, durations, n).T
    block = np.empty((lengths.size, n))
    for row, grid, lo, hi in zip(block, grids, cuts[:-1].tolist(), cuts[1:].tolist()):
        row[:] = np.interp(grid, times[lo:hi] - times[lo], temps[lo:hi])
    return block, durations


def overlap_truncate_rows(upper: np.ndarray, upper_durations: np.ndarray,
                          lower_durations: np.ndarray, n: int) -> np.ndarray:
    """Restrict each row of ``upper``, an evenly sampled curve over
    [0, upper_durations[i]], to its first ``lower_durations[i]`` seconds and
    resample it to ``n`` values; returns (rows, n).  This is the supervised
    partial-curve target of curve pairs, and the truth that a prediction of
    those durations is scored against."""
    if not np.all(lower_durations > 0.0):
        raise DomainError(f"lower durations must be positive, got {lower_durations.min()!r}")
    if np.any(lower_durations > upper_durations + 1e-9):
        raise DomainError("a lower duration exceeds its upper curve's; dwell times "
                          "must be nondecreasing")
    grids = np.linspace(0.0, np.minimum(lower_durations, upper_durations), n, axis=-1)
    times = np.linspace(0.0, upper_durations, upper.shape[1], axis=-1)
    out = np.empty((upper.shape[0], n))
    for row, grid, time, temps in zip(out, grids, times, upper):
        row[:] = np.interp(grid, time, temps)
    return out
