"""Raw trace to fixed-shape curve preprocessing.

Experiment-style traces are split at sharp temperature rises.  Segments are
resampled to a fixed number of evenly spaced values.  Curves are
overlap-truncated as rows of one array (:func:`overlap_truncate_rows`), both
to build the curve pairs of successive layers and to align truth curves with
a prediction's durations before scoring.  Interpolation is linear throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Curve, DomainError, ShapeError
from .synthgen import RawTrace

MIN_RISE_SEPARATION_S = 5.0  # see split_experiment


@dataclass(frozen=True, eq=False)
class Segment:
    """A raw curve segment on its local time grid (first sample at 0 s)."""

    times: np.ndarray
    temps: np.ndarray

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        temps = np.ascontiguousarray(self.temps, dtype=np.float64)
        if times.shape != temps.shape or times.ndim != 1 or times.size < 1:
            raise ShapeError("segment times and temps must be equal-length 1-D vectors")
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise DomainError("segment times must be strictly increasing")
        times.flags.writeable = False
        temps.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "temps", temps)

    def __len__(self) -> int:
        return self.times.size

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


def split_experiment(trace: RawTrace, rise_threshold: float = 50.0) -> list[Segment]:
    """Split a trace immediately before each sharp rise.

    A maximal run of consecutive forward differences above ``rise_threshold``
    counts as one rise event, and rises closer than
    :data:`MIN_RISE_SEPARATION_S` to the previous one are treated as the same
    deposition event (noise can briefly dip a rise below the threshold; true
    rises are at least one print cycle apart).  A trace with no rise comes
    back as a single segment."""
    if rise_threshold <= 0.0:
        raise DomainError(f"rise_threshold must be positive, got {rise_threshold!r}")
    steep = np.diff(trace.temps) > rise_threshold
    starts = np.flatnonzero(steep & ~np.concatenate([[False], steep[:-1]]))
    kept = []
    for i in starts:
        if not kept or (i + 1 - kept[-1]) * trace.sample_period >= MIN_RISE_SEPARATION_S:
            kept.append(int(i) + 1)
    cuts = [0] + kept + [trace.times.size]
    cuts = sorted(set(c for c in cuts if 0 <= c <= trace.times.size))
    if cuts[0] != 0:
        cuts = [0] + cuts

    segments = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1:
            continue
        times = trace.times[lo:hi] - trace.times[lo]
        segments.append(Segment(times, trace.temps[lo:hi]))
    return segments


def resample(segment: Segment, n: int, curve_index: int = 1) -> Curve:
    """Evenly resample a segment to ``n`` temperatures over [0, duration] with
    linear interpolation; the segment endpoints are preserved exactly."""
    if len(segment) < 2:
        raise DomainError(f"segment needs >= 2 samples to resample, got {len(segment)}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if segment.duration <= 0.0:
        raise DomainError("segment duration is degenerate")
    grid = np.linspace(segment.times[0], segment.times[-1], n)
    temps = np.interp(grid, segment.times, segment.temps)
    return Curve(temps, segment.duration, curve_index)


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
