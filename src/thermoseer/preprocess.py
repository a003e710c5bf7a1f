"""Raw trace to fixed-shape curve preprocessing.

Experiment-style traces are split at sharp temperature rises.  Segments are
resampled to a fixed number of evenly spaced values, and curves are
overlap-truncated to align curve pairs of successive layers.  Interpolation
is linear throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Curve, DomainError, ShapeError
from .synthgen import RawTrace


@dataclass(frozen=True, eq=False)
class Segment:
    """A raw curve segment on its local time grid (first sample at 0 s)."""

    times: np.ndarray
    temps: np.ndarray
    index: int = 1

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


def split_experiment(trace: RawTrace, rise_threshold: float = 50.0,
                     min_separation: float = 5.0) -> list[Segment]:
    """Split a trace immediately before each sharp rise.

    A maximal run of consecutive forward differences above ``rise_threshold``
    counts as one rise event, and rises closer than ``min_separation``
    seconds to the previous one are treated as the same deposition event
    (noise can briefly dip a rise below the threshold; true rises are at
    least one print cycle apart).  A trace with no rise comes back as a
    single segment."""
    if rise_threshold <= 0.0:
        raise DomainError(f"rise_threshold must be positive, got {rise_threshold!r}")
    steep = np.diff(trace.temps) > rise_threshold
    starts = np.flatnonzero(steep & ~np.concatenate([[False], steep[:-1]]))
    kept = []
    for i in starts:
        if not kept or (i + 1 - kept[-1]) * trace.sample_period >= min_separation:
            kept.append(int(i) + 1)
    cuts = [0] + kept + [trace.times.size]
    cuts = sorted(set(c for c in cuts if 0 <= c <= trace.times.size))
    if cuts[0] != 0:
        cuts = [0] + cuts

    segments = []
    index = 1
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1:
            continue
        times = trace.times[lo:hi] - trace.times[lo]
        segments.append(Segment(times, trace.temps[lo:hi], index=index))
        index += 1
    return segments


def resample(segment: Segment, n: int, curve_index: int | None = None) -> Curve:
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
    return Curve(temps, segment.duration,
                 segment.index if curve_index is None else curve_index)


def overlap_truncate(upper, lower_duration: float, n: int | None = None,
                     curve_index: int | None = None) -> Curve:
    """Restrict an upper-layer curve (raw segment or resampled Curve) to the
    first ``lower_duration`` seconds and resample it to ``n`` values.  This is
    the supervised partial-curve target for curve pairs."""
    if isinstance(upper, Curve):
        times, temps = upper.times(), upper.temps
        duration = upper.duration
        if n is None:
            n = upper.n
        if curve_index is None:
            curve_index = upper.curve_index
    elif isinstance(upper, Segment):
        times, temps = upper.times - upper.times[0], upper.temps
        duration = upper.duration
        if n is None:
            raise DomainError("n is required when truncating a raw segment")
        if curve_index is None:
            curve_index = upper.index
    else:
        raise ShapeError(f"expected Segment or Curve, got {type(upper).__name__}")

    if lower_duration <= 0.0:
        raise DomainError(f"lower_duration must be positive, got {lower_duration!r}")
    if lower_duration > duration + 1e-9:
        raise DomainError(
            f"lower_duration {lower_duration} s exceeds the upper curve's "
            f"{duration} s; dwell times must be nondecreasing"
        )
    grid = np.linspace(0.0, min(lower_duration, duration), n)
    return Curve(np.interp(grid, times, temps), lower_duration, curve_index)
