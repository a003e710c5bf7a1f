"""Domain types and shared arithmetic for thin-wall thermal prediction.

Everything downstream (generation, preprocessing, mapping, reconstruction,
pipeline) speaks in these types.  A point's temperature history is one
:class:`Profile`: its first five print+dwell curves as one (5, N) array plus
their five durations, so producers fill and consumers read that block
directly; :class:`Curve` is only the row value :attr:`Profile.curves` builds.
Temperatures are degrees Celsius stored as float64 end to end; layers are
indexed 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

CURVES_PER_PROFILE = 5
ABSOLUTE_ZERO_C = -273.15
# No printed metal surface reaches this (even tungsten boils near 5600 degC),
# so a reading at or above it is a corrupt value, not a temperature.
MAX_TEMPERATURE_C = 1e4


class ThermoseerError(Exception):
    """Base class for all package errors.  ``exit_code`` is the command-line
    exit status of the error: 3 (data) unless a subclass says otherwise."""

    exit_code = 3


class DomainError(ThermoseerError, ValueError):
    """An argument is outside its physical or index domain."""


class ShapeError(ThermoseerError, ValueError):
    """Array/curve shapes are inconsistent (for example mixed N)."""


class MetricError(ThermoseerError, ValueError):
    """A metric is undefined for the given operands."""


class HorizonError(ThermoseerError):
    """A query lies beyond the representable five-curve time horizon."""

    exit_code = 6


class NumericsError(ThermoseerError):
    """A numerical routine failed to converge or is ill-conditioned."""


class PairingError(ThermoseerError, ValueError):
    """Predicted and truth point sets cannot be matched one-to-one."""


class ProtocolError(ThermoseerError):
    """A benchmark or prediction protocol precondition is violated."""

    exit_code = 5


class ConfigError(ThermoseerError, ValueError):
    """A configuration file or flag set is invalid."""

    exit_code = 2


class CheckpointError(ThermoseerError, ValueError):
    """A checkpoint file is malformed or has an unsupported version."""

    exit_code = 4


def in_temperature_range(temps: np.ndarray) -> bool:
    """Whether every value lies strictly between ABSOLUTE_ZERO_C and
    MAX_TEMPERATURE_C; a NaN or an infinity does not."""
    return bool(np.all((temps > ABSOLUTE_ZERO_C) & (temps < MAX_TEMPERATURE_C)))


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")


def wire_deposition_rate(wire_feed_rate: float, wire_diameter: float) -> float:
    """Volumetric deposition rate in mm^3/s from wire feed rate (m/min) and
    wire diameter (mm)."""
    _require_positive("wire_feed_rate", wire_feed_rate)
    _require_positive("wire_diameter", wire_diameter)
    return math.pi * (wire_diameter / 2.0) ** 2 * wire_feed_rate * 1000.0 / 60.0


def default_layer_print_time(layer_length: float, travel_speed: float) -> float:
    """Layer print time with the 0.5 s acceleration/deceleration allowance."""
    return layer_length / travel_speed + 0.5


@dataclass(frozen=True)
class ProcessSettings:
    """Fixed process parameters of one printed thin wall.

    Units: travel_speed mm/s, wire_feed_rate m/min, wire_diameter mm,
    layer_length mm, layer_thickness mm, layer_print_time s,
    deposition_rate mm^3/s, interpass_target degC.
    """

    travel_speed: float
    wire_feed_rate: float
    wire_diameter: float
    layer_length: float
    layer_thickness: float
    layer_print_time: float
    deposition_rate: float
    interpass_target: float
    num_layers: int

    def __post_init__(self) -> None:
        for name in (
            "travel_speed",
            "wire_feed_rate",
            "wire_diameter",
            "layer_length",
            "layer_thickness",
            "layer_print_time",
            "deposition_rate",
            "interpass_target",
        ):
            _require_positive(name, getattr(self, name))
        if int(self.num_layers) != self.num_layers or self.num_layers < 1:
            raise DomainError(f"num_layers must be a positive integer, got {self.num_layers!r}")
        travel_time = self.layer_length / self.travel_speed
        if self.layer_print_time < travel_time - 1e-9:
            raise DomainError(
                "layer_print_time %.6g s is shorter than the travel time %.6g s"
                % (self.layer_print_time, travel_time)
            )

    @classmethod
    def build(
        cls,
        travel_speed: float,
        wire_feed_rate: float,
        layer_length: float,
        layer_thickness: float,
        num_layers: int,
        wire_diameter: float = 1.2,
        interpass_target: float = 200.0,
        layer_print_time: float | None = None,
        deposition_rate: float | None = None,
    ) -> "ProcessSettings":
        """Settings with the usual derived defaults: print time from travel
        speed plus the 0.5 s allowance, deposition rate from the wire."""
        _require_positive("travel_speed", travel_speed)
        if layer_print_time is None:
            layer_print_time = default_layer_print_time(layer_length, travel_speed)
        if deposition_rate is None:
            deposition_rate = wire_deposition_rate(wire_feed_rate, wire_diameter)
        return cls(
            travel_speed=travel_speed,
            wire_feed_rate=wire_feed_rate,
            wire_diameter=wire_diameter,
            layer_length=layer_length,
            layer_thickness=layer_thickness,
            layer_print_time=layer_print_time,
            deposition_rate=deposition_rate,
            interpass_target=interpass_target,
            num_layers=int(num_layers),
        )


@dataclass(frozen=True)
class DwellSchedule:
    """Per-layer dwell times in seconds, indexed 1..num_layers."""

    dwell: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dwell", tuple(float(d) for d in self.dwell))
        for i, d in enumerate(self.dwell, start=1):
            if not math.isfinite(d) or d < 0.0:
                raise DomainError(f"dwell[{i}] must be >= 0 and finite, got {d!r}")

    def __len__(self) -> int:
        return len(self.dwell)

    def for_layer(self, layer: int) -> float:
        if not 1 <= layer <= len(self.dwell):
            raise DomainError(f"layer {layer} outside schedule range 1..{len(self.dwell)}")
        return self.dwell[layer - 1]


@dataclass(frozen=True)
class PointId:
    """Identity of a point: its layer, axial distance from the layer start
    boundary (mm), and relative delay d/TS (s)."""

    layer: int
    axial_distance: float
    relative_delay: float

    def __post_init__(self) -> None:
        if int(self.layer) != self.layer or self.layer < 1:
            raise DomainError(f"layer must be a positive integer, got {self.layer!r}")
        if not math.isfinite(self.axial_distance) or self.axial_distance < 0.0:
            raise DomainError(f"axial_distance must be >= 0, got {self.axial_distance!r}")
        if not math.isfinite(self.relative_delay) or self.relative_delay < 0.0:
            raise DomainError(f"relative_delay must be >= 0, got {self.relative_delay!r}")

    @classmethod
    def from_distance(cls, layer: int, axial_distance: float, travel_speed: float) -> "PointId":
        return cls(layer=layer, axial_distance=axial_distance,
                   relative_delay=axial_distance / travel_speed)

    @property
    def place(self) -> float:
        """The axial distance rounded to 1e-9 mm: points of one layer with
        the same place are the same point, and points of successive layers
        with the same place lie one above the other."""
        return round(self.axial_distance, 9)


def _frozen_curves(temps: np.ndarray, durations: tuple[float, ...],
                   rows: tuple[int, ...]) -> np.ndarray:
    """``temps`` as a read-only float64 array of shape ``rows + (N,)`` with
    N >= 2, once every value lies inside the physical temperature range and
    every duration is positive and finite."""
    temps = np.ascontiguousarray(temps, dtype=np.float64)
    if temps.ndim != len(rows) + 1 or temps.shape[:-1] != rows or temps.shape[-1] < 2:
        shape = ", ".join([str(r) for r in rows] + ["N >= 2"])
        raise ShapeError(f"curve temps must have shape ({shape}), got {temps.shape}")
    if not in_temperature_range(temps):
        raise DomainError(f"curve temps must lie strictly between {ABSOLUTE_ZERO_C} "
                          f"and {MAX_TEMPERATURE_C:g} degC")
    for duration in durations:
        if not math.isfinite(duration) or duration <= 0.0:
            raise DomainError(f"curve duration must be positive, got {duration!r}")
    temps.flags.writeable = False
    return temps


@dataclass(frozen=True, eq=False)
class Curve:
    """One print+dwell cycle of a point's temperature history, resampled to a
    fixed number of evenly spaced values over [0, duration]."""

    temps: np.ndarray
    duration: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "temps", _frozen_curves(self.temps, (self.duration,), ()))


@dataclass(frozen=True, eq=False)
class Profile:
    """The first five curves of one point as one read-only (5, N) float64
    block: row k of ``temps`` is curve k + 1, evenly sampled over [0,
    durations[k]] seconds.  ``temps.reshape(-1)`` is the point's 5N column
    of a layer's snapshot matrix."""

    point: PointId
    temps: np.ndarray
    durations: tuple[float, ...]

    def __post_init__(self) -> None:
        durations = tuple(float(d) for d in self.durations)
        if len(durations) != CURVES_PER_PROFILE:
            raise ShapeError(f"profile needs exactly {CURVES_PER_PROFILE} durations, "
                             f"got {len(durations)}")
        object.__setattr__(self, "temps",
                           _frozen_curves(self.temps, durations, (CURVES_PER_PROFILE,)))
        object.__setattr__(self, "durations", durations)

    @property
    def n(self) -> int:
        return self.temps.shape[1]

    @property
    def curves(self) -> tuple[Curve, ...]:
        """The five rows as :class:`Curve` values, built on each access."""
        return tuple(Curve(t, d) for t, d in zip(self.temps, self.durations))


@dataclass(frozen=True, eq=False)
class WallDataset:
    """All profiles of one generated or loaded thin wall, each point once;
    ``wall_id`` names the wall in the records of its dataset file.

    ``profiles`` may be given as any iterable of :class:`Profile`; it is
    stored as one tuple ordered by layer, then :attr:`PointId.place`.  Two
    profiles on one layer with the same place are the same point, listed
    twice, and raise DomainError."""

    settings: ProcessSettings
    schedule: DwellSchedule
    profiles: tuple[Profile, ...]
    provenance: dict = field(default_factory=dict)
    wall_id: int = 1

    def __post_init__(self) -> None:
        if len(self.schedule) != self.settings.num_layers:
            raise ShapeError(
                "schedule has %d entries for %d layers"
                % (len(self.schedule), self.settings.num_layers)
            )
        # each key is computed once: the sort and the same-point check share it
        keyed = sorted((((p.point.layer, p.point.place), p) for p in self.profiles),
                       key=itemgetter(0))
        if not keyed:
            raise ShapeError("dataset holds no profiles")
        sizes = {p.n for _, p in keyed}
        if len(sizes) != 1:
            raise ShapeError(f"all profiles must share N, got sizes {sorted(sizes)}")
        previous = None
        for key, prof in keyed:
            if key == previous:
                raise DomainError(f"point (layer {key[0]}, distance {key[1]}) is listed twice")
            previous = key
            point = prof.point
            if not 1 <= point.layer <= self.settings.num_layers:
                raise DomainError(f"point layer {point.layer} outside 1..{self.settings.num_layers}")
            if point.axial_distance > self.settings.layer_length + 1e-9:
                raise DomainError(
                    f"axial_distance {point.axial_distance} beyond layer length "
                    f"{self.settings.layer_length}"
                )
            expected = point.axial_distance / self.settings.travel_speed
            if abs(point.relative_delay - expected) > 1e-9:
                raise DomainError(
                    f"relative_delay {point.relative_delay} inconsistent with travel speed "
                    f"(expected {expected})"
                )
        object.__setattr__(self, "profiles", tuple(p for _, p in keyed))

    @property
    def n(self) -> int:
        return self.profiles[0].n

    def layers(self) -> list[int]:
        return sorted({p.point.layer for p in self.profiles})

    def profiles_on(self, layer: int) -> list[Profile]:
        """Profiles of one layer ordered by axial distance."""
        return [p for p in self.profiles if p.point.layer == layer]


def deposition_time(
    schedule: DwellSchedule,
    settings: ProcessSettings,
    layer: int,
    axial_distance: float,
) -> float:
    """Global time (s) at which material is deposited at the given axial
    distance of the given layer: all prior print and dwell time plus the
    travel time within the layer."""
    if not 1 <= layer <= settings.num_layers:
        raise DomainError(f"layer {layer} outside 1..{settings.num_layers}")
    if not 0.0 <= axial_distance <= settings.layer_length:
        raise DomainError(
            f"axial_distance {axial_distance} outside 0..{settings.layer_length}"
        )
    prior_dwell = sum(schedule.dwell[: layer - 1])
    return (layer - 1) * settings.layer_print_time + prior_dwell \
        + axial_distance / settings.travel_speed


def curve_duration(
    schedule: DwellSchedule,
    settings: ProcessSettings,
    layer: int,
    curve_index: int,
) -> float:
    """Duration of curve k of any point on the given layer: one layer print
    time plus the dwell of layer (layer + k - 1).  Independent of the point's
    axial distance."""
    if layer < 1 or curve_index < 1:
        raise DomainError(f"layer and curve_index must be >= 1, got ({layer}, {curve_index})")
    top = layer + curve_index - 1
    if top > settings.num_layers:
        raise DomainError(
            f"curve {curve_index} of layer {layer} indexes dwell[{top}] past the "
            f"top layer {settings.num_layers}"
        )
    return settings.layer_print_time + schedule.for_layer(top)


def mapping_features(
    settings: ProcessSettings,
    schedule: DwellSchedule,
    source_layer: int,
) -> np.ndarray:
    """The four process features fed to the mapping model alongside every
    curve measured on ``source_layer`` (the printed layer below the one
    being predicted), as a (4,) array in this order: layer print time (s),
    dwell of the source layer (s), deposition rate (mm^3/s) and relative
    height of the source layer (mm)."""
    if not 1 <= source_layer <= settings.num_layers:
        raise DomainError(f"source_layer {source_layer} outside 1..{settings.num_layers}")
    return np.array([settings.layer_print_time, schedule.for_layer(source_layer),
                     settings.deposition_rate, source_layer * settings.layer_thickness])


def reop_rows(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Relative error of profile, row by row: the mean of |T_hat - T| / T
    over each row of two (P, K) arrays, where a row holds one profile's
    stacked (partial) curves."""
    if predicted.shape != truth.shape or truth.ndim != 2:
        raise ShapeError(f"REOP needs two (P, K) arrays, got {predicted.shape} and {truth.shape}")
    if np.any(truth <= 0.0):
        raise MetricError("REOP undefined: truth contains temperatures <= 0 degC")
    return np.mean(np.abs(predicted - truth) / truth, axis=1)


def reop(predicted: Profile, truth: Profile) -> float:
    """Relative error of profile: mean of |T_hat - T| / T over all 5N samples
    of the five (partial) curves; the one-profile form of :func:`reop_rows`,
    so profiles of different N raise ShapeError."""
    return float(reop_rows(predicted.temps.reshape(1, -1), truth.temps.reshape(1, -1))[0])

