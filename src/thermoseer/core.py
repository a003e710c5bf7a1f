"""Domain types and shared arithmetic for thin-wall thermal prediction.

Everything downstream (generation, preprocessing, mapping, reconstruction,
pipeline) speaks in these types.  A point's temperature history is one
:class:`Profile`: its first five print+dwell curves as one (5, N) array plus
their five durations, so producers fill and consumers read that block
directly; :class:`Curve` is only the unchecked row record :attr:`Profile.curves` builds.
A producer that holds the profiles of many points as one (P, 5, N) block
(a loaded dataset, a generated layer, a mapped layer) builds them with
:meth:`Profile.of_block`, which checks the block once.  A
:class:`WallDataset` indexes its profiles by layer once, when it is built.
Temperatures are degrees Celsius stored as float64 end to end; layers are
indexed 1-based.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from operator import index, itemgetter

import numpy as np

CURVES_PER_PROFILE = 5
ABSOLUTE_ZERO_C = -273.15
# No printed metal surface reaches this (even tungsten boils near 5600 degC),
# so a reading at or above it is a corrupt value, not a temperature.
MAX_TEMPERATURE_C = 1e4
# float64 values one generated wall, or the curves of the field frames one
# request renders, may need (2 GiB); a larger request is refused before
# anything is allocated
MAX_WALL_VALUES = 1 << 28


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
    MAX_TEMPERATURE_C; a NaN or an infinity does not, and an empty array
    passes.  Two reductions and no temporaries: a NaN makes both the
    minimum and the maximum NaN, which fails either comparison."""
    return temps.size == 0 or bool(ABSOLUTE_ZERO_C < temps.min()
                                   and temps.max() < MAX_TEMPERATURE_C)


def whole_number(name: str, value, low: int) -> int:
    """``value`` as a plain int, the one rule for every count, index and seed:
    an int or numpy integer at or above ``low`` passes, and a bool, a float
    (even an integral one), a string or a smaller value raises DomainError."""
    if type(value) is int and value >= low:  # the common case, first
        return value
    try:
        if not isinstance(value, bool) and index(value) >= low:
            return index(value)
    except TypeError:  # not an integer type
        pass
    raise DomainError(f"{name} must be a whole number >= {low}, got {value!r}")


# the least float each bound of real_number takes (every bound takes only
# floats below inf, and NaN fails both tests) and its message's words for it
_LEAST = {None: math.nextafter(-math.inf, 0.0), ">= 0": 0.0, "> 0": math.ulp(0.0)}
_STATED = {None: "finite", ">= 0": ">= 0 and finite", "> 0": "positive and finite"}


def real_number(name: str, value, bound: str | None = None) -> float:
    """``value`` as a plain float, the one rule for every physical quantity,
    duration and threshold: an int, a float or a numpy integer or floating
    scalar that is finite and meets ``bound`` (None: any, ">= 0" or "> 0")
    passes; any other value, a bool too, raises DomainError "{name} must be
    finite" (">= 0 and finite", "positive and finite"), ", got {value!r}"."""
    try:  # a float, the common case, is taken as it is
        number = value if type(value) is float else float(value) if type(value) is not bool \
            and isinstance(value, (int, float, np.integer, np.floating)) else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.nan
    if _LEAST[bound] <= number < math.inf:
        return number
    raise DomainError(f"{name} must be {_STATED[bound]}, got {value!r}")


def wire_deposition_rate(wire_feed_rate: float, wire_diameter: float) -> float:
    """Volumetric deposition rate in mm^3/s from wire feed rate (m/min) and
    wire diameter (mm)."""
    wire_feed_rate = real_number("wire_feed_rate", wire_feed_rate, "> 0")
    wire_diameter = real_number("wire_diameter", wire_diameter, "> 0")
    return math.pi * (wire_diameter / 2.0) ** 2 * wire_feed_rate * 1000.0 / 60.0


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
        for f in fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, real_number(f.name, getattr(self, f.name), "> 0"))
        object.__setattr__(self, "num_layers", whole_number("num_layers", self.num_layers, 1))
        travel_time = self.layer_length / self.travel_speed
        if self.layer_print_time < travel_time - 1e-9:
            raise DomainError(
                "layer_print_time %.6g s is shorter than the travel time %.6g s"
                % (self.layer_print_time, travel_time)
            )

    def check_layer(self, layer: int) -> None:
        """DomainError unless ``layer`` is one of the wall's, 1..num_layers."""
        if whole_number("layer", layer, 1) > self.num_layers:
            raise DomainError(f"layer {layer} outside 1..{self.num_layers}")

    def check_distance(self, axial_distance: float) -> None:
        """DomainError unless ``axial_distance`` lies on a layer, 0..layer_length mm."""
        if not 0.0 <= real_number("axial_distance", axial_distance) <= self.layer_length:
            raise DomainError(f"axial_distance {axial_distance} outside 0..{self.layer_length}")

    @classmethod
    def build(
        cls,
        travel_speed: float = 8.0,
        wire_feed_rate: float = 3.0,
        layer_length: float = 160.0,
        layer_thickness: float = 1.5,
        num_layers: int = 40,
        wire_diameter: float = 1.2,
        interpass_target: float = 200.0,
        layer_print_time: float | None = None,
        deposition_rate: float | None = None,
    ) -> "ProcessSettings":
        """Settings with the canonical wall's defaults: print time from travel
        speed plus the 0.5 s allowance, deposition rate from the wire."""
        if layer_print_time is None:  # with the acceleration/deceleration allowance
            layer_print_time = real_number("layer_length", layer_length, "> 0") \
                / real_number("travel_speed", travel_speed, "> 0") + 0.5
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
            num_layers=num_layers,
        )


@dataclass(frozen=True)
class DwellSchedule:
    """Per-layer dwell times in seconds, indexed 1..num_layers."""

    dwell: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dwell", tuple(
            real_number(f"dwell[{i}]", d, ">= 0") for i, d in enumerate(self.dwell, 1)))

    def __len__(self) -> int:
        return len(self.dwell)

    def for_layer(self, layer: int) -> float:
        if whole_number("layer", layer, 1) > len(self.dwell):
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
        self._hold(self.layer, real_number("axial_distance", self.axial_distance, ">= 0"),
                   self.relative_delay)

    def _hold(self, layer, distance: float, delay) -> None:
        """Store the checked fields; ``distance`` comes checked."""
        held = vars(self)
        held["layer"] = whole_number("layer", layer, 1)
        held["axial_distance"] = distance
        held["relative_delay"] = real_number("relative_delay", delay, ">= 0")

    @classmethod
    def from_distance(cls, layer: int, axial_distance: float, travel_speed: float) -> "PointId":
        """The point ``axial_distance`` mm along ``layer``, its delay the
        distance over ``travel_speed``; the distance is checked once."""
        distance = real_number("axial_distance", axial_distance, ">= 0")
        point = cls.__new__(cls)
        point._hold(layer, distance, distance / real_number("travel_speed", travel_speed, "> 0"))
        return point

    @property
    def place(self) -> float:
        """The axial distance rounded to 1e-9 mm: points of one layer with
        the same place are the same point, and points of successive layers
        with the same place lie one above the other."""
        return round(self.axial_distance, 9)


def one_layer(points: Iterable[PointId]) -> int:
    """The one layer of ``points``, the inputs of one online step or oracle
    pass; points on more than one layer, or none, raise DomainError."""
    layers = {point.layer for point in points}
    if len(layers) != 1:
        raise DomainError(f"need the points of one layer, got layers {sorted(layers)}")
    return layers.pop()


def curve_durations(durations) -> tuple[float, ...]:
    """``durations`` as a tuple of floats: the durations of a profile's
    five curves.  Another count raises ShapeError, and a duration that is
    not positive and finite DomainError (:func:`real_number`).
    :class:`Profile` and :class:`~thermoseer.reconstruct.LayerReconstruction`
    both hold their durations through this rule."""
    durations = tuple(durations)
    if len(durations) != CURVES_PER_PROFILE:
        raise ShapeError(f"need exactly {CURVES_PER_PROFILE} curve durations, got {len(durations)}")
    return tuple([real_number("curve duration", d, "> 0") for d in durations])


@dataclass(frozen=True, eq=False)
class Curve:
    """One row of a :class:`Profile` and its duration, both checked by the profile."""

    temps: np.ndarray
    duration: float


def _checked_curves(temps, lead: int) -> np.ndarray:
    """``temps`` as a read-only float64 array of ``lead`` leading axes over
    (5, N >= 2) blocks, each block C-contiguous; it is copied only if it is
    not float64 or a block is not contiguous.  Another shape raises
    ShapeError naming one block's shape, and a value outside the
    temperature range DomainError, so one check of a stack of blocks says
    what a check of each block would."""
    temps = np.asarray(temps, dtype=np.float64)
    shape = temps.shape[lead:]
    if len(shape) != 2 or shape[0] != CURVES_PER_PROFILE or shape[1] < 2:
        raise ShapeError(f"curve temps must have shape ({CURVES_PER_PROFILE}, N >= 2), "
                         f"got {shape}")
    if not temps.flags.c_contiguous and \
            temps.strides[lead:] != (shape[1] * temps.itemsize, temps.itemsize):
        temps = np.ascontiguousarray(temps)
    if not in_temperature_range(temps):
        raise DomainError(f"curve temps must lie strictly between {ABSOLUTE_ZERO_C} "
                          f"and {MAX_TEMPERATURE_C:g} degC")
    temps.flags.writeable = False
    return temps


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
        object.__setattr__(self, "durations", curve_durations(self.durations))
        object.__setattr__(self, "temps", _checked_curves(self.temps, 0))

    @classmethod
    def of_block(cls, points, temps, durations) -> list["Profile"]:
        """The profiles of a (P, 5, N) block, row i with ``points[i]`` and
        ``durations[i]``: what ``[Profile(p, t, d) for p, t, d in zip(points,
        temps, durations)]`` gives, with the same errors, but the block's
        shape and temperatures are checked once and each profile's ``temps``
        is a read-only row view of the block.  Points, rows and durations of
        different counts raise ShapeError."""
        temps = _checked_curves(temps, 1)
        if not len(points) == len(temps) == len(durations):
            raise ShapeError(f"{len(points)} points, {len(temps)} curve blocks and "
                             f"{len(durations)} duration sets do not match")
        profiles = []
        for point, block, row_durations in zip(points, temps, durations):
            # the checks above stand for __post_init__, which is not run again
            profile = object.__new__(cls)
            object.__setattr__(profile, "point", point)
            object.__setattr__(profile, "temps", block)
            object.__setattr__(profile, "durations", curve_durations(row_durations))
            profiles.append(profile)
        return profiles

    @property
    def n(self) -> int:
        return self.temps.shape[1]

    @property
    def curves(self) -> tuple[Curve, ...]:
        """The five read-only rows as :class:`Curve` records, built on each access."""
        return tuple(Curve(t, d) for t, d in zip(self.temps, self.durations))


def one_n(sizes: Iterable[int], n: int | None = None) -> int:
    """The one N that ``sizes``, each profile's or wall's N, share: ``n``
    when given, else the first.  Another N, or no sizes and no ``n``,
    raises ShapeError."""
    sizes = list(sizes)
    if n is None:
        if not sizes:
            raise ShapeError("no profiles to take N from")
        n = sizes[0]
    others = sorted(set(sizes) - {n})
    if others:
        raise ShapeError(f"profiles have N {others}, expected {n}")
    return n


def stack_temps(profiles: Sequence[Profile], n: int) -> np.ndarray:
    """The profiles' ``temps`` as one new (P, 5, n) block, the inverse of
    :meth:`Profile.of_block`; a profile whose N is not ``n`` raises
    ShapeError (:func:`one_n`)."""
    one_n((p.n for p in profiles), n)
    return np.array([p.temps for p in profiles]).reshape(-1, CURVES_PER_PROFILE, n)


@dataclass(frozen=True, eq=False)
class WallDataset:
    """All profiles of one generated or loaded thin wall, each point once;
    ``wall_id`` names the wall in the records of its dataset file.

    ``profiles`` may be given as any iterable of :class:`Profile`; it is
    stored as one tuple ordered by layer, then :attr:`PointId.place`.  Two
    profiles on one layer with the same place are the same point, listed
    twice, and raise DomainError.  The layers are indexed once, when the
    dataset is built: :meth:`layers` and :meth:`profiles_on` read the index
    and do not scan the profiles."""

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
        one_n(p.n for _, p in keyed)
        previous = None
        first: dict[int, int] = {}  # each layer's first index in the sorted profiles
        for index, (key, prof) in enumerate(keyed):
            first.setdefault(key[0], index)
            if key == previous:
                raise DomainError(f"point (layer {key[0]}, distance {key[1]}) is listed twice")
            previous = key
            point = prof.point
            self.settings.check_layer(point.layer)
            self.settings.check_distance(point.axial_distance)
            expected = point.axial_distance / self.settings.travel_speed
            if abs(point.relative_delay - expected) > 1e-9:
                raise DomainError(
                    f"relative_delay {point.relative_delay} inconsistent with travel speed "
                    f"(expected {expected})"
                )
        object.__setattr__(self, "profiles", tuple(p for _, p in keyed))
        # the layer index: each layer's slice of ``profiles``, in ascending
        # layer order; an attribute, not a field, so repr and fields() omit it
        starts = list(first.values())
        object.__setattr__(self, "_by_layer",
                           dict(zip(first, map(slice, starts, starts[1:] + [len(keyed)]))))

    @property
    def n(self) -> int:
        return self.profiles[0].n

    def layers(self) -> list[int]:
        """The layers that hold profiles, ascending."""
        return list(self._by_layer)

    def profiles_on(self, layer: int) -> list[Profile]:
        """Profiles of one layer ordered by axial distance; none for a layer
        without profiles."""
        span = self._by_layer.get(layer)
        return [] if span is None else list(self.profiles[span])


def deposition_time(
    schedule: DwellSchedule,
    settings: ProcessSettings,
    layer: int,
    axial_distance: float,
) -> float:
    """Global time (s) at which material is deposited at the given axial
    distance of the given layer: all prior print and dwell time plus the
    travel time within the layer."""
    settings.check_layer(layer)
    settings.check_distance(axial_distance)
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
    top = whole_number("layer", layer, 1) + whole_number("curve_index", curve_index, 1) - 1
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
    settings.check_layer(source_layer)
    return np.array([settings.layer_print_time, schedule.for_layer(source_layer),
                     settings.deposition_rate, source_layer * settings.layer_thickness])


def reop_rows(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Relative error of profile, row by row: the mean of |T_hat - T| / T
    over each row of two (P, K) arrays, where a row holds one profile's
    stacked (partial) curves.  A non-finite prediction or a truth value at
    or below 0 degC raises MetricError, so no score is NaN."""
    if predicted.shape != truth.shape or truth.ndim != 2:
        raise ShapeError(f"REOP needs two (P, K) arrays, got {predicted.shape} and {truth.shape}")
    if not np.isfinite(predicted).all():
        raise MetricError("REOP undefined: a predicted temperature is not finite")
    if np.any(truth <= 0.0):
        raise MetricError("REOP undefined: truth contains temperatures <= 0 degC")
    return np.mean(np.abs(predicted - truth) / truth, axis=1)


def reop(predicted: Profile, truth: Profile) -> float:
    """Relative error of profile: mean of |T_hat - T| / T over all 5N samples
    of the five (partial) curves; the one-profile form of :func:`reop_rows`,
    so profiles of different N raise ShapeError."""
    return float(reop_rows(predicted.temps.reshape(1, -1), truth.temps.reshape(1, -1))[0])

