"""Analytic thin-wall thermal oracle.

Generates wall datasets whose temperature curves follow an exponential
cooling law plus an exponential re-heat approach, with per-layer dwell times
solved so each layer returns to the interpass target before the next one is
deposited.  Curves of successive layers are similar by construction and the
similarity grows with height, which is the structure the mapping model
learns.  Experiment-style walls come from raw traces of the same oracle:
a raw trace is two equal-length arrays, ``(times, temps)`` from
:func:`point_trace`, whose temperatures the pyrometer emulator (noise plus
clamping) turns into readings that :mod:`thermoseer.preprocess` splits into
curves.

No claim of physical fidelity is made; every constant lives in
:class:`SynthParams` so the oracle is fully specified by its parameters and
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import preprocess
from .core import (
    CURVES_PER_PROFILE,
    ConfigError,
    DomainError,
    DwellSchedule,
    PointId,
    ProcessSettings,
    Profile,
    WallDataset,
    curve_duration,
    deposition_time,
)

PYROMETER_CLAMP_LOW = 150.0
PYROMETER_CLAMP_HIGH = 1000.0
EXPERIMENT_LEAD_IN_S = 5.0  # ambient readings before a point's deposition
# float64 values one generated wall, or the curves of the field frames one
# request renders, may need (2 GiB); a larger request is refused before
# anything is allocated
MAX_WALL_VALUES = 1 << 28


@dataclass(frozen=True)
class SynthParams:
    """Constants of the analytic oracle.

    ambient/peak_base degC; cool_tau0 s; cool_height_gain 1/mm; reheat_tau s;
    reheat_decay and reheat_scale unitless; dr_gain degC per (mm^3/s);
    delay_gain and delay_tau_gain unitless per normalized in-layer delay;
    noise_sd degC.
    """

    ambient: float = 25.0
    peak_base: float = 1450.0
    cool_tau0: float = 55.0
    cool_height_gain: float = 0.02
    substrate_chill: float = 0.3
    chill_height: float = 10.0
    reheat_tau: float = 2.0
    reheat_decay: float = 0.9
    reheat_scale: float = 0.45
    dr_gain: float = 0.5
    delay_gain: float = 0.05
    delay_tau_gain: float = 0.08
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value!r}")
        if self.cool_tau0 <= 0.0 or self.reheat_tau <= 0.0:
            raise DomainError("cooling and re-heat time constants must be positive")
        if not 0.0 < self.reheat_decay < 1.0:
            raise DomainError(f"reheat_decay must lie in (0, 1), got {self.reheat_decay!r}")
        if self.noise_sd < 0.0:
            raise DomainError(f"noise_sd must be >= 0, got {self.noise_sd!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed!r}")
        if self.peak_base <= self.ambient:
            raise DomainError("peak_base must exceed ambient")
        if not 0.0 <= self.substrate_chill < 1.0:
            raise DomainError(f"substrate_chill must lie in [0, 1), got {self.substrate_chill!r}")
        if self.chill_height <= 0.0:
            raise DomainError(f"chill_height must be positive, got {self.chill_height!r}")
        for name in ("cool_height_gain", "reheat_scale", "dr_gain",
                     "delay_gain", "delay_tau_gain"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be >= 0")


def _delay_fraction(settings: ProcessSettings, relative_delay: float) -> float:
    return relative_delay / settings.layer_print_time


def _amplitude_scale(params: SynthParams, settings: ProcessSettings,
                     layer: int, relative_delay: float) -> float:
    # later-deposited points sit on longer-heated substrate: hotter overall
    return 1.0 + params.delay_gain * _delay_fraction(settings, relative_delay)


def cooling_tau(params: SynthParams, settings: ProcessSettings,
                layer: int, relative_delay: float = 0.0) -> float:
    """Cooling time constant (s).

    Grows linearly with layer height, shortened near the substrate (the cold
    baseplate drains the first layers fast, an effect that decays
    exponentially with height), and lengthened slightly for later-deposited
    points."""
    h = layer * settings.layer_thickness
    chill = 1.0 - params.substrate_chill * math.exp(-h / params.chill_height)
    return params.cool_tau0 * (1.0 + params.cool_height_gain * h) * chill \
        * (1.0 + params.delay_tau_gain * _delay_fraction(settings, relative_delay))


def deposition_peak(params: SynthParams, settings: ProcessSettings,
                    layer: int, relative_delay: float = 0.0) -> float:
    """Temperature (degC) right after deposition at a point."""
    rise = params.peak_base + params.dr_gain * settings.deposition_rate - params.ambient
    return params.ambient + _amplitude_scale(params, settings, layer,
                                             relative_delay) * rise


def cooling_time(tau: float, start_temp: float, ambient: float, target: float) -> float:
    """Time for an exponential decay toward ``ambient`` with constant ``tau``
    to fall from ``start_temp`` to ``target``."""
    if target <= ambient:
        raise DomainError(f"target {target} degC must exceed ambient {ambient} degC")
    if target > start_temp:
        raise DomainError(f"target {target} degC above the start temperature {start_temp} degC")
    return tau * math.log((start_temp - ambient) / (target - ambient))


def solve_dwell(params: SynthParams, settings: ProcessSettings, layer: int) -> float:
    """Dwell time (s) after printing ``layer``: the analytic time for the
    layer-end point (the last and hottest deposit, the binding one) to cool
    from its deposition peak to the interpass target."""
    end_delay = settings.layer_length / settings.travel_speed
    tau = cooling_tau(params, settings, layer, end_delay)
    peak = deposition_peak(params, settings, layer, end_delay)
    return cooling_time(tau, peak, params.ambient, settings.interpass_target)


def build_schedule(params: SynthParams, settings: ProcessSettings) -> DwellSchedule:
    """Per-layer dwell schedule from :func:`solve_dwell`."""
    return DwellSchedule(tuple(
        solve_dwell(params, settings, i) for i in range(1, settings.num_layers + 1)
    ))


def _cycle_constants(params: SynthParams, settings: ProcessSettings,
                     schedule: DwellSchedule, point: PointId):
    """A (3, 5) array of per-cycle amplitudes, re-heat amplitudes and
    durations, chained so cycles join continuously, plus the point's cooling
    constant."""
    tau = cooling_tau(params, settings, point.layer, point.relative_delay)
    amp = deposition_peak(params, settings, point.layer,
                          point.relative_delay) - params.ambient
    reheat0 = params.reheat_scale * amp
    out = []
    for k in range(1, CURVES_PER_PROFILE + 1):
        duration = curve_duration(schedule, settings, point.layer, k)
        reheat = params.reheat_decay ** (k - 1) * reheat0
        out.append((amp, reheat, duration))
        # next cycle starts at this cycle's re-heat peak
        amp = amp * math.exp(-duration / tau) + reheat
    return np.array(out).T, tau


def analytic_curve(params: SynthParams, settings: ProcessSettings,
                   schedule: DwellSchedule, point: PointId, curve_index: int | np.ndarray,
                   local_times: np.ndarray) -> np.ndarray:
    """Noise-free oracle temperatures of curve ``curve_index`` of ``point``
    at the given local times (s since the cycle start).  ``curve_index`` is
    1-based, an int or an int array that broadcasts against
    ``local_times``."""
    cycles, tau = _cycle_constants(params, settings, schedule, point)
    amp, reheat, duration = cycles[:, np.asarray(curve_index) - 1]
    t = np.asarray(local_times, dtype=np.float64)
    return params.ambient + amp * np.exp(-t / tau) \
        + reheat * np.exp((t - duration) / params.reheat_tau)


def point_trace(params: SynthParams, settings: ProcessSettings,
                schedule: DwellSchedule, point: PointId,
                sample_period: float = 0.1,
                lead_in: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """``(times, temps)`` of one point's raw trace: global times every
    ``sample_period`` seconds spanning its five cycles, optionally preceded
    by ``lead_in`` seconds of ambient readings before deposition."""
    if sample_period <= 0.0:
        raise DomainError(f"sample_period must be positive, got {sample_period!r}")
    durations = _cycle_constants(params, settings, schedule, point)[0][2]
    total = float(sum(durations))
    start = deposition_time(schedule, settings, point.layer, point.axial_distance)

    n_lead = int(round(lead_in / sample_period))
    n_span = int(math.ceil(total / sample_period))
    offsets = (np.arange(-n_lead, n_span + 1)) * sample_period

    bounds = np.concatenate([[0.0], np.cumsum(durations)])
    local = offsets[n_lead:]
    # each sample's cycle; the last keeps the final samples that overrun the span
    k = np.minimum(np.searchsorted(bounds, local, side="right") - 1, CURVES_PER_PROFILE - 1)
    temps = np.concatenate([np.full(n_lead, params.ambient), analytic_curve(
        params, settings, schedule, point, k + 1, local - bounds[k])])
    return start + offsets, temps


def emulate_pyrometer(temps: np.ndarray, noise_sd: float = 0.0, seed: int = 0) -> np.ndarray:
    """Pyrometer view of a trace's temperatures, as a new float64 array:
    additive zero-mean Gaussian noise followed by clamping to the
    instrument band [PYROMETER_CLAMP_LOW, PYROMETER_CLAMP_HIGH]."""
    seen = np.array(temps, dtype=np.float64)
    if noise_sd > 0.0:
        seen += np.random.default_rng(seed).normal(0.0, noise_sd, size=seen.shape)
    return np.clip(seen, PYROMETER_CLAMP_LOW, PYROMETER_CLAMP_HIGH, out=seen)


def _point_distances(settings: ProcessSettings, points_per_layer: int,
                     spacing_mm: float | None) -> list[float]:
    if settings.num_layers < 6:
        raise DomainError("num_layers must be >= 6 so at least one layer has five curves")
    if points_per_layer < 2:
        raise DomainError(f"points_per_layer must be >= 2, got {points_per_layer}")
    if spacing_mm is None:
        spacing_mm = settings.layer_length / (points_per_layer + 1)
    if not (spacing_mm > 0.0 and points_per_layer * spacing_mm < settings.layer_length):
        raise DomainError(
            f"{points_per_layer} points at {spacing_mm} mm spacing do not fit "
            f"inside a {settings.layer_length} mm layer"
        )
    return [j * spacing_mm for j in range(1, points_per_layer + 1)]


def _refuse_oversized(settings: ProcessSettings, points_per_layer: int, n: int,
                      trace_values: float = 0.0) -> None:
    """DomainError when ``n`` < 2; ConfigError when a wall needs more than
    MAX_WALL_VALUES float64 values: 7 + 5n per profiled point (its layer,
    distance, five durations and five curves, as in its dataset row) plus
    ``trace_values``."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    points = (settings.num_layers - CURVES_PER_PROFILE) * points_per_layer
    values = points * (2 + CURVES_PER_PROFILE * (1 + n)) + trace_values
    if values > MAX_WALL_VALUES:
        raise ConfigError(f"the wall needs about {values:.3g} float64 values, more than "
                          f"the {MAX_WALL_VALUES} allowed; make num_layers, "
                          f"points_per_layer or n smaller, or sample_period larger")


def generate_wall(settings: ProcessSettings, params: SynthParams,
                  points_per_layer: int, n: int = 100,
                  spacing_mm: float | None = None) -> WallDataset:
    """Simulation-style dataset: noise-free (unless ``params.noise_sd`` > 0)
    analytic profiles of evenly spaced interior points on every layer that
    admits five curves.  A wall too large to hold (see MAX_WALL_VALUES)
    raises ConfigError before anything is allocated."""
    _refuse_oversized(settings, points_per_layer, n)
    distances = _point_distances(settings, points_per_layer, spacing_mm)
    schedule = build_schedule(params, settings)

    curve_indices = np.arange(1, CURVES_PER_PROFILE + 1)[:, np.newaxis]
    profiles = []
    for layer in range(1, settings.num_layers - CURVES_PER_PROFILE + 1):
        durations = [curve_duration(schedule, settings, layer, k)
                     for k in range(1, CURVES_PER_PROFILE + 1)]
        grids = np.linspace(0.0, durations, n, axis=-1)
        for j, d in enumerate(distances, start=1):
            point = PointId.from_distance(layer, d, settings.travel_speed)
            temps = analytic_curve(params, settings, schedule, point, curve_indices, grids)
            if params.noise_sd > 0:
                temps += np.random.default_rng((params.seed, layer, j)).normal(
                    0.0, params.noise_sd, size=temps.shape)
            profiles.append(Profile(point, temps, durations))

    provenance = {
        "kind": "synthetic",
        "style": "simulation",
        "seed": params.seed,
        "n": n,
        "points_per_layer": points_per_layer,
        "noise": "gaussian",
        "noise_sd": params.noise_sd,
    }
    return WallDataset(settings, schedule, profiles, provenance)


def generate_experiment_wall(settings: ProcessSettings, params: SynthParams,
                             points_per_layer: int, n: int = 100,
                             spacing_mm: float | None = None,
                             jitter_mm: float = 2.0,
                             sample_period: float = 0.5,
                             rise_threshold: float = 50.0) -> WallDataset:
    """Experiment-style dataset: each point's oracle trace is evaluated at a
    jittered location (manual pyrometer placement), passed through the
    pyrometer emulator, split at sharp rises, and resampled.  Recorded point
    identities keep the nominal locations.  A wall whose curves and raw
    traces together exceed MAX_WALL_VALUES raises ConfigError before any
    trace is built."""
    if not 0.0 < sample_period < math.inf:
        raise DomainError(f"sample_period must be positive and finite, got {sample_period!r}")
    if not 0.0 <= jitter_mm < math.inf:
        raise DomainError(f"jitter_mm must be >= 0 and finite, got {jitter_mm!r}")
    _refuse_oversized(settings, points_per_layer, n)
    if params.noise_sd <= 0.0:
        params = replace(params, noise_sd=2.0)
    distances = _point_distances(settings, points_per_layer, spacing_mm)
    schedule = build_schedule(params, settings)
    # each point's raw trace spans the lead-in and its five cycles
    trace_s = sum(EXPERIMENT_LEAD_IN_S + sum(curve_duration(schedule, settings, layer, k)
                                             for k in range(1, CURVES_PER_PROFILE + 1))
                  for layer in range(1, settings.num_layers - CURVES_PER_PROFILE + 1))
    _refuse_oversized(settings, points_per_layer, n,
                      points_per_layer * trace_s / sample_period)

    profiles = []
    for layer in range(1, settings.num_layers - CURVES_PER_PROFILE + 1):
        for j, d in enumerate(distances, start=1):
            rng = np.random.default_rng((params.seed, layer, j))
            true_d = float(np.clip(d + rng.uniform(-jitter_mm, jitter_mm),
                                   0.0, settings.layer_length))
            true_point = PointId.from_distance(layer, true_d, settings.travel_speed)
            times, temps = point_trace(params, settings, schedule, true_point,
                                       sample_period=sample_period,
                                       lead_in=EXPERIMENT_LEAD_IN_S)
            seen = emulate_pyrometer(temps, noise_sd=params.noise_sd,
                                     seed=int(rng.integers(2 ** 31)))
            # through the module, so a wrapper set on its attributes sees the calls
            cuts = preprocess.split_experiment(seen, sample_period, rise_threshold)
            if cuts.size < CURVES_PER_PROFILE + 2:
                raise DomainError(
                    f"expected at least {CURVES_PER_PROFILE + 1} segments from the "
                    f"pyrometer trace of layer {layer} point {j}, got {cuts.size - 1}"
                )
            # first segment is the pre-deposition stub; the next five are curves
            point = PointId.from_distance(layer, d, settings.travel_speed)
            profiles.append(Profile(point, *preprocess.resample(
                times, seen, cuts[1:CURVES_PER_PROFILE + 2], n)))

    provenance = {
        "kind": "synthetic",
        "style": "experiment",
        "seed": params.seed,
        "n": n,
        "points_per_layer": points_per_layer,
        "noise": "gaussian",
        "noise_sd": params.noise_sd,
        "jitter_mm": jitter_mm,
        "sample_period": sample_period,
        "rise_threshold": rise_threshold,
        "clamp": [PYROMETER_CLAMP_LOW, PYROMETER_CLAMP_HIGH],
    }
    return WallDataset(settings, schedule, profiles, provenance)
