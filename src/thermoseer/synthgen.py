"""Analytic thin-wall thermal oracle.

Generates wall datasets whose temperature curves follow an exponential
cooling law plus an exponential re-heat approach, with per-layer dwell times
solved so each layer returns to the interpass target before the next one is
deposited.  Curves of successive layers are similar by construction and the
similarity grows with height, which is the structure the mapping model
learns.  The oracle takes a sequence of one layer's points and returns one
row per point.  Experiment-style walls come from raw traces of the same
oracle, ``(times, temps)`` from :func:`point_trace`, whose temperatures the
pyrometer emulator (noise plus clamping) turns into readings that
:mod:`thermoseer.preprocess` splits into curves.

No claim of physical fidelity is made; every constant lives in
:class:`SynthParams` so the oracle is fully specified by its parameters and
seed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import preprocess
from .core import (
    CURVES_PER_PROFILE,
    MAX_WALL_VALUES,
    ConfigError,
    DomainError,
    DwellSchedule,
    PointId,
    ProcessSettings,
    Profile,
    WallDataset,
    curve_duration,
    deposition_time,
    one_layer,
    real_number,
    whole_number,
)

PYROMETER_CLAMP_LOW = 150.0
PYROMETER_CLAMP_HIGH = 1000.0
EXPERIMENT_LEAD_IN_S = 5.0  # ambient readings before a point's deposition


@dataclass(frozen=True)
class SynthParams:
    """Constants of the analytic oracle.

    ambient/peak_base degC; cool_tau0 s; cool_height_gain 1/mm; reheat_tau s;
    reheat_decay and reheat_scale unitless; dr_gain degC per (mm^3/s);
    delay_gain and delay_tau_gain unitless per normalized in-layer delay;
    noise_sd degC.  Each float field holds the ``real_number`` bound in its metadata.
    """

    ambient: float = field(default=25.0, metadata={"bound": None})
    peak_base: float = field(default=1450.0, metadata={"bound": None})
    cool_tau0: float = field(default=55.0, metadata={"bound": "> 0"})
    cool_height_gain: float = field(default=0.02, metadata={"bound": ">= 0"})
    substrate_chill: float = field(default=0.3, metadata={"bound": ">= 0"})
    chill_height: float = field(default=10.0, metadata={"bound": "> 0"})
    reheat_tau: float = field(default=2.0, metadata={"bound": "> 0"})
    reheat_decay: float = field(default=0.9, metadata={"bound": "> 0"})
    reheat_scale: float = field(default=0.45, metadata={"bound": ">= 0"})
    dr_gain: float = field(default=0.5, metadata={"bound": ">= 0"})
    delay_gain: float = field(default=0.05, metadata={"bound": ">= 0"})
    delay_tau_gain: float = field(default=0.08, metadata={"bound": ">= 0"})
    noise_sd: float = field(default=0.0, metadata={"bound": ">= 0"})
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            if "bound" in f.metadata:
                object.__setattr__(self, f.name, real_number(
                    f.name, getattr(self, f.name), f.metadata["bound"]))
        object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))
        if self.reheat_decay >= 1.0:
            raise DomainError(f"reheat_decay must lie in (0, 1), got {self.reheat_decay!r}")
        if self.peak_base <= self.ambient:
            raise DomainError("peak_base must exceed ambient")
        if self.substrate_chill >= 1.0:
            raise DomainError(f"substrate_chill must lie in [0, 1), got {self.substrate_chill!r}")


def _delay_fraction(settings: ProcessSettings, relative_delay: float) -> float:
    return relative_delay / settings.layer_print_time


def cooling_tau(params: SynthParams, settings: ProcessSettings,
                layer: int, relative_delay: float) -> float:
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
                    relative_delay: float) -> float:
    """Temperature (degC) right after deposition at a point: later-deposited
    points sit on longer-heated substrate, so they start hotter."""
    rise = params.peak_base + params.dr_gain * settings.deposition_rate - params.ambient
    return params.ambient + (
        1.0 + params.delay_gain * _delay_fraction(settings, relative_delay)) * rise


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
    settings.check_layer(layer)
    end_delay = settings.layer_length / settings.travel_speed
    tau = cooling_tau(params, settings, layer, end_delay)
    peak = deposition_peak(params, settings, end_delay)
    return cooling_time(tau, peak, params.ambient, settings.interpass_target)


def build_schedule(params: SynthParams, settings: ProcessSettings) -> DwellSchedule:
    """Per-layer dwell schedule from :func:`solve_dwell`.  A dwell that does
    not come out finite (a cooling time constant too large for a float)
    raises DomainError naming the layer and the cooling constants."""
    dwell = []
    for layer in range(1, settings.num_layers + 1):
        seconds = solve_dwell(params, settings, layer)
        if not math.isfinite(seconds):
            raise DomainError(
                f"the dwell after layer {layer} is {seconds!r} s: the SynthParams "
                f"cooling constants cool_tau0 = {params.cool_tau0!r}, cool_height_gain "
                f"= {params.cool_height_gain!r} and delay_tau_gain = "
                f"{params.delay_tau_gain!r} give a cooling time constant that does not "
                f"fit a float")
        dwell.append(seconds)
    return DwellSchedule(tuple(dwell))


def _layer_durations(settings: ProcessSettings, schedule: DwellSchedule,
                     layer: int) -> list[float]:
    """The five curve durations of every point on ``layer``."""
    return [curve_duration(schedule, settings, layer, k)
            for k in range(1, CURVES_PER_PROFILE + 1)]


def _cycle_constants(params: SynthParams, settings: ProcessSettings, point: PointId,
                     durations: list[float]) -> tuple[list[float], list[float], float]:
    """Per-cycle amplitudes and re-heat amplitudes of ``point``, chained so
    cycles of the given ``durations`` join continuously, plus the point's
    cooling constant.  Scalar on purpose: ``math.exp`` and ``np.exp`` may
    differ in the last bit."""
    tau = cooling_tau(params, settings, point.layer, point.relative_delay)
    amp = deposition_peak(params, settings, point.relative_delay) - params.ambient
    reheat0 = params.reheat_scale * amp
    amps, reheats = [], []
    for k, duration in enumerate(durations):
        amps.append(amp)
        reheats.append(params.reheat_decay ** k * reheat0)
        # next cycle starts at this cycle's re-heat peak
        amp = amp * math.exp(-duration / tau) + reheats[-1]
    return amps, reheats, tau


def analytic_curve(params: SynthParams, settings: ProcessSettings,
                   schedule: DwellSchedule, points: Sequence[PointId],
                   curve_index: int | np.ndarray, local_times: np.ndarray) -> np.ndarray:
    """Noise-free oracle temperatures of curve ``curve_index`` at the given
    local times (s since the cycle start), one row per point of ``points``,
    a sequence of points on one layer.  ``curve_index`` is 1-based, an int
    or an int array that broadcasts against ``local_times``; each row has
    their broadcast shape."""
    layer = one_layer(points)
    durations = _layer_durations(settings, schedule, layer)
    idx = np.asarray(curve_index) - 1
    t = np.asarray(local_times, dtype=np.float64)
    shape = np.broadcast_shapes(idx.shape, t.shape)
    idx, t = np.broadcast_to(idx, shape), np.broadcast_to(t, shape)
    # the re-heat term does not depend on the point, only its amplitude does
    reheat_rise = np.exp((t - np.array(durations)[idx]) / params.reheat_tau)
    amps, reheats, taus = (np.array(c) for c in zip(*(
        _cycle_constants(params, settings, point, durations) for point in points)))
    # ambient + amp * exp(-t / tau) + reheat * reheat_rise, each product and
    # sum in place
    temps = np.exp(-t / taus.reshape((-1,) + (1,) * len(shape)))
    temps *= np.take(amps, idx, axis=1)
    temps += params.ambient
    reheat = np.take(reheats, idx, axis=1)
    reheat *= reheat_rise
    temps += reheat
    return temps


def point_trace(params: SynthParams, settings: ProcessSettings,
                schedule: DwellSchedule, points: Sequence[PointId],
                sample_period: float = 0.1,
                lead_in: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """``(times, temps)`` of the raw traces of ``points``, a sequence of
    points on one layer: both arrays have one row per point, all of one
    length, of global times every ``sample_period`` seconds spanning the
    five cycles, optionally preceded by ``lead_in`` seconds of ambient
    readings before deposition.  Traces of more than MAX_WALL_VALUES values
    raise DomainError before anything is allocated."""
    sample_period = real_number("sample_period", sample_period, "> 0")
    lead_in = real_number("lead_in", lead_in, ">= 0")
    layer = one_layer(points)
    durations = _layer_durations(settings, schedule, layer)
    # times and temps, one row per point; an infinite count compares too
    values = 2 * len(points) * ((lead_in + sum(durations)) / sample_period + 2)
    if values > MAX_WALL_VALUES:
        raise DomainError(f"the traces need about {values:.3g} values, more than the "
                          f"{MAX_WALL_VALUES} allowed; make sample_period larger or "
                          f"lead_in shorter")
    starts = np.array([deposition_time(schedule, settings, layer, point.axial_distance)
                       for point in points])

    n_lead = int(round(lead_in / sample_period))
    n_span = int(math.ceil(float(sum(durations)) / sample_period))
    offsets = (np.arange(-n_lead, n_span + 1)) * sample_period

    bounds = np.concatenate([[0.0], np.cumsum(durations)])
    local = offsets[n_lead:]
    # each sample's cycle; the last keeps the final samples that overrun the span
    k = np.minimum(np.searchsorted(bounds, local, side="right") - 1, CURVES_PER_PROFILE - 1)
    temps = np.empty((len(points), offsets.size))
    temps[:, :n_lead] = params.ambient
    temps[:, n_lead:] = analytic_curve(params, settings, schedule, points, k + 1,
                                       local - bounds[k])
    return starts[:, np.newaxis] + offsets, temps


def emulate_pyrometer(temps: np.ndarray, noise_sd: float = 0.0, seed: int = 0) -> np.ndarray:
    """Pyrometer view of a trace's temperatures, as a new float64 array:
    additive zero-mean Gaussian noise followed by clamping to the
    instrument band [PYROMETER_CLAMP_LOW, PYROMETER_CLAMP_HIGH]."""
    seen = np.array(temps, dtype=np.float64)
    if real_number("noise_sd", noise_sd, ">= 0") > 0.0:
        seen += np.random.default_rng(whole_number("seed", seed, 0)).normal(
            0.0, noise_sd, size=seen.shape)
    return np.clip(seen, PYROMETER_CLAMP_LOW, PYROMETER_CLAMP_HIGH, out=seen)


def _point_distances(settings: ProcessSettings, points_per_layer: int,
                     spacing_mm: float | None) -> list[float]:
    # at least one layer must have five curves
    whole_number("num_layers", settings.num_layers, CURVES_PER_PROFILE + 1)
    if spacing_mm is None:
        spacing_mm = settings.layer_length / (points_per_layer + 1)
    elif not isinstance(spacing_mm, (float, np.floating)) or math.isfinite(spacing_mm):
        # a NaN or an infinity, like 0, does not fit below
        spacing_mm = real_number("spacing_mm", spacing_mm)
    if not (spacing_mm > 0.0 and points_per_layer * spacing_mm < settings.layer_length):
        raise DomainError(
            f"{points_per_layer} points at {spacing_mm} mm spacing do not fit "
            f"inside a {settings.layer_length} mm layer"
        )
    return [j * spacing_mm for j in range(1, points_per_layer + 1)]


def _refuse_oversized(settings: ProcessSettings, points_per_layer: int, n: int,
                      trace_values: float = 0.0) -> tuple[int, int]:
    """``points_per_layer`` and ``n`` as whole numbers >= 2; ConfigError when
    a wall needs more than MAX_WALL_VALUES float64 values: 7 + 5n per
    profiled point (its layer, distance, five durations and five curves, as
    in its dataset row) plus ``trace_values``."""
    points_per_layer = whole_number("points_per_layer", points_per_layer, 2)
    n = whole_number("n", n, 2)
    points = (settings.num_layers - CURVES_PER_PROFILE) * points_per_layer
    values = points * (2 + CURVES_PER_PROFILE * (1 + n)) + trace_values
    if values > MAX_WALL_VALUES:
        raise ConfigError(f"the wall needs about {values:.3g} float64 values, more than "
                          f"the {MAX_WALL_VALUES} allowed; make num_layers, "
                          f"points_per_layer or n smaller, or sample_period larger")
    return points_per_layer, n


def generate_wall(settings: ProcessSettings, params: SynthParams,
                  points_per_layer: int = 7, n: int = 100,
                  spacing_mm: float | None = None) -> WallDataset:
    """Simulation-style dataset: noise-free (unless ``params.noise_sd`` > 0)
    analytic profiles of evenly spaced interior points on every layer that
    admits five curves.  A wall too large to hold (see MAX_WALL_VALUES)
    raises ConfigError before anything is allocated."""
    points_per_layer, n = _refuse_oversized(settings, points_per_layer, n)
    distances = _point_distances(settings, points_per_layer, spacing_mm)
    schedule = build_schedule(params, settings)

    curve_indices = np.arange(1, CURVES_PER_PROFILE + 1)[:, np.newaxis]
    profiles = []
    for layer in range(1, settings.num_layers - CURVES_PER_PROFILE + 1):
        durations = _layer_durations(settings, schedule, layer)
        grids = np.linspace(0.0, durations, n, axis=-1)
        points = [PointId.from_distance(layer, d, settings.travel_speed) for d in distances]
        block = analytic_curve(params, settings, schedule, points, curve_indices, grids)
        if params.noise_sd > 0:
            for j, temps in enumerate(block, start=1):
                temps += np.random.default_rng((params.seed, layer, j)).normal(
                    0.0, params.noise_sd, size=temps.shape)
        profiles += Profile.of_block(points, block, [durations] * len(points))

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
                             points_per_layer: int = 7, n: int = 100,
                             spacing_mm: float | None = None,
                             jitter_mm: float = 2.0,
                             sample_period: float = 0.5,
                             rise_threshold: float = 50.0) -> WallDataset:
    """Experiment-style dataset: each point's oracle trace is evaluated at a
    jittered location (manual pyrometer placement), passed through the
    pyrometer emulator, split at sharp rises, and resampled.  A pyrometer
    always reads with noise: a ``params.noise_sd`` <= 0 is replaced by
    2.0 degC, and the provenance records the value used.  Recorded point
    identities keep the nominal locations.  A wall whose curves and raw
    traces together exceed MAX_WALL_VALUES raises ConfigError before any
    trace is built."""
    sample_period = real_number("sample_period", sample_period, "> 0")
    rise_threshold = real_number("rise_threshold", rise_threshold, "> 0")
    # a wider jitter lands ever more points clipped onto a layer end, and near
    # 1e308 the uniform draw overflows
    jitter_mm = real_number("jitter_mm", jitter_mm, ">= 0")
    if jitter_mm > settings.layer_length:
        raise DomainError(f"jitter_mm must lie in [0, layer_length = "
                          f"{settings.layer_length!r}] mm, got {jitter_mm!r}")
    points_per_layer, n = _refuse_oversized(settings, points_per_layer, n)
    if params.noise_sd <= 0.0:
        params = replace(params, noise_sd=2.0)
    distances = _point_distances(settings, points_per_layer, spacing_mm)
    schedule = build_schedule(params, settings)
    layers = range(1, settings.num_layers - CURVES_PER_PROFILE + 1)
    # each point's raw trace spans the lead-in and its five cycles
    trace_s = sum(EXPERIMENT_LEAD_IN_S + sum(_layer_durations(settings, schedule, layer))
                  for layer in layers)
    _refuse_oversized(settings, points_per_layer, n,
                      points_per_layer * trace_s / sample_period)

    profiles = []
    for layer in layers:
        rngs = [np.random.default_rng((params.seed, layer, j))
                for j in range(1, points_per_layer + 1)]
        true_points = [PointId.from_distance(
            layer, min(max(d + rng.uniform(-jitter_mm, jitter_mm), 0.0),
                       settings.layer_length), settings.travel_speed)
            for d, rng in zip(distances, rngs)]
        traces = point_trace(params, settings, schedule, true_points,
                             sample_period=sample_period, lead_in=EXPERIMENT_LEAD_IN_S)
        for j, (d, rng, times, temps) in enumerate(zip(distances, rngs, *traces), start=1):
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
