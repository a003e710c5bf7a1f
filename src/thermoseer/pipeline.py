"""Online prediction of the yet-to-print layer's thermal field.

Step 1 takes the measured profiles of M points on the printed layer; step 2
maps each of their curves one layer up with the mapping model; step 3
decomposes the mapped profiles and trains the layer's ELM online; step 4
reconstructs the profile of any requested point from its relative delay.
The module also renders full-layer temperature fields, scores predictions
with the profile error metric, and runs the train/test benchmark protocols.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    CURVES_PER_PROFILE,
    Curve,
    DomainError,
    DwellSchedule,
    HorizonError,
    MetricError,
    PairingError,
    PointId,
    ProcessSettings,
    Profile,
    ProtocolError,
    WallDataset,
    mapping_features,
    reop,
)
from .mapping import (
    CurvePairSample,
    MappingModel,
    TrainConfig,
    forward_many,
    forward_raw,
    init_model,
    train,
)
from .preprocess import overlap_truncate
from .reconstruct import (
    DEFAULT_ENERGY_THRESHOLD,
    DEFAULT_HIDDEN_NODES,
    LayerReconstruction,
    fit_layer,
    reconstruct_profile,
    reconstruct_stacked,
)

ROOM_TEMPERATURE = 25.0


@dataclass(eq=False)
class LayerPrediction:
    """Mapped profiles and the online reconstruction of one predicted layer."""

    layer: int
    mapped_profiles: list[Profile]
    reconstruction: LayerReconstruction
    elapsed: float
    map_seconds: float
    reconstruct_seconds: float


@dataclass(eq=False)
class FieldFrame:
    """Layer temperatures at one local time: evenly spaced axial positions,
    room temperature where nothing has been deposited yet.

    ``interior`` marks printed positions whose relative delay lies inside the
    span of the mapped points; outside it the ELM extrapolates and boundary
    error amplification is expected."""

    local_time: float
    positions: np.ndarray
    temps: np.ndarray
    interior: np.ndarray


def predict_next_layer(model: MappingModel, measured: list[Profile],
                       settings: ProcessSettings, schedule: DwellSchedule,
                       energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
                       n_hidden: int = DEFAULT_HIDDEN_NODES,
                       recon_seed: int = 0) -> LayerPrediction:
    """Map M measured profiles one layer up and train the layer's
    reconstruction online."""
    if not measured:
        raise DomainError("measured profiles must be nonempty")
    layers = {p.point.layer for p in measured}
    if len(layers) != 1:
        raise DomainError(f"measured profiles span layers {sorted(layers)}, need one")
    source = layers.pop()
    target = source + 1
    if target > settings.num_layers:
        raise DomainError(
            f"cannot predict layer {target}: the wall has {settings.num_layers} layers"
        )

    start = time.perf_counter()
    feats = mapping_features(settings, schedule, source)
    flat_curves = [c for prof in measured for c in prof.curves]
    flat_feats = [feats] * len(flat_curves)
    predicted = forward_many(model, flat_curves, flat_feats)
    mapped = []
    for i, prof in enumerate(measured):
        point = PointId(target, prof.point.axial_distance, prof.point.relative_delay)
        curves = tuple(predicted[i * CURVES_PER_PROFILE:(i + 1) * CURVES_PER_PROFILE])
        mapped.append(Profile(point, curves))
    t_map = time.perf_counter()

    recon = fit_layer(mapped, settings.travel_speed,
                      energy_threshold=energy_threshold,
                      n_hidden=n_hidden, seed=recon_seed)
    t_done = time.perf_counter()
    return LayerPrediction(
        layer=target,
        mapped_profiles=mapped,
        reconstruction=recon,
        elapsed=t_done - start,
        map_seconds=t_map - start,
        reconstruct_seconds=t_done - t_map,
    )


def predict_layer(model: MappingModel, dataset: WallDataset, layer: int,
                  **kwargs) -> LayerPrediction:
    """Predict one layer of a wall from the dataset's profiles on the layer
    below.  Layer 1 has no previous layer and is rejected."""
    if layer < 2:
        raise ProtocolError(
            "the method is not applicable on the first layer: there is no "
            "printed layer below it to measure"
        )
    measured = dataset.profiles_on(layer - 1)
    if not measured:
        raise ProtocolError(f"dataset has no profiles on layer {layer - 1}")
    return predict_next_layer(model, measured, dataset.settings, dataset.schedule,
                              **kwargs)


def predict_point(prediction: LayerPrediction, axial_distance: float,
                  settings: ProcessSettings) -> Profile:
    """Profile of an arbitrary point on the predicted layer."""
    if not 0.0 <= axial_distance <= settings.layer_length:
        raise DomainError(
            f"axial_distance {axial_distance} outside 0..{settings.layer_length}"
        )
    delay = axial_distance / settings.travel_speed
    return reconstruct_profile(prediction.reconstruction, delay)


def field_horizon(prediction: LayerPrediction) -> float:
    """Largest representable local time: the five partial-curve durations of
    the layer's earliest-deposited position."""
    return float(np.sum(prediction.reconstruction.durations))


def render_field(prediction: LayerPrediction, settings: ProcessSettings,
                 schedule: DwellSchedule, local_time: float,
                 n_positions: int = 160) -> FieldFrame:
    """Layer temperature field at a local time (seconds since the layer's
    print start).  Positions not yet reached by the nozzle hold room
    temperature; printed positions are evaluated on their reconstructed
    partial curves, located by cumulative curve durations."""
    if local_time < 0.0:
        raise DomainError(f"local_time must be >= 0, got {local_time}")
    if n_positions < 2:
        raise DomainError(f"n_positions must be >= 2, got {n_positions}")

    recon = prediction.reconstruction
    bounds = np.concatenate([[0.0], np.cumsum(recon.durations)])
    horizon = bounds[-1]
    if local_time > horizon:
        raise HorizonError(
            f"local_time {local_time:.3f} s is beyond the five-curve horizon; "
            f"the maximum representable local time is {horizon:.3f} s"
        )

    positions = np.linspace(0.0, settings.layer_length, n_positions)
    temps = np.full(n_positions, ROOM_TEMPERATURE)
    deposit_times = positions / settings.travel_speed
    printed = local_time >= deposit_times
    lo, hi = recon.delay_range
    interior = printed & (deposit_times >= lo) & (deposit_times <= hi)
    if not np.any(printed):
        return FieldFrame(local_time, positions, temps, interior)

    delays = deposit_times[printed]
    stacked = reconstruct_stacked(recon, delays)  # (5N, P)
    n = recon.n
    elapsed = local_time - delays
    values = np.empty(delays.size)
    for i, tau in enumerate(elapsed):
        k = min(int(np.searchsorted(bounds, tau, side="right")) - 1,
                CURVES_PER_PROFILE - 1)
        grid = np.linspace(0.0, recon.durations[k], n)
        values[i] = np.interp(tau - bounds[k], grid, stacked[k * n:(k + 1) * n, i])
    temps[printed] = values
    return FieldFrame(local_time, positions, temps, interior)


@dataclass(frozen=True)
class LayerSummary:
    """Order statistics of the REOP values on one layer."""

    count: int
    median: float
    maximum: float
    q1: float
    q3: float


@dataclass(eq=False)
class EvaluationReport:
    per_point: list[tuple[PointId, float]]
    per_layer: dict[int, LayerSummary]

    def reops(self) -> list[float]:
        return [r for _, r in self.per_point]


def _summarize(values: list[float]) -> LayerSummary:
    arr = np.asarray(values)
    return LayerSummary(
        count=arr.size,
        median=float(np.median(arr)),
        maximum=float(np.max(arr)),
        q1=float(np.percentile(arr, 25)),
        q3=float(np.percentile(arr, 75)),
    )


def evaluate(predictions: list[Profile], truth: list[Profile]) -> EvaluationReport:
    """REOP of each predicted profile against its matching truth point.

    Truth curves are overlap-truncated to the predicted partial durations
    before scoring.  Point sets must match one-to-one.
    """
    def key(p: Profile):
        return (p.point.layer, round(p.point.axial_distance, 9))

    pred_map = {key(p): p for p in predictions}
    truth_map = {key(p): p for p in truth}
    orphans = sorted(set(pred_map) ^ set(truth_map))
    if orphans:
        raise PairingError(f"unmatched points (layer, distance): {orphans}")

    per_point = []
    for k in sorted(pred_map):
        pred, tru = pred_map[k], truth_map[k]
        aligned = tuple(
            overlap_truncate(tc, pc.duration, n=pc.n)
            for pc, tc in zip(pred.curves, tru.curves)
        )
        per_point.append((pred.point, reop(pred, Profile(tru.point, aligned))))

    per_layer: dict[int, list[float]] = {}
    for point, value in per_point:
        per_layer.setdefault(point.layer, []).append(value)
    summaries = {layer: _summarize(vals) for layer, vals in sorted(per_layer.items())}
    return EvaluationReport(per_point=per_point, per_layer=summaries)


def extract_curve_pairs(dataset: WallDataset,
                        layers: list[int] | None = None) -> list[CurvePairSample]:
    """Supervised curve pairs from every layer transition whose endpoints both
    carry profiles (restricted to transitions inside ``layers`` when given).

    Samples come out ordered by source layer, then point (by axial distance),
    then curve index, so every consecutive run of five samples is one
    profile's curve set."""
    available = set(dataset.layers())
    if layers is None:
        allowed = available
    else:
        allowed = set(layers)
    sources = sorted(i for i in allowed
                     if i in available and (i + 1) in available and (i + 1) in allowed)

    samples = []
    for i in sources:
        feats = mapping_features(dataset.settings, dataset.schedule, i)
        upper_by_d = {round(p.point.axial_distance, 9): p
                      for p in dataset.profiles_on(i + 1)}
        for lower in dataset.profiles_on(i):
            upper = upper_by_d.get(round(lower.point.axial_distance, 9))
            if upper is None:
                continue
            for k in range(CURVES_PER_PROFILE):
                target = overlap_truncate(upper.curves[k], lower.curves[k].duration)
                samples.append(CurvePairSample(lower.curves[k], feats, target))
    return samples


def mapped_pair_reops(model: MappingModel, samples: list[CurvePairSample]) -> list[float]:
    """Profile-level REOP of single-step mapping over extracted curve pairs.

    Every consecutive run of five samples (one point's curves, the order
    :func:`extract_curve_pairs` guarantees) scores as one profile.  Raw-array
    inference is used so even wildly wrong predictions are scored rather than
    rejected."""
    if not samples or len(samples) % CURVES_PER_PROFILE != 0:
        raise DomainError(
            f"need a multiple of {CURVES_PER_PROFILE} samples, got {len(samples)}"
        )
    temps = np.stack([s.input_curve.temps for s in samples])
    feats = np.stack([s.features.as_array() for s in samples])
    preds = forward_raw(model, temps, feats)
    targets = np.stack([s.target_partial.temps for s in samples])
    if np.any(targets <= 0.0):
        raise MetricError("REOP undefined: targets contain temperatures <= 0 degC")
    rel = np.abs(preds - targets) / targets
    per_profile = rel.reshape(-1, CURVES_PER_PROFILE * rel.shape[1]).mean(axis=1)
    return [float(v) for v in per_profile]


@dataclass(eq=False)
class BenchmarkReport:
    train_pairs: int
    final_train_loss: float
    per_layer: dict[int, LayerSummary]
    mapped_per_layer: dict[int, LayerSummary]
    timing: dict[int, dict[str, float]]

    def to_json_dict(self) -> dict:
        def layer_block(summaries):
            return {
                str(layer): {
                    "count": s.count, "median": s.median, "max": s.maximum,
                    "q1": s.q1, "q3": s.q3,
                } for layer, s in summaries.items()
            }
        return {
            "train_pairs": self.train_pairs,
            "final_train_loss": self.final_train_loss,
            "per_layer": layer_block(self.per_layer),
            "mapped_per_layer": layer_block(self.mapped_per_layer),
            "timing": {str(k): v for k, v in self.timing.items()},
        }


def run_benchmark(train_data, test_data: WallDataset,
                  train_layers: list[int] | None = None,
                  test_layers: list[int] | None = None,
                  train_config: TrainConfig = TrainConfig(),
                  model_seed: int = 0,
                  recon_seed: int = 0,
                  energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
                  n_hidden: int = DEFAULT_HIDDEN_NODES,
                  model: MappingModel | None = None) -> BenchmarkReport:
    """Train on curve pairs from the training walls/layers, then predict each
    test layer from the layer below and score the reconstruction at held-out
    points.

    On each test layer the odd-indexed points (first, third, ...) feed the
    mapping and the remaining points are reconstructed and scored, mirroring
    the measured-vs-reconstructed split of the online protocol.  Passing a
    pretrained ``model`` skips training.
    """
    walls = train_data if isinstance(train_data, list) else [train_data]
    for wall in walls:
        if wall is test_data:
            overlap = set(train_layers or wall.layers()) & set(test_layers or [])
            if overlap:
                raise ProtocolError(
                    f"train and test layers overlap on the same wall: {sorted(overlap)}"
                )

    samples = []
    for wall in walls:
        samples.extend(extract_curve_pairs(wall, train_layers))
    if not samples:
        raise ProtocolError("no curve pairs available from the training split")

    final_loss = float("nan")
    if model is None:
        n = samples[0].input_curve.n
        model, history = train(init_model(n, seed=model_seed), samples, train_config)
        final_loss = history[-1] if history else float("nan")

    if test_layers is None:
        test_layers = [l for l in test_data.layers() if l - 1 in set(test_data.layers())]
    per_layer: dict[int, LayerSummary] = {}
    mapped_per_layer: dict[int, LayerSummary] = {}
    timing: dict[int, dict[str, float]] = {}
    for layer in sorted(test_layers):
        measured = test_data.profiles_on(layer - 1)
        truth = test_data.profiles_on(layer)
        if not measured or not truth:
            raise ProtocolError(f"insufficient profiles around test layer {layer}")
        inputs = measured[0::2]
        held_out = [p for p in truth
                    if p.point.axial_distance not in
                    {q.point.axial_distance for q in inputs}] or truth

        prediction = predict_next_layer(model, inputs, test_data.settings,
                                        test_data.schedule,
                                        energy_threshold=energy_threshold,
                                        n_hidden=n_hidden, recon_seed=recon_seed)
        recon_preds = [predict_point(prediction, p.point.axial_distance,
                                     test_data.settings) for p in held_out]
        report = evaluate(recon_preds, held_out)
        per_layer[layer] = next(iter(report.per_layer.values()))

        mapped_truth = [p for p in truth
                        if any(p.point.axial_distance == q.point.axial_distance
                               for q in inputs)]
        if mapped_truth:
            mreport = evaluate(prediction.mapped_profiles, mapped_truth)
            mapped_per_layer[layer] = next(iter(mreport.per_layer.values()))
        timing[layer] = {
            "map_seconds": prediction.map_seconds,
            "reconstruct_seconds": prediction.reconstruct_seconds,
            "total_seconds": prediction.elapsed,
        }

    return BenchmarkReport(
        train_pairs=len(samples),
        final_train_loss=final_loss,
        per_layer=per_layer,
        mapped_per_layer=mapped_per_layer,
        timing=timing,
    )
