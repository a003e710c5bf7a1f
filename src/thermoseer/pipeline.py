"""Online prediction of the yet-to-print layer's thermal field.

Step 1 takes the measured profiles of M points on the printed layer; step 2
maps each of their curves one layer up with the mapping model; step 3
decomposes the mapped profiles and trains the layer's ELM online; step 4
reconstructs the profile of any requested point from its relative delay.
The module also extracts the supervised curve pairs of one or more walls
as one :class:`~thermoseer.mapping.CurvePairs`, renders full-layer
temperature fields, scores predictions with the profile error metric
(:func:`~thermoseer.core.reop_rows`, one array pass over all points), and
runs the train/test benchmark protocols.  Points of two sets are the same
point when they share a layer and a :attr:`~thermoseer.core.PointId.place`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    CURVES_PER_PROFILE,
    DomainError,
    DwellSchedule,
    HorizonError,
    PairingError,
    PointId,
    ProcessSettings,
    Profile,
    ProtocolError,
    ShapeError,
    WallDataset,
    mapping_features,
    reop_rows,
)
from .mapping import (
    CurvePairs,
    MappingModel,
    TrainConfig,
    forward_many,
    forward_raw,
    init_model,
    train,
)
from .preprocess import overlap_truncate_rows
from .reconstruct import (
    DEFAULT_ENERGY_THRESHOLD,
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
                      energy_threshold=energy_threshold, seed=recon_seed)
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
    """Profile of any point on the predicted layer, at exactly that distance."""
    if not 0.0 <= axial_distance <= settings.layer_length:
        raise DomainError(
            f"axial_distance {axial_distance} outside 0..{settings.layer_length}"
        )
    point = PointId.from_distance(prediction.layer, axial_distance, settings.travel_speed)
    return Profile(point, reconstruct_profile(prediction.reconstruction,
                                              point.relative_delay).curves)


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


def _summarize(values: np.ndarray) -> LayerSummary:
    return LayerSummary(
        count=values.size,
        median=float(np.median(values)),
        maximum=float(np.max(values)),
        q1=float(np.percentile(values, 25)),
        q3=float(np.percentile(values, 75)),
    )


def _curve_rows(profiles: list[Profile], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The profiles' curves as (5P, n) rows and their durations as 5P values,
    in profile then curve order.  A profile whose N is not ``n`` raises
    ShapeError."""
    sizes = sorted({p.n for p in profiles} - {n})
    if sizes:
        raise ShapeError(f"profiles mix N: {n} and {sizes}")
    return (np.array([c.temps for p in profiles for c in p.curves]).reshape(-1, n),
            np.array([p.durations for p in profiles]).reshape(-1))


def evaluate(predictions: list[Profile], truth: list[Profile]) -> EvaluationReport:
    """REOP of each predicted profile against its matching truth point.

    Points match by layer and :attr:`~thermoseer.core.PointId.place`, and
    the two point sets must match one-to-one.  Truth curves are
    overlap-truncated to the predicted partial durations and N before
    scoring.  Predictions of mixed N, or truth of mixed N, raise ShapeError.
    """
    pred_map = {(p.point.layer, p.point.place): p for p in predictions}
    truth_map = {(p.point.layer, p.point.place): p for p in truth}
    orphans = sorted(set(pred_map) ^ set(truth_map))
    if orphans:
        raise PairingError(f"unmatched points (layer, distance): {orphans}")
    if not pred_map:
        return EvaluationReport(per_point=[], per_layer={})

    keys = sorted(pred_map)
    preds = [pred_map[k] for k in keys]
    truths = [truth_map[k] for k in keys]
    pred_rows, pred_durations = _curve_rows(preds, preds[0].n)
    truth_rows, truth_durations = _curve_rows(truths, truths[0].n)
    aligned = overlap_truncate_rows(truth_rows, truth_durations, pred_durations,
                                    preds[0].n)
    values = reop_rows(pred_rows.reshape(len(preds), -1), aligned.reshape(len(preds), -1))
    layers = np.array([layer for layer, _ in keys])
    return EvaluationReport(
        per_point=[(p.point, v) for p, v in zip(preds, values.tolist())],
        per_layer={layer: _summarize(values[layers == layer])
                   for layer in sorted(set(layers.tolist()))})


def extract_curve_pairs(walls: WallDataset | list[WallDataset],
                        layers: list[int] | None = None) -> CurvePairs:
    """Supervised curve pairs of one wall or a list of walls, from every layer
    transition whose endpoints both carry profiles (restricted to
    transitions inside ``layers`` when given).

    Rows come out ordered by wall, then source layer, then point (by axial
    distance), then curve index, so every consecutive run of five rows is
    one profile's curve set.  Walls that disagree on N raise ShapeError."""
    walls = [walls] if isinstance(walls, WallDataset) else list(walls)
    sizes = {wall.n for wall in walls}
    if len(sizes) != 1:
        raise ShapeError(f"walls must share one N, got N {sorted(sizes)}")
    n = sizes.pop()

    lower, upper, features = [], [], []
    for wall in walls:
        available = set(wall.layers())
        allowed = available if layers is None else set(layers)
        sources = sorted(i for i in allowed
                         if i in available and (i + 1) in available and (i + 1) in allowed)
        for i in sources:
            feats = mapping_features(wall.settings, wall.schedule, i).as_array()
            upper_by_place = {p.point.place: p for p in wall.profiles_on(i + 1)}
            for low in wall.profiles_on(i):
                up = upper_by_place.get(low.point.place)
                if up is not None:
                    lower.append(low)
                    upper.append(up)
                    features.append(feats)

    inputs, lower_durations = _curve_rows(lower, n)
    upper_rows, upper_durations = _curve_rows(upper, n)
    targets = overlap_truncate_rows(upper_rows, upper_durations, lower_durations, n)
    return CurvePairs(inputs,
                      np.repeat(np.array(features).reshape(-1, 4), CURVES_PER_PROFILE, axis=0),
                      targets)


def mapped_pair_reops(model: MappingModel, pairs: CurvePairs) -> list[float]:
    """Profile-level REOP of single-step mapping over extracted curve pairs.

    Every consecutive run of five rows (one point's curves, the order
    :func:`extract_curve_pairs` guarantees) scores as one profile.  Raw-array
    inference is used so even wildly wrong predictions are scored rather than
    rejected."""
    if not len(pairs) or len(pairs) % CURVES_PER_PROFILE != 0:
        raise DomainError(
            f"need a multiple of {CURVES_PER_PROFILE} curve pairs, got {len(pairs)}"
        )
    preds = forward_raw(model, pairs.inputs, pairs.features)
    width = CURVES_PER_PROFILE * pairs.n
    return reop_rows(preds.reshape(-1, width), pairs.targets.reshape(-1, width)).tolist()


@dataclass(eq=False)
class BenchmarkReport:
    train_pairs: int
    final_train_loss: float
    per_layer: dict[int, LayerSummary]
    mapped_per_layer: dict[int, LayerSummary]


def run_benchmark(train_data, test_data: WallDataset,
                  train_layers: list[int] | None = None,
                  test_layers: list[int] | None = None,
                  train_config: TrainConfig = TrainConfig(),
                  model_seed: int = 0,
                  model: MappingModel | None = None) -> BenchmarkReport:
    """Train on curve pairs from the training walls/layers, then predict each
    test layer from the layer below and score the reconstruction at held-out
    points.

    On each test layer the odd-indexed points (first, third, ...) feed the
    mapping and the remaining points are reconstructed and scored, mirroring
    the measured-vs-reconstructed split of the online protocol.  Left out,
    ``test_layers`` is every layer of the test wall with a layer below it.
    Passing a pretrained ``model`` skips training.
    """
    walls = train_data if isinstance(train_data, list) else [train_data]
    if test_layers is None:
        test_layers = [l for l in test_data.layers() if l - 1 in set(test_data.layers())]
    for wall in walls:
        if wall is test_data:
            overlap = set(train_layers or wall.layers()) & set(test_layers)
            if overlap:
                raise ProtocolError(
                    f"train and test layers overlap on the same wall: {sorted(overlap)}"
                )

    pairs = extract_curve_pairs(walls, train_layers)
    if not len(pairs):
        raise ProtocolError("no curve pairs available from the training split")

    final_loss = float("nan")
    if model is None:
        model, history = train(init_model(pairs.n, seed=model_seed), pairs, train_config)
        final_loss = history[-1] if history else float("nan")

    per_layer: dict[int, LayerSummary] = {}
    mapped_per_layer: dict[int, LayerSummary] = {}
    for layer in sorted(test_layers):
        measured = test_data.profiles_on(layer - 1)
        truth = test_data.profiles_on(layer)
        if not measured or not truth:
            raise ProtocolError(f"insufficient profiles around test layer {layer}")
        inputs = measured[0::2]
        fed = {q.point.place for q in inputs}
        held_out = [p for p in truth if p.point.place not in fed] or truth

        prediction = predict_next_layer(model, inputs, test_data.settings,
                                        test_data.schedule)
        recon_preds = [predict_point(prediction, p.point.axial_distance,
                                     test_data.settings) for p in held_out]
        report = evaluate(recon_preds, held_out)
        per_layer[layer] = next(iter(report.per_layer.values()))

        mapped_truth = [p for p in truth if p.point.place in fed]
        if mapped_truth:
            mreport = evaluate(prediction.mapped_profiles, mapped_truth)
            mapped_per_layer[layer] = next(iter(mreport.per_layer.values()))

    return BenchmarkReport(
        train_pairs=len(pairs),
        final_train_loss=final_loss,
        per_layer=per_layer,
        mapped_per_layer=mapped_per_layer,
    )
