"""Online prediction of the yet-to-print layer's thermal field.

Step 1 takes the measured profiles of M points on the printed layer; step 2
maps each of their curves one layer up with the mapping model; step 3
decomposes the mapped profiles and trains the layer's ELM online; step 4
reconstructs the profile of any requested point from its relative delay.
Steps 3 and 4 run on the paper's constants (the 99% energy criterion and
128 hidden nodes from seed 0), so a prediction depends only on the model
and the measured profiles.
The module also extracts the supervised curve pairs of one or more walls
as one :class:`~thermoseer.mapping.CurvePairs`, renders full-layer
temperature fields, scores predictions with the profile error metric
(:func:`~thermoseer.core.reop_rows`, one array pass over all points), and
runs the train/test benchmark protocols.  Points of two sets are the same
point when they share a layer and a :attr:`~thermoseer.core.PointId.place`.
"""

from __future__ import annotations

import math
import time
from collections.abc import Collection, Iterable
from dataclasses import dataclass

import numpy as np

from .core import (
    CURVES_PER_PROFILE,
    MAX_WALL_VALUES,
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
                       settings: ProcessSettings, schedule: DwellSchedule) -> LayerPrediction:
    """Map M measured profiles one layer up and train the layer's
    reconstruction online with :func:`~thermoseer.reconstruct.fit_layer`."""
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
    temps = _curve_temps(measured, model.n)
    feats = np.broadcast_to(mapping_features(settings, schedule, source), (len(temps), 4))
    blocks = forward_many(model, temps, feats).reshape(len(measured), CURVES_PER_PROFILE, -1)
    mapped = Profile.of_block(
        [PointId(target, p.point.axial_distance, p.point.relative_delay) for p in measured],
        blocks, [p.durations for p in measured])
    t_map = time.perf_counter()

    recon = fit_layer(mapped)
    t_done = time.perf_counter()
    return LayerPrediction(
        layer=target,
        mapped_profiles=mapped,
        reconstruction=recon,
        elapsed=t_done - start,
        map_seconds=t_map - start,
        reconstruct_seconds=t_done - t_map,
    )


def predict_layer(model: MappingModel, dataset: WallDataset, layer: int) -> LayerPrediction:
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
    return predict_next_layer(model, measured, dataset.settings, dataset.schedule)


def predict_point(prediction: LayerPrediction, axial_distance: float,
                  settings: ProcessSettings) -> Profile:
    """Profile of any point on the predicted layer, at exactly that distance."""
    if not 0.0 <= axial_distance <= settings.layer_length:
        raise DomainError(
            f"axial_distance {axial_distance} outside 0..{settings.layer_length}"
        )
    return reconstruct_profile(
        prediction.reconstruction,
        PointId.from_distance(prediction.layer, axial_distance, settings.travel_speed))


def render_field(prediction: LayerPrediction, settings: ProcessSettings,
                 schedule: DwellSchedule, local_time: float,
                 n_positions: int = 160) -> FieldFrame:
    """Layer temperature field at a local time (seconds since the layer's
    print start).  Positions not yet reached by the nozzle hold room
    temperature; printed positions are evaluated on their reconstructed
    partial curves, located by cumulative curve durations.

    A frame is one array pass over all printed positions, with the same
    arithmetic as one ``np.interp`` call per position, so it gives the same
    bits.  Each position reads three samples of its reconstructed curves,
    the two around its time and the curve's last one, and only those are
    reconstructed; a frame holds about ``n_hidden`` (the ELM's hidden
    matrix) plus a few floats per position.  A non-finite ``local_time``,
    fewer than two positions, or a frame of more than ``MAX_WALL_VALUES``
    values (max(5·N, n_hidden) per position) raise DomainError before
    anything is allocated; a time past the five-curve horizon raises
    HorizonError."""
    if not math.isfinite(local_time) or local_time < 0.0:
        raise DomainError(f"local_time must be finite and >= 0, got {local_time}")
    if n_positions < 2:
        raise DomainError(f"n_positions must be >= 2, got {n_positions}")

    recon = prediction.reconstruction
    n = recon.n
    # the ELM's (P, n_hidden) hidden matrix outgrows 5·N values per position
    # when N is small
    held = n_positions * max(CURVES_PER_PROFILE * n, recon.elm.hidden_weights.size)
    if held > MAX_WALL_VALUES:
        raise DomainError(
            f"a frame of {n_positions} positions needs about {held:.3g} values, "
            f"more than the {MAX_WALL_VALUES} allowed; ask for fewer positions"
        )

    bounds, grids = recon.bounds, recon.grids  # (6,) and (5, N)
    horizon = bounds[-1]
    if local_time > horizon:
        raise HorizonError(
            f"local_time {local_time:.6g} s is beyond the five-curve horizon; "
            f"the maximum representable local time is {horizon:.6g} s"
        )

    positions = np.linspace(0.0, settings.layer_length, n_positions)
    temps = np.full(n_positions, ROOM_TEMPERATURE)
    deposit_times = positions / settings.travel_speed
    printed = local_time >= deposit_times
    lo, hi = recon.delay_range
    interior = printed & (deposit_times >= lo) & (deposit_times <= hi)
    if not printed.any():
        return FieldFrame(local_time, positions, temps, interior)

    delays = deposit_times[printed]
    elapsed = local_time - delays
    k = np.minimum(bounds.searchsorted(elapsed, side="right") - 1,
                   CURVES_PER_PROFILE - 1)
    x = elapsed - bounds[k]
    # np.interp's rule: grid[j] <= x < grid[j + 1], its slope formula, the
    # sample itself on a grid point, the last sample at or past the grid end
    j = np.empty(delays.size, dtype=np.intp)
    # positions come in deposit order, so their curve k never rises: the
    # curves in use are k[-1]..k[0]
    for curve in range(k[-1], k[0] + 1):
        on_curve = k == curve
        j[on_curve] = grids[curve].searchsorted(x[on_curve], side="right") - 1
    jj = np.minimum(j, n - 2)
    x0, x1 = grids[k, jj], grids[k, jj + 1]
    first = k * n  # row of curve k's first sample in the stacked 5N-vector
    f0, f1, last = reconstruct_stacked(
        recon, delays, np.stack([first + jj, first + jj + 1, first + n - 1]))
    values = np.where(x == x0, f0, (f1 - f0) / (x1 - x0) * (x - x0) + f0)
    temps[printed] = np.where(j == n - 1, last, values)
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


def _curve_temps(profiles: list[Profile], n: int) -> np.ndarray:
    """The profiles' curves as (5P, n) rows, in profile then curve order; no
    profiles give (0, n) rows.  A profile whose N is not ``n`` raises
    ShapeError."""
    sizes = sorted({p.n for p in profiles} - {n})
    if sizes:
        raise ShapeError(f"profiles have N {sizes}, expected {n}")
    return np.array([p.temps for p in profiles]).reshape(-1, n)


def _curve_rows(profiles: list[Profile], n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_curve_temps` and the curves' durations as 5P values in the
    same order."""
    return (_curve_temps(profiles, n),
            np.array([p.durations for p in profiles]).reshape(-1))


def _by_place(profiles: list[Profile], role: str) -> dict[tuple[int, float], Profile]:
    """Profiles keyed by (layer, place); a point named twice raises
    PairingError."""
    keyed = {}
    for p in profiles:
        key = (p.point.layer, p.point.place)
        if key in keyed:
            raise PairingError(f"the {role} name the point (layer, distance) {key} twice")
        keyed[key] = p
    return keyed


def evaluate(predictions: list[Profile], truth: list[Profile]) -> EvaluationReport:
    """REOP of each predicted profile against its matching truth point.

    Points match by layer and :attr:`~thermoseer.core.PointId.place`, and
    the two point sets must match one-to-one: a point missing from either
    list, or named twice in one, raises PairingError.  Truth curves are
    overlap-truncated to the predicted partial durations and N before
    scoring.  Predictions of mixed N, or truth of mixed N, raise ShapeError.
    """
    pred_map = _by_place(predictions, "predictions")
    truth_map = _by_place(truth, "truth profiles")
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


def _matched_points(wall: WallDataset, layers: Collection[int] | None):
    """``(i, lower, upper)`` for every source layer ``i`` of the wall, in
    ascending order, whose transition to ``i + 1`` has profiles at both ends
    (and both ends in ``layers`` when given): ``lower`` lists the profiles
    of layer ``i`` in axial order that have a profile of the same place on
    layer ``i + 1``, and ``upper`` those profiles, row-aligned."""
    available = set(wall.layers())
    sources = sorted(i for i in available if (i + 1) in available and (
        layers is None or (i in layers and (i + 1) in layers)))
    for i in sources:
        upper_by_place = {p.point.place: p for p in wall.profiles_on(i + 1)}
        lower = [p for p in wall.profiles_on(i) if p.point.place in upper_by_place]
        yield i, lower, [upper_by_place[p.point.place] for p in lower]


def _wall_list(walls: WallDataset | Iterable[WallDataset]) -> list[WallDataset]:
    """A WallDataset is one wall; any other iterable is a collection of walls."""
    return [walls] if isinstance(walls, WallDataset) else list(walls)


def count_curve_pairs(wall: WallDataset) -> int:
    """``len(extract_curve_pairs(wall))``, counted from the matched points
    alone: five curve pairs per point with a partner one layer up."""
    return CURVES_PER_PROFILE * sum(len(lower) for _, lower, _ in _matched_points(wall, None))


def extract_curve_pairs(walls: WallDataset | Iterable[WallDataset],
                        layers: Collection[int] | None = None) -> CurvePairs:
    """Supervised curve pairs of one wall or an iterable of walls, from every
    layer transition whose endpoints both carry profiles (restricted to
    transitions whose endpoints are both in ``layers`` when given; only a
    wall's own layers are looked up, so a ``range`` of any length is cheap).

    Rows come out ordered by wall, then source layer, then point (by axial
    distance), then curve index, so every consecutive run of five rows is
    one profile's curve set.  Walls that disagree on N raise ShapeError."""
    walls = _wall_list(walls)
    sizes = {wall.n for wall in walls}
    if len(sizes) != 1:
        raise ShapeError(f"walls must share one N, got N {sorted(sizes)}")
    n = sizes.pop()

    lower, upper, features = [], [], []
    for wall in walls:
        for i, low, up in _matched_points(wall, layers):
            lower += low
            upper += up
            features += [mapping_features(wall.settings, wall.schedule, i)] * len(low)

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
    rejected; only a non-finite one raises MetricError."""
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
    points.  ``train_data`` is one wall or an iterable of walls.

    On each test layer the odd-indexed points (first, third, ...) feed the
    mapping and the remaining points are reconstructed and scored, mirroring
    the measured-vs-reconstructed split of the online protocol.  Left out,
    ``test_layers`` is every layer of the test wall with a layer below it.
    Passing a pretrained ``model`` skips training.
    """
    walls = _wall_list(train_data)
    if test_layers is None:
        layers = test_data.layers()
        available = set(layers)
        test_layers = [l for l in layers if l - 1 in available]
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
