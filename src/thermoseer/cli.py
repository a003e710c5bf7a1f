"""Command-line interface and file formats.

Subcommands: ``generate`` (synthetic wall datasets), ``train`` / ``finetune``
(mapping-model checkpoints plus a loss CSV), ``predict`` (profiles of one
yet-to-print layer plus timing), ``eval`` (REOP report plus boxplot CSV),
and ``field`` (layer temperature-field CSV).

Datasets are JSON Lines with a header record.  A checkpoint (format version
2) is one UTF-8 JSON header line ended by ``\\n`` followed by one raw blob of
``8 * param_count`` bytes: the little-endian float64 values of ``w1, b1, ...,
w6, b6``, each weight matrix row-major.  Files are recognised by content, not
by extension.  All writes are whole-file atomic (fsynced unique temp file
then rename) and byte-stable: identical inputs and seeds produce
byte-identical files.

Exit codes: 0 ok, 2 config, 3 data (also a numeric failure such as a
diverging training loss), 4 checkpoint, 5 protocol, 6 horizon.  ``generate``
builds the walls of a multi-wall config one after another.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import typing
import uuid

import numpy as np

from .core import (
    CheckpointError,
    ConfigError,
    CoverageError,
    Curve,
    DomainError,
    DwellSchedule,
    HorizonError,
    MetricError,
    NumericsError,
    PairingError,
    PointId,
    ProcessSettings,
    Profile,
    ProtocolError,
    ShapeError,
    ThermoseerError,
    WallDataset,
    mapping_features,
    wire_deposition_rate,
)
from .mapping import MappingModel, TrainConfig, init_model, layer_dims, param_count, train
from .pipeline import evaluate, extract_curve_pairs, predict_layer, render_field
from .synthgen import SynthParams, generate_experiment_wall, generate_wall

DATASET_FORMAT = "thermoseer-dataset"
CHECKPOINT_FORMAT = "thermoseer-ckpt"
DATASET_VERSION = 1
CHECKPOINT_VERSION = 2
CHECKPOINT_DTYPE = "<f8"

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_PROTOCOL = 5
EXIT_HORIZON = 6


# --------------------------------------------------------------------------
# atomic file writes


def _atomic_write(path: str, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (``str`` is written as UTF-8) in one
    step: write a uniquely named temp file beside the target, fsync it, then
    rename it over the target.  The temp file is removed if any step fails.
    It is created with mode 0o666 less the umask, as ``open(path, "w")``
    would create the target."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


# --------------------------------------------------------------------------
# dataset format


def save_dataset(path: str, dataset: WallDataset, wall_id=1) -> None:
    """JSON Lines: one header record, then one record per point ordered by
    (layer, point index)."""
    buf = io.StringIO()
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "settings": dataclasses.asdict(dataset.settings),
        "schedule": list(dataset.schedule.dwell),
        "provenance": dataset.provenance,
    }
    buf.write(json.dumps(header) + "\n")
    for layer in dataset.layers():
        for index, prof in enumerate(dataset.profiles_on(layer), start=1):
            feats = mapping_features(dataset.settings, dataset.schedule, layer)
            record = {
                "wall_id": wall_id,
                "layer": layer,
                "point_index": index,
                "d_mm": prof.point.axial_distance,
                "t_rd_s": prof.point.relative_delay,
                "n": prof.n,
                "durations_s": list(prof.durations),
                "curves": [c.temps.tolist() for c in prof.curves],
                "features": {
                    "t_layer_s": feats.layer_print_time,
                    "dwell_s": feats.dwell_of_source_layer,
                    "dr_mm3s": feats.deposition_rate,
                    "h_mm": feats.relative_height,
                },
            }
            buf.write(json.dumps(record) + "\n")
    _atomic_write(path, buf.getvalue())


def load_dataset(path: str) -> WallDataset:
    """Read a dataset written by :func:`save_dataset`; every malformed file
    raises DomainError."""
    try:
        return _parse_dataset(path)
    except ThermoseerError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
        # ValueError covers UnicodeDecodeError and JSONDecodeError; deeply
        # nested JSON raises RecursionError
        raise DomainError(f"{path}: malformed dataset: {exc!r}") from exc


def _parse_dataset(path: str) -> WallDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise DomainError(f"{path}: empty dataset file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise DomainError(f"{path}: not a {DATASET_FORMAT} file")
    if header.get("version") != DATASET_VERSION:
        raise DomainError(f"{path}: unsupported dataset version {header.get('version')}")
    # a missing or unknown settings key is a TypeError
    settings = ProcessSettings(**header["settings"])
    schedule = DwellSchedule(tuple(header["schedule"]))
    profiles = {}
    for line in lines[1:]:
        rec = json.loads(line)
        point = PointId(rec["layer"], rec["d_mm"], rec["t_rd_s"])
        curves = tuple(
            Curve(np.array(rec["curves"][k]), rec["durations_s"][k], k + 1)
            for k in range(5)
        )
        profiles[point] = Profile(point, curves)
    return WallDataset(settings, schedule, profiles, header.get("provenance", {}))


# --------------------------------------------------------------------------
# checkpoint format


def save_checkpoint(path: str, model: MappingModel) -> None:
    """Format version 2: one UTF-8 JSON header line ended by ``\\n``, then
    exactly ``8 * param_count`` bytes of little-endian float64.

    The header holds ``format``, ``version``, ``n``, ``layer_widths``,
    ``dtype`` (``"<f8"``), ``param_count``, ``scaler``, ``seeds`` and
    ``training_meta``.  The payload holds ``w1, b1, ..., w6, b6`` back to
    back; each weight matrix is row-major, so entry [i, j] (input i to
    output j) sits at offset i * fan_out + j within its block."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "n": model.n,
        "layer_widths": layer_dims(model.n)[1:],
        "dtype": CHECKPOINT_DTYPE,
        "param_count": param_count(model),
        "scaler": {
            "temp_scale": model.temp_scale,
            "feature_mean": model.feature_mean.tolist(),
            "feature_std": model.feature_std.tolist(),
            "fitted": model.scaler_fitted,
        },
        "seeds": {"init": model.seed},
        "training_meta": model.training_meta,
    }
    payload = model.params.astype(CHECKPOINT_DTYPE, copy=False).tobytes()
    _atomic_write(path, json.dumps(header).encode("utf-8") + b"\n" + payload)


def _header_key(table: dict, key: str, kind, path: str):
    """``table[key]`` if it is an instance of ``kind`` (never a bool unless
    ``kind`` is bool), else a CheckpointError."""
    value = table.get(key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise CheckpointError(f"{path}: header key {key!r} is missing or mistyped")
    return value


def _header_vector(table: dict, key: str, path: str) -> np.ndarray:
    """A list of four finite floats from the scaler block."""
    value = _header_key(table, key, list, path)
    if len(value) != 4 or not all(isinstance(v, float) for v in value):
        raise CheckpointError(f"{path}: scaler {key!r} must hold 4 floats")
    vector = np.array(value, dtype=np.float64)
    if not np.all(np.isfinite(vector)):
        raise CheckpointError(f"{path}: scaler {key!r} is not finite")
    return vector


def load_checkpoint(path: str) -> MappingModel:
    """Read a version-2 checkpoint (see :func:`save_checkpoint`).  The
    payload becomes the model's writable float64 ``params`` vector; every
    malformed file raises CheckpointError."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n")
    if end < 0:
        raise CheckpointError(f"{path}: no header line")
    try:
        header = json.loads(data[:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise CheckpointError(f"{path}: header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {header.get('version')}"
        )
    n = _header_key(header, "n", int, path)
    if n < 2:
        raise CheckpointError(f"{path}: n must be >= 2, got {n}")
    if _header_key(header, "layer_widths", list, path) != layer_dims(n)[1:]:
        raise CheckpointError(f"{path}: layer widths do not match N={n}")
    if _header_key(header, "dtype", str, path) != CHECKPOINT_DTYPE:
        raise CheckpointError(f"{path}: dtype must be {CHECKPOINT_DTYPE!r}, "
                              f"got {header['dtype']!r}")
    count = _header_key(header, "param_count", int, path)
    scaler = _header_key(header, "scaler", dict, path)
    feature_mean = _header_vector(scaler, "feature_mean", path)
    feature_std = _header_vector(scaler, "feature_std", path)
    temp_scale = _header_key(scaler, "temp_scale", float, path)
    if not (np.all(feature_std > 0.0) and np.isfinite(temp_scale) and temp_scale > 0.0):
        raise CheckpointError(f"{path}: scaler scales must be positive and finite")
    fitted = _header_key(scaler, "fitted", bool, path)
    seed = _header_key(_header_key(header, "seeds", dict, path), "init", int, path)
    training_meta = _header_key(header, "training_meta", dict, path)

    payload = memoryview(data)[end + 1:]
    if len(payload) != 8 * count:
        raise CheckpointError(f"{path}: payload holds {len(payload)} bytes, "
                              f"expected {8 * count}")
    # astype copies into an aligned, writable, native-order vector
    flat = np.frombuffer(payload, dtype=CHECKPOINT_DTYPE).astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise CheckpointError(f"{path}: payload holds non-finite values")
    try:
        return MappingModel(
            n=n,
            params=flat,
            feature_mean=feature_mean,
            feature_std=feature_std,
            scaler_fitted=fitted,
            seed=seed,
            temp_scale=temp_scale,
            training_meta=training_meta,
        )
    except ShapeError as exc:  # param_count does not fit N
        raise CheckpointError(f"{path}: {exc}") from exc


# --------------------------------------------------------------------------
# flat key=value config


def parse_config(path: str) -> dict[str, str]:
    table: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, value = line.split("=", 1)
                table[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return table


def _field_types(cls) -> dict[str, type]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


_EXPERIMENT_KEYS = {"jitter_mm": float, "sample_period": float, "rise_threshold": float}
_GENERATE_KEYS = {
    "style": str, "wall_id": int,
    "points_per_layer": int, "spacing_mm": float, "n": int,
    **_field_types(ProcessSettings),
    **_field_types(SynthParams),
    **_EXPERIMENT_KEYS,
}


def _typed(table: dict[str, str], types: dict[str, type], context: str) -> dict:
    out = {}
    for key, raw in table.items():
        if key not in types:
            raise ConfigError(f"{context}: unknown key {key!r}")
        try:
            out[key] = types[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{context}: key {key!r}: {exc}") from exc
    return out


def _split_wall_overrides(table: dict[str, str]):
    shared, walls = {}, {}
    for key, value in table.items():
        if key.startswith("wall."):
            parts = key.split(".", 2)
            if len(parts) != 3 or not parts[1].isdigit():
                raise ConfigError(f"config: malformed wall override key {key!r}")
            walls.setdefault(int(parts[1]), {})[parts[2]] = value
        else:
            shared[key] = value
    return shared, walls


def _build_generation(values: dict):
    if "seed" not in values:
        raise ConfigError("config: required key 'seed' is missing")
    style = values.get("style", "simulation")
    if style not in ("simulation", "experiment"):
        raise ConfigError(f"config: style must be simulation or experiment, got {style!r}")

    travel_speed = values.get("travel_speed", 8.0)
    wire_feed_rate = values.get("wire_feed_rate", 3.0)
    wire_diameter = values.get("wire_diameter", 1.2)
    settings = ProcessSettings.build(
        travel_speed=travel_speed,
        wire_feed_rate=wire_feed_rate,
        wire_diameter=wire_diameter,
        layer_length=values.get("layer_length", 160.0),
        layer_thickness=values.get("layer_thickness", 1.5),
        num_layers=values.get("num_layers", 40),
        interpass_target=values.get("interpass_target", 200.0),
        layer_print_time=values.get("layer_print_time"),
        deposition_rate=values.get(
            "deposition_rate", wire_deposition_rate(wire_feed_rate, wire_diameter)),
    )
    params = SynthParams(**{k: values[k] for k in _field_types(SynthParams) if k in values})
    extra = {}
    if style == "experiment":
        extra = {k: values[k] for k in _EXPERIMENT_KEYS if k in values}
    return style, settings, params, {
        "points_per_layer": values.get("points_per_layer", 7),
        "n": values.get("n", 100),
        "spacing_mm": values.get("spacing_mm"),
        **extra,
    }, values.get("wall_id", 1)


def _generate_one(style, settings, params, kwargs):
    if style == "experiment":
        return generate_experiment_wall(settings, params, **kwargs)
    kwargs = {k: v for k, v in kwargs.items()
              if k in ("points_per_layer", "n", "spacing_mm")}
    return generate_wall(settings, params, **kwargs)


def cmd_generate(args) -> int:
    table = parse_config(args.config)
    shared, wall_tables = _split_wall_overrides(table)
    shared = _typed(shared, _GENERATE_KEYS, "config")
    wall_ids = sorted(wall_tables) or [shared.get("wall_id", 1)]
    if len(wall_ids) > 1 and "{id}" not in args.out:
        raise ConfigError("config defines multiple walls: --out needs an {id} placeholder")

    plans = []
    for wall_id in wall_ids:
        values = dict(shared)
        values.update(_typed(wall_tables.get(wall_id, {}), _GENERATE_KEYS,
                             f"config wall.{wall_id}"))
        values.setdefault("wall_id", wall_id)
        plans.append((wall_id, _build_generation(values)))

    for wall_id, (style, settings, params, kwargs, rec_id) in plans:
        dataset = _generate_one(style, settings, params, kwargs)
        path = args.out.replace("{id}", str(wall_id))
        save_dataset(path, dataset, wall_id=rec_id)
        pairs = len(extract_curve_pairs(dataset))
        print(f"wall {wall_id}: {len(dataset.layers())} profiled layers, "
              f"{len(dataset.profiles)} points, {pairs} curve pairs -> {path}")
    print(f"{len(plans)} wall(s) written")
    return 0


# --------------------------------------------------------------------------
# training commands

_TRAIN_KEYS = {
    "epochs": int, "batch_size": int, "lr": float, "seed": int,
    "init_seed": int, "layers": str, "data": str, "out": str, "loss_csv": str,
}


def _merge_train_options(args):
    values = {}
    if args.config:
        values = _typed(parse_config(args.config), _TRAIN_KEYS, "config")
    for key in _TRAIN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _parse_layer_range(spec: str) -> list[int]:
    try:
        lo, hi = spec.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--layers expects START:END, got {spec!r}")
    if hi < lo:
        raise ConfigError(f"--layers range is empty: {spec!r}")
    return list(range(lo, hi + 1))


def _load_training_data(paths, layer_spec):
    datasets = [load_dataset(p) for p in paths]
    sizes = {d.n for d in datasets}
    if len(sizes) != 1:
        raise ShapeError(f"datasets disagree on N: {sorted(sizes)}")
    layers = _parse_layer_range(layer_spec) if layer_spec else None
    samples = []
    for d in datasets:
        samples.extend(extract_curve_pairs(d, layers))
    if not samples:
        raise ShapeError("no curve pairs in the given datasets/layer range")
    return datasets, samples


def _write_loss_csv(path, history):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "loss"])
    for epoch, loss in enumerate(history, start=1):
        writer.writerow([epoch, repr(loss)])
    _atomic_write(path, buf.getvalue())


def _train_config(values) -> TrainConfig:
    return TrainConfig(
        epochs=values.get("epochs", 500),
        batch_size=values.get("batch_size", 256),
        initial_lr=values.get("lr", 0.001),
        seed=values.get("seed", 0),
    )


def cmd_train(args) -> int:
    values = _merge_train_options(args)
    paths = args.data or values.get("data", "").split(",")
    datasets, samples = _load_training_data(paths, values.get("layers"))
    config = _train_config(values)
    model = init_model(datasets[0].n, seed=values.get("init_seed", 0))
    trained, history = train(model, samples, config)
    save_checkpoint(args.out, trained)
    if args.loss_csv:
        _write_loss_csv(args.loss_csv, history)
    print(f"trained on {len(samples)} curve pairs for {config.epochs} epochs "
          f"-> {args.out}")
    return 0


def cmd_finetune(args) -> int:
    values = _merge_train_options(args)
    pretrained = load_checkpoint(args.ckpt)
    paths = args.data or values.get("data", "").split(",")
    datasets, samples = _load_training_data(paths, values.get("layers"))
    if datasets[0].n != pretrained.n:
        raise ShapeError(
            f"checkpoint N={pretrained.n} does not match dataset N={datasets[0].n}")
    config = _train_config(values)
    # fine-tuning is the same procedure continued from the loaded weights
    tuned, history = train(pretrained, samples, config)
    save_checkpoint(args.out, tuned)
    if args.loss_csv:
        _write_loss_csv(args.loss_csv, history)
    print(f"fine-tuned on {len(samples)} curve pairs for {config.epochs} epochs "
          f"-> {args.out}")
    return 0


# --------------------------------------------------------------------------
# prediction, evaluation, fields


def cmd_predict(args) -> int:
    model = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    prediction = predict_layer(model, dataset, args.layer, recon_seed=args.seed)
    predicted = WallDataset(
        dataset.settings, dataset.schedule,
        {p.point: p for p in prediction.mapped_profiles},
        {"kind": "prediction", "source": args.data, "layer": args.layer,
         "checkpoint": args.ckpt},
    )
    save_dataset(args.out, predicted,
                 wall_id=dataset.provenance.get("wall_id", 1))
    timing = {
        "map_seconds": prediction.map_seconds,
        "reconstruct_seconds": prediction.reconstruct_seconds,
        "total_seconds": prediction.elapsed,
    }
    if args.timing:
        _atomic_write(args.timing, json.dumps(timing) + "\n")
    print(f"predicted layer {args.layer} ({len(prediction.mapped_profiles)} points) "
          f"in {prediction.elapsed:.4f} s -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    predicted = load_dataset(args.pred)
    truth = load_dataset(args.truth)
    pred_profiles = list(predicted.profiles.values())
    truth_profiles = []
    for prof in pred_profiles:
        match = [p for p in truth.profiles_on(prof.point.layer)
                 if abs(p.point.axial_distance - prof.point.axial_distance) < 1e-9]
        truth_profiles.extend(match)
    report = evaluate(pred_profiles, truth_profiles)

    doc = {"per_layer": {
        str(layer): {"count": s.count, "median": s.median, "max": s.maximum,
                     "q1": s.q1, "q3": s.q3}
        for layer, s in report.per_layer.items()
    }}
    _atomic_write(args.out, json.dumps(doc) + "\n")

    if args.csv:
        index_of = {}
        for layer in predicted.layers():
            for idx, prof in enumerate(predicted.profiles_on(layer), start=1):
                index_of[(layer, round(prof.point.axial_distance, 9))] = idx
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["layer", "point", "reop"])
        for point, value in report.per_point:
            idx = index_of[(point.layer, round(point.axial_distance, 9))]
            writer.writerow([point.layer, idx, repr(value)])
        _atomic_write(args.csv, buf.getvalue())

    medians = {layer: s.median for layer, s in report.per_layer.items()}
    print(f"evaluated {len(report.per_point)} profiles; per-layer medians: {medians}")
    return 0


def cmd_field(args) -> int:
    model = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    try:
        times = [float(t) for t in args.times.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"--times expects comma-separated seconds, got {args.times!r}")
    if not times:
        raise ConfigError("--times lists no time values")

    prediction = predict_layer(model, dataset, args.layer, recon_seed=args.seed)
    frames = [render_field(prediction, dataset.settings, dataset.schedule, t,
                           n_positions=args.positions) for t in times]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["local_time_s", "position_mm", "temp_c", "interior"])
    for frame in frames:
        for pos, temp, inner in zip(frame.positions, frame.temps, frame.interior):
            writer.writerow([repr(frame.local_time), repr(float(pos)),
                             repr(float(temp)), int(inner)])
    _atomic_write(args.out, buf.getvalue())
    print(f"rendered {len(frames)} field frame(s) of layer {args.layer} -> {args.out}")
    return 0


# --------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoseer",
        description="Online thermal-field prediction for thin walls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate synthetic wall dataset(s)")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--out", required=True,
                   help="output path; use {id} with multi-wall configs")
    p.set_defaults(func=cmd_generate)

    for name, func, needs_ckpt in (("train", cmd_train, False),
                                   ("finetune", cmd_finetune, True)):
        p = sub.add_parser(name, help=f"{name} the mapping model")
        if needs_ckpt:
            p.add_argument("--ckpt", required=True, help="pretrained checkpoint")
        p.add_argument("--data", nargs="*", help="dataset file(s)")
        p.add_argument("--out", required=True, help="output checkpoint path")
        p.add_argument("--loss-csv", dest="loss_csv", help="per-epoch loss CSV")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--init-seed", dest="init_seed", type=int)
        p.add_argument("--layers", help="layer range START:END for curve pairs")
        p.set_defaults(func=func)

    p = sub.add_parser("predict", help="predict one yet-to-print layer")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--out", required=True, help="predicted-profiles dataset path")
    p.add_argument("--timing", help="timing JSON path")
    p.add_argument("--seed", type=int, default=0, help="online ELM seed")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predicted profiles against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", help="boxplot CSV path (layer,point,reop)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("field", help="render layer temperature fields")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--times", required=True, help="comma-separated local times, s")
    p.add_argument("--out", required=True, help="field CSV path")
    p.add_argument("--positions", type=int, default=160)
    p.add_argument("--seed", type=int, default=0, help="online ELM seed")
    p.set_defaults(func=cmd_field)

    return parser


_EXIT_BY_ERROR = (
    (ConfigError, EXIT_CONFIG),
    (CheckpointError, EXIT_CHECKPOINT),
    (HorizonError, EXIT_HORIZON),
    (ProtocolError, EXIT_PROTOCOL),
    ((ShapeError, DomainError, CoverageError, PairingError, MetricError, NumericsError),
     EXIT_DATA),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        for errors, code in _EXIT_BY_ERROR:
            if isinstance(exc, errors):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
