"""Command-line interface and file formats.

Subcommands: ``generate`` (synthetic wall datasets), ``train`` / ``finetune``
(mapping-model checkpoints plus a loss CSV), ``predict`` (profiles of one
yet-to-print layer plus timing), ``eval`` (REOP report plus boxplot CSV),
and ``field`` (layer temperature-field CSV).

Datasets (format version 2) and checkpoints (format version 3) share one
container: a UTF-8 JSON header line ended by ``\\n`` within the first MiB,
then one raw blob of little-endian floats whose dtype (``<f8`` or ``<f4``)
the header names and whose count it implies.  A dataset row holds one point
(layer, axial distance, five curve durations, five curves) in ``<f8``; the
checkpoint blob is the mapping net's parameter vector in its own dtype,
``<f4`` for a trained model and ``<f8`` for an untrained one.  Nothing that
follows from the rest of a file is stored.  Files are recognised by content,
not by extension.  All writes are whole-file atomic (fsynced unique temp
file then rename) and byte-stable: identical inputs and seeds produce
byte-identical files.

Exit codes live on the error classes (``ThermoseerError.exit_code``): 0 ok,
2 config, 3 data (also a numeric failure such as a diverging training loss,
and an unreadable or unwritable file), 4 checkpoint, 5 protocol, 6 horizon.
``generate`` builds every wall of a multi-wall config before it writes any.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import sys
import typing
import uuid

import numpy as np

from .core import (
    CURVES_PER_PROFILE,
    CheckpointError,
    ConfigError,
    DomainError,
    DwellSchedule,
    PointId,
    ProcessSettings,
    Profile,
    ShapeError,
    ThermoseerError,
    WallDataset,
)
from .mapping import MappingModel, TrainConfig, init_model, layer_dims, param_count, train
from .pipeline import evaluate, extract_curve_pairs, predict_layer, render_field
from .synthgen import MAX_WALL_VALUES, SynthParams, generate_experiment_wall, generate_wall

HEADER_LINE_LIMIT = 1 << 20  # a header line's "\n" comes within this many bytes
# kind of file -> (format name, version, error class of a malformed file,
# payload dtypes it may hold)
_CONTAINERS = {
    "dataset": ("thermoseer-dataset", 2, DomainError, ("<f8",)),
    "checkpoint": ("thermoseer-ckpt", 3, CheckpointError, ("<f4", "<f8")),
}


# --------------------------------------------------------------------------
# atomic file writes


@contextlib.contextmanager
def _atomic_file(path: str) -> typing.Iterator[typing.BinaryIO]:
    """A binary file that replaces ``path`` in one step when the block ends:
    writes go to a uniquely named temp file beside the target, which is
    fsynced, then renamed over the target.  The temp file is removed if the
    block or any step fails.  It is created with mode 0o666 less the umask,
    as ``open(path, "w")`` would create the target."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _atomic_write(path: str, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (``str`` is written as UTF-8) in one
    step, through :func:`_atomic_file`."""
    with _atomic_file(path) as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def _write_csv(path: str, header: list[str], rows) -> None:
    """One UTF-8 CSV file with ``\\n`` line ends, written atomically.  Rows
    are written as ``rows`` yields them, so a generator's rows are never all
    held at once."""
    with _atomic_file(path) as fh:
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text.detach()  # flushes into fh, which _atomic_file syncs and closes


# --------------------------------------------------------------------------
# file container: one JSON header line plus one raw float payload


def _header_key(table: dict, key: str, kind, path: str, error=CheckpointError):
    """``table[key]`` if it is an instance of ``kind`` (never a bool unless
    ``kind`` is bool), else ``error``."""
    value = table.get(key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise error(f"{path}: header key {key!r} is missing or mistyped")
    return value


def _write_container(path: str, kind: str, header: dict, values: np.ndarray) -> None:
    """One UTF-8 JSON header line (``format`` and ``version`` of ``kind``,
    the little-endian ``dtype`` of ``values``, then ``header``) ended by
    ``\\n``, then ``values`` as raw little-endian floats of that dtype.  A
    dtype ``kind`` does not hold, or a header that :func:`_read_container`
    would reject for its length, is refused, so every written file reads
    back."""
    fmt, version, error, dtypes = _CONTAINERS[kind]
    dtype = values.dtype.newbyteorder("<").str
    if dtype not in dtypes:
        raise error(f"{path}: a {kind} payload is one of {dtypes}, got {dtype}")
    line = json.dumps({"format": fmt, "version": version, "dtype": dtype,
                       **header}).encode("utf-8")
    if len(line) >= HEADER_LINE_LIMIT:
        raise error(f"{path}: {kind} header of {len(line)} bytes exceeds "
                    f"{HEADER_LINE_LIMIT - 1}")
    payload = np.ascontiguousarray(values, dtype=dtype)
    with _atomic_file(path) as fh:
        fh.write(line + b"\n")
        fh.write(payload)  # the array's own buffer, not a copy


def _read_container(path: str, kind: str, shape_of) -> tuple[dict, np.ndarray]:
    """``(header, values)`` of a file :func:`_write_container` wrote, where
    ``shape_of(header)`` is the payload shape the header implies; ``values``
    is an aligned, writable, finite array of the header's dtype in native
    byte order.  Every malformed file raises the error class of ``kind``."""
    fmt, version, error, dtypes = _CONTAINERS[kind]
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n", 0, HEADER_LINE_LIMIT)
    if end < 0:
        raise error(f"{path}: no header line in the first {HEADER_LINE_LIMIT} bytes")
    try:
        header = json.loads(data[:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise error(f"{path}: header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise error(f"{path}: not a {fmt} file")
    if header.get("version") != version:
        raise error(f"{path}: unsupported {kind} version {header.get('version')}")
    dtype = _header_key(header, "dtype", str, path, error)
    if dtype not in dtypes:
        raise error(f"{path}: a {kind} dtype is one of {dtypes}, got {dtype!r}")
    dtype = np.dtype(dtype)
    shape = shape_of(header)
    payload = memoryview(data)[end + 1:]
    if min(shape) < 0 or len(payload) != dtype.itemsize * math.prod(shape):
        raise error(f"{path}: payload holds {len(payload)} bytes, the header "
                    f"implies {dtype.str} values of shape {shape}")
    # astype copies into an aligned, writable, native-order array
    values = np.frombuffer(payload, dtype=dtype).astype(dtype.newbyteorder("=")).reshape(shape)
    if not np.all(np.isfinite(values)):
        raise error(f"{path}: payload holds non-finite values")
    return header, values


# --------------------------------------------------------------------------
# dataset format

_ROW_HEAD = 2 + CURVES_PER_PROFILE  # a row's layer, d_mm and five durations


def save_dataset(path: str, dataset: WallDataset) -> None:
    """Format version 2 of the shared container (:func:`_write_container`).
    The header holds ``settings``, ``schedule``, ``provenance``, ``wall_id``,
    ``n`` and ``points``.  The payload holds one row of ``7 + 5 * n`` values
    per point, in the order of ``dataset.profiles`` (by layer, then axial
    distance): ``layer, d_mm``, the five curve durations, then the five
    curves' temperatures.  What follows from these (relative delay, place on
    the layer, mapping features) is not stored."""
    rows = np.empty((len(dataset.profiles), _ROW_HEAD + CURVES_PER_PROFILE * dataset.n))
    for row, prof in zip(rows, dataset.profiles):
        row[:2] = prof.point.layer, prof.point.axial_distance
        row[2:_ROW_HEAD] = prof.durations
        row[_ROW_HEAD:] = prof.temps.reshape(-1)
    header = {
        "settings": dataclasses.asdict(dataset.settings),
        "schedule": list(dataset.schedule.dwell),
        "provenance": dataset.provenance,
        "wall_id": dataset.wall_id,
        "n": dataset.n,
        "points": len(rows),
    }
    _write_container(path, "dataset", header, rows)


def load_dataset(path: str) -> WallDataset:
    """Read a version-2 dataset (see :func:`save_dataset`); every malformed
    file raises a data error (exit code 3) whose message names the file,
    also one that lists a point twice (:class:`WallDataset` refuses it)."""
    header, rows = _read_container(path, "dataset", lambda header: (
        _header_key(header, "points", int, path, DomainError),
        _ROW_HEAD + CURVES_PER_PROFILE * _header_key(header, "n", int, path, DomainError)))
    provenance = _header_key(header, "provenance", dict, path, DomainError)
    wall_id = _header_key(header, "wall_id", int, path, DomainError)
    try:
        # a missing or unknown settings key is a TypeError
        settings = ProcessSettings(**header["settings"])
        schedule = DwellSchedule(tuple(header["schedule"]))
        profiles = []
        for row in rows:
            layer, d_mm, *durations = row[:_ROW_HEAD].tolist()
            if layer != int(layer):
                raise DomainError(f"layer {layer!r} is not an integer")
            point = PointId.from_distance(int(layer), d_mm, settings.travel_speed)
            profiles.append(Profile(point, row[_ROW_HEAD:].reshape(CURVES_PER_PROFILE, -1),
                                    durations))
        return WallDataset(settings, schedule, profiles, provenance, wall_id)
    except ThermoseerError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{path}: malformed dataset: {exc!r}") from exc


# --------------------------------------------------------------------------
# checkpoint format


def save_checkpoint(path: str, model: MappingModel) -> None:
    """Format version 3 of the shared container (:func:`_write_container`).
    The header holds ``n``, ``layer_widths``, ``param_count``, ``scaler``
    (``feature_mean``, ``feature_std``, ``fitted``), ``seeds`` and
    ``training_meta``.  The payload is the ``param_count`` values of ``w1,
    b1, ..., w6, b6`` back to back, in the dtype of ``model.params``
    (``<f4`` for a trained model, ``<f8`` for an untrained one); each weight
    matrix is row-major, so entry [i, j] (input i to output j) sits at
    offset i * fan_out + j within its block."""
    header = {
        "n": model.n,
        "layer_widths": layer_dims(model.n)[1:],
        "param_count": param_count(model),
        "scaler": {
            "feature_mean": model.feature_mean.tolist(),
            "feature_std": model.feature_std.tolist(),
            "fitted": model.scaler_fitted,
        },
        "seeds": {"init": model.seed},
        "training_meta": model.training_meta,
    }
    _write_container(path, "checkpoint", header, model.params)


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
    """Read a version-3 checkpoint (see :func:`save_checkpoint`).  The
    payload becomes the model's writable ``params`` vector, bit for bit in
    the file's dtype (float32 for ``<f4``, float64 for ``<f8``); every
    malformed file raises CheckpointError."""
    header, flat = _read_container(
        path, "checkpoint", lambda header: (_header_key(header, "param_count", int, path),))
    n = _header_key(header, "n", int, path)
    if n < 2:
        raise CheckpointError(f"{path}: n must be >= 2, got {n}")
    if _header_key(header, "layer_widths", list, path) != layer_dims(n)[1:]:
        raise CheckpointError(f"{path}: layer widths do not match N={n}")
    scaler = _header_key(header, "scaler", dict, path)
    feature_mean = _header_vector(scaler, "feature_mean", path)
    feature_std = _header_vector(scaler, "feature_std", path)
    if not np.all(feature_std > 0.0):
        raise CheckpointError(f"{path}: scaler feature_std must be positive")
    try:
        return MappingModel(
            n=n,
            params=flat,
            feature_mean=feature_mean,
            feature_std=feature_std,
            scaler_fitted=_header_key(scaler, "fitted", bool, path),
            seed=_header_key(_header_key(header, "seeds", dict, path), "init", int, path),
            training_meta=_header_key(header, "training_meta", dict, path),
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


def _seed(text: str) -> int:
    """A seed option or config value: an int >= 0, as numpy's generators need.
    Raises ArgumentTypeError, whose message argparse prints as it stands."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"a seed must be an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"a seed must be >= 0, got {text!r}")
    return seed


# keyword arguments of generate_wall; generate_experiment_wall takes these too
_WALL_KEYS = {"points_per_layer": int, "spacing_mm": float, "n": int}
_EXPERIMENT_KEYS = {"jitter_mm": float, "sample_period": float, "rise_threshold": float}
_GENERATE_KEYS = {
    "style": str, "wall_id": int,
    **_WALL_KEYS,
    **_field_types(ProcessSettings),
    **_field_types(SynthParams), "seed": _seed,
    **_EXPERIMENT_KEYS,
}


def _typed(table: dict[str, str], types: dict[str, type], context: str) -> dict:
    out = {}
    for key, raw in table.items():
        if key not in types:
            raise ConfigError(f"{context}: unknown key {key!r}")
        try:
            out[key] = types[key](raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
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


# the arguments ProcessSettings.build requires; other keys keep their owners' defaults
_BUILD_DEFAULTS = {"travel_speed": 8.0, "wire_feed_rate": 3.0, "layer_length": 160.0,
                   "layer_thickness": 1.5, "num_layers": 40}


def _given(values: dict, keys) -> dict:
    return {k: values[k] for k in keys if k in values}


def _build_generation(values: dict):
    """``(generator, settings, params, kwargs)`` of one wall's typed config
    values; the wall is ``generator(settings, params, **kwargs)``."""
    if "seed" not in values:
        raise ConfigError("config: required key 'seed' is missing")
    style = values.get("style", "simulation")
    if style not in ("simulation", "experiment"):
        raise ConfigError(f"config: style must be simulation or experiment, got {style!r}")
    settings = ProcessSettings.build(
        **{**_BUILD_DEFAULTS, **_given(values, _field_types(ProcessSettings))})
    params = SynthParams(**_given(values, _field_types(SynthParams)))
    if style == "experiment":
        generator, keys = generate_experiment_wall, {**_WALL_KEYS, **_EXPERIMENT_KEYS}
    else:
        generator, keys = generate_wall, _WALL_KEYS
    return generator, settings, params, {"points_per_layer": 7, **_given(values, keys)}


def cmd_generate(args) -> int:
    table = parse_config(args.config)
    shared, wall_tables = _split_wall_overrides(table)
    shared = _typed(shared, _GENERATE_KEYS, "config")
    wall_ids = sorted(wall_tables) or [shared.get("wall_id", 1)]
    if len(wall_ids) > 1 and "{id}" not in args.out:
        raise ConfigError("config defines multiple walls: --out needs an {id} placeholder")
    if len(wall_ids) > 1 and "wall_id" in shared:
        raise ConfigError("config defines multiple walls: a shared 'wall_id' key "
                          "would give them all one id")

    plans = []
    for wall_id in wall_ids:
        values = {"wall_id": wall_id, **shared,
                  **_typed(wall_tables.get(wall_id, {}), _GENERATE_KEYS,
                           f"config wall.{wall_id}")}
        plans.append((wall_id, values["wall_id"], _build_generation(values)))

    # every wall is generated before any is written, so a wall that fails
    # leaves no file of the others behind
    datasets = [(wall_id, dataclasses.replace(generator(settings, params, **kwargs),
                                              wall_id=record_id))
                for wall_id, record_id, (generator, settings, params, kwargs) in plans]
    for wall_id, dataset in datasets:
        path = args.out.replace("{id}", str(wall_id))
        save_dataset(path, dataset)
        pairs = len(extract_curve_pairs(dataset))
        print(f"wall {wall_id}: {len(dataset.layers())} profiled layers, "
              f"{len(dataset.profiles)} points, {pairs} curve pairs -> {path}")
    print(f"{len(plans)} wall(s) written")
    return 0


# --------------------------------------------------------------------------
# training commands

# config keys of train/finetune; each is also a flag (--batch-size for batch_size)
_TRAIN_KEYS = {
    "epochs": int, "batch_size": int, "lr": float, "seed": _seed,
    "init_seed": _seed, "layers": str, "data": str, "out": str, "loss_csv": str,
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


def _parse_layer_range(spec: str) -> range:
    """Layers START to END inclusive; a range holds its bounds, not its
    layers, so any END costs the same."""
    try:
        lo, hi = spec.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--layers expects START:END, got {spec!r}")
    if lo < 1:
        raise ConfigError(f"--layers START must be >= 1 (layers count from 1), got {spec!r}")
    if hi < lo:
        raise ConfigError(f"--layers range is empty: {spec!r}")
    return range(lo, hi + 1)


def _load_training_data(paths, layer_spec):
    datasets = [load_dataset(p) for p in paths]
    layers = _parse_layer_range(layer_spec) if layer_spec else None
    pairs = extract_curve_pairs(datasets, layers)
    if not len(pairs):
        raise ShapeError("no curve pairs in the given datasets/layer range")
    return datasets, pairs


def _train_config(values) -> TrainConfig:
    """``lr`` sets ``initial_lr``; a field whose key is not given keeps its
    default, and a value TrainConfig refuses is an option error."""
    fields = {"epochs": "epochs", "batch_size": "batch_size", "lr": "initial_lr", "seed": "seed"}
    try:
        return TrainConfig(**{fields[key]: values[key] for key in fields if key in values})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_train(args) -> int:
    """``train`` from a fresh model or ``finetune`` from ``--ckpt``; a flag
    wins over its config key."""
    values = _merge_train_options(args)
    for key in ("out", "data"):
        if key not in values:
            raise ConfigError(f"{args.command}: give --{key} or a {key!r} config key")
    config = _train_config(values)
    paths = values["data"]
    if isinstance(paths, str):
        paths = paths.split(",")
    datasets, pairs = _load_training_data(paths, values.get("layers"))
    if args.command == "finetune":
        # fine-tuning is the same procedure continued from the loaded weights
        model, verb = load_checkpoint(args.ckpt), "fine-tuned"
    else:
        model, verb = init_model(datasets[0].n, seed=values.get("init_seed", 0)), "trained"
    trained, history = train(model, pairs, config)
    save_checkpoint(values["out"], trained)
    if "loss_csv" in values:
        _write_csv(values["loss_csv"], ["epoch", "loss"],
                   ([epoch, repr(loss)] for epoch, loss in enumerate(history, start=1)))
    print(f"{verb} on {len(pairs)} curve pairs for {config.epochs} epochs "
          f"-> {values['out']}")
    return 0


# --------------------------------------------------------------------------
# prediction, evaluation, fields


def cmd_predict(args) -> int:
    model = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    prediction = predict_layer(model, dataset, args.layer, recon_seed=args.seed)
    predicted = WallDataset(
        dataset.settings, dataset.schedule, prediction.mapped_profiles,
        {"kind": "prediction", "source": args.data, "layer": args.layer,
         "checkpoint": args.ckpt},
        wall_id=dataset.wall_id,
    )
    save_dataset(args.out, predicted)
    if args.timing:
        timing = {
            "map_seconds": prediction.map_seconds,
            "reconstruct_seconds": prediction.reconstruct_seconds,
            "total_seconds": prediction.elapsed,
        }
        _atomic_write(args.timing, json.dumps(timing) + "\n")
    print(f"predicted layer {args.layer} ({len(prediction.mapped_profiles)} points) "
          f"in {prediction.elapsed:.4f} s -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    predicted = load_dataset(args.pred)
    truth = load_dataset(args.truth)
    wanted = {(p.point.layer, p.point.place) for p in predicted.profiles}
    report = evaluate(predicted.profiles, [p for p in truth.profiles
                                           if (p.point.layer, p.point.place) in wanted])

    doc = {"per_layer": {
        str(layer): {"count": s.count, "median": s.median, "max": s.maximum,
                     "q1": s.q1, "q3": s.q3}
        for layer, s in report.per_layer.items()
    }}
    _atomic_write(args.out, json.dumps(doc) + "\n")

    if args.csv:
        # per_point is ordered by layer, then axial distance: a point's index
        # is its place on its layer
        rows, places = [], {}
        for point, value in report.per_point:
            places[point.layer] = places.get(point.layer, 0) + 1
            rows.append([point.layer, places[point.layer], repr(value)])
        _write_csv(args.csv, ["layer", "point", "reop"], rows)

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
    # bounds the frames' total work and the size of their CSV
    values = len(times) * CURVES_PER_PROFILE * model.n * args.positions
    if values > MAX_WALL_VALUES:
        raise ConfigError(f"{len(times)} frames of {args.positions} positions need about "
                          f"{values:.3g} curve values, more than the {MAX_WALL_VALUES} "
                          f"allowed; ask for fewer times or positions")

    prediction = predict_layer(model, dataset, args.layer, recon_seed=args.seed)

    def rows():
        # one frame at a time: each is rendered after the last one's rows are
        # written, and a frame that fails leaves no file
        for t in times:
            try:
                frame = render_field(prediction, dataset.settings, dataset.schedule, t,
                                     n_positions=args.positions)
            except DomainError as exc:  # a bad --times or --positions value
                raise ConfigError(str(exc)) from exc
            for pos, temp, inner in zip(frame.positions, frame.temps, frame.interior):
                yield [repr(frame.local_time), repr(float(pos)), repr(float(temp)), int(inner)]

    _write_csv(args.out, ["local_time_s", "position_mm", "temp_c", "interior"], rows())
    print(f"rendered {len(times)} field frame(s) of layer {args.layer} -> {args.out}")
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

    for name in ("train", "finetune"):
        p = sub.add_parser(name, help=f"{name} the mapping model")
        if name == "finetune":
            p.add_argument("--ckpt", required=True, help="pretrained checkpoint")
        p.add_argument("--config", help="flat key=value config file")
        for key, kind in _TRAIN_KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                           nargs="+" if key == "data" else None)
        p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict one yet-to-print layer")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--out", required=True, help="predicted-profiles dataset path")
    p.add_argument("--timing", help="timing JSON path")
    p.add_argument("--seed", type=_seed, default=0, help="online ELM seed")
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
    p.add_argument("--seed", type=_seed, default=0, help="online ELM seed")
    p.set_defaults(func=cmd_field)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ThermoseerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", ThermoseerError.exit_code)  # OSError: data


if __name__ == "__main__":
    sys.exit(main())
