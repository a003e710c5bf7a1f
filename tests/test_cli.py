import csv
import dataclasses
import json
import os
import resource
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st

import thermoseer
from thermoseer import cli, core
from thermoseer.cli import (
    _atomic_write,
    load_checkpoint,
    load_dataset,
    main,
    save_checkpoint,
    save_dataset,
)
from thermoseer.mapping import TrainConfig, init_model, param_count, train
from thermoseer.pipeline import evaluate, extract_curve_pairs, predict_layer, predict_point
from thermoseer.synthgen import SynthParams, generate_wall
from thermoseer.core import DwellSchedule, PointId, ProcessSettings, Profile, WallDataset


SMALL_CONFIG = """\
# small synthetic wall
seed = 7
num_layers = 12
points_per_layer = 3
n = 40
"""


@pytest.fixture
def small_wall():
    settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                     layer_print_time=20.5, deposition_rate=52.8)
    return generate_wall(settings, SynthParams(seed=7), points_per_layer=3, n=40)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "wall.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestDatasetRoundTrip:
    def test_byte_identical_resave(self, tmp_path, small_wall):
        a = tmp_path / "a.tsd"
        b = tmp_path / "b.tsd"
        save_dataset(str(a), small_wall)
        save_dataset(str(b), load_dataset(str(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_values_preserved_exactly(self, tmp_path, small_wall):
        path = tmp_path / "wall.tsd"
        save_dataset(str(path), small_wall)
        loaded = load_dataset(str(path))
        assert loaded.n == small_wall.n
        for got, prof in zip(loaded.profiles, small_wall.profiles, strict=True):
            assert got.point == prof.point
            np.testing.assert_array_equal(got.temps, prof.temps)
            assert got.durations == prof.durations

    def test_header_schema(self, tmp_path, small_wall):
        path = tmp_path / "wall.tsd"
        save_dataset(str(path), small_wall)
        data = path.read_bytes()
        header_line = data[:data.index(b"\n") + 1]
        header = json.loads(header_line)
        assert set(header) == {"format", "version", "dtype", "settings", "schedule",
                               "provenance", "wall_id", "n", "points"}
        assert header["format"] == "thermoseer-dataset"
        assert header["version"] == 2
        assert header["dtype"] == "<f8"
        assert len(header["schedule"]) == 12
        assert (header["wall_id"], header["n"], header["points"]) == (1, 40, 21)
        assert len(data) == len(header_line) + 8 * 21 * (7 + 5 * 40)

    def test_rows_hold_layer_distance_durations_then_curves(self, tmp_path, small_wall):
        path = tmp_path / "wall.tsd"
        save_dataset(str(path), small_wall)
        _, payload = _split_file(path.read_bytes())
        rows = np.frombuffer(payload, dtype="<f8").reshape(21, 7 + 5 * 40)
        for row, prof in zip(rows, small_wall.profiles, strict=True):
            assert (row[0], row[1]) == (prof.point.layer, prof.point.axial_distance)
            assert tuple(row[2:7]) == prof.durations
            np.testing.assert_array_equal(row[7:], prof.temps.reshape(-1))

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(data=st.data(), n=st.integers(2, 6), points=st.integers(1, 4))
    def test_blocks_and_durations_round_trip_bit_for_bit(self, roundtrip_dir, data,
                                                         n, points):
        # any value a Profile accepts, from just above absolute zero to just
        # below MAX_TEMPERATURE_C and from subnormal to huge durations
        temp = st.floats(core.ABSOLUTE_ZERO_C, core.MAX_TEMPERATURE_C,
                         exclude_min=True, exclude_max=True)
        duration = st.floats(0.0, exclude_min=True, allow_infinity=False)
        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                         layer_print_time=20.5, deposition_rate=52.8)
        profiles = []
        for j in range(points):
            point = PointId.from_distance(j % 3 + 1, 10.0 * j, settings.travel_speed)
            temps = data.draw(st.lists(temp, min_size=5 * n, max_size=5 * n))
            durations = data.draw(st.lists(duration, min_size=5, max_size=5))
            profiles.append(Profile(point, np.reshape(temps, (5, n)), durations))
        path = str(roundtrip_dir / "wall.tsd")
        save_dataset(path, WallDataset(settings, DwellSchedule((30.0,) * 12), profiles))
        loaded = load_dataset(path)
        profiles.sort(key=lambda p: (p.point.layer, p.point.place))
        for got, prof in zip(loaded.profiles, profiles, strict=True):
            assert got.point == prof.point
            assert got.temps.tobytes() == prof.temps.tobytes()
            assert np.array(got.durations).tobytes() == np.array(prof.durations).tobytes()

    def test_layers_load_as_integers(self, tmp_path, small_wall):
        path = tmp_path / "wall.tsd"
        save_dataset(str(path), small_wall)
        assert all(type(p.point.layer) is int for p in load_dataset(str(path)).profiles)


@pytest.fixture(scope="module")
def roundtrip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


class TestOnlinePath:
    def test_builds_no_curve(self, tmp_path, small_wall, monkeypatch):
        # file to score, a profile stays one (5, N) block: the online path
        # never takes it apart into per-curve objects
        path = str(tmp_path / "wall.tsd")
        save_dataset(path, small_wall)
        model = init_model(small_wall.n, seed=0)
        model.params[:] = 0.0  # the identity map keeps every prediction in range
        built = []
        post_init = core.Curve.__post_init__

        def counting(curve):
            built.append(curve)
            post_init(curve)

        monkeypatch.setattr(core.Curve, "__post_init__", counting)
        wall = load_dataset(path)
        prediction = predict_layer(model, wall, 7)
        truth = wall.profiles_on(7)
        preds = [predict_point(prediction, p.point.axial_distance, wall.settings)
                 for p in truth]
        assert len(evaluate(preds, truth).per_point) == 3
        assert built == []
        assert len(truth[0].curves) == 5 and len(built) == 5  # the counter counts


class TestCheckpointRoundTrip:
    def test_byte_identical_resave(self, tmp_path):
        model = init_model(8, seed=3)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_checkpoint(str(a), model)
        save_checkpoint(str(b), load_checkpoint(str(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_weights_exact(self, tmp_path):
        model = init_model(8, seed=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), model)
        loaded = load_checkpoint(str(path))
        for wa, wb in zip(model.weights, loaded.weights):
            np.testing.assert_array_equal(wa, wb)
        assert loaded.seed == 3

    def test_version_mismatch_exit_4(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_model(8, seed=3))
        header, payload = _split_file(path.read_bytes())
        header["version"] = 99
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code = run_cli("predict", "--ckpt", str(path), "--data", "x.tsd",
                       "--layer", "5", "--out", str(tmp_path / "p.tsd"))
        assert code == 4

    def test_file_is_header_line_plus_float64_payload(self, tmp_path):
        model = init_model(8, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model)
        data = path.read_bytes()
        header_line = data[:data.index(b"\n") + 1]
        assert len(data) == len(header_line) + 8 * param_count(model)
        header = json.loads(header_line)
        assert header["version"] == 3
        assert header["dtype"] == "<f8"
        assert header["param_count"] == param_count(model)
        assert set(header["scaler"]) == {"feature_mean", "feature_std", "fitted"}
        # the payload opens with w1 row-major in little-endian float64
        first = np.frombuffer(data, dtype="<f8", count=3, offset=len(header_line))
        np.testing.assert_array_equal(first, model.weights[0][0, :3])

    def test_trained_model_round_trips_exactly(self, tmp_path, small_wall):
        model, _ = train(init_model(40, seed=5), extract_curve_pairs(small_wall),
                         TrainConfig(epochs=1, batch_size=32, seed=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model)
        loaded = load_checkpoint(str(path))
        for got, want in zip(loaded.weights + loaded.biases, model.weights + model.biases):
            assert got.dtype == np.float32 and got.flags.writeable
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(loaded.feature_mean, model.feature_mean)
        np.testing.assert_array_equal(loaded.feature_std, model.feature_std)
        assert loaded.scaler_fitted is True
        assert loaded.seed == 5
        assert loaded.training_meta == model.training_meta

    def test_save_copies_no_payload(self, tmp_path):
        # the header line and then the array's own buffer go to the file, so
        # saving peaks far below the 7.11 MiB float32 payload at N = 100
        model = init_model(100, seed=3)
        model = dataclasses.replace(model, params=model.params.astype(np.float32))
        path = tmp_path / "model.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(str(path), model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.params.nbytes / 8, peak
        data = path.read_bytes()
        header_line = data[:data.index(b"\n") + 1]
        assert json.loads(header_line)["dtype"] == "<f4"
        assert data[len(header_line):] == model.params.astype("<f4").tobytes()

    def test_trained_n100_checkpoint_is_float32(self, tmp_path):
        # a trained model's checkpoint holds its float32 store as it is; an
        # untrained one keeps its float64 parameters
        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 7,
                                         layer_print_time=20.5, deposition_rate=52.8)
        pairs = extract_curve_pairs(generate_wall(settings, SynthParams(seed=3),
                                                  points_per_layer=2, n=100))
        for epochs, dtype, size in ((1, "<f4", 4), (0, "<f8", 8)):
            model, _ = train(init_model(100, seed=5), pairs,
                             TrainConfig(epochs=epochs, batch_size=16, seed=2))
            path = tmp_path / f"model{epochs}.ckpt"
            save_checkpoint(str(path), model)
            data = path.read_bytes()
            header, payload = _split_file(data)
            assert header["dtype"] == dtype
            assert len(data) == data.index(b"\n") + 1 + size * 1_864_300
            loaded = load_checkpoint(str(path))
            assert loaded.params.dtype == np.dtype(dtype).newbyteorder("=")
            assert loaded.params.flags.writeable
            assert loaded.params.tobytes() == model.params.tobytes() == payload


def _split_file(data: bytes):
    """The parsed header line and the raw payload of a checkpoint or dataset."""
    end = data.index(b"\n")
    return json.loads(data[:end]), data[end + 1:]


def _join_file(header: dict, payload: bytes) -> bytes:
    return json.dumps(header).encode() + b"\n" + payload


def _padded_header(data: bytes, line_length: int) -> bytes:
    """``data`` with an extra header key that makes the header line (without
    its ``\\n``) exactly ``line_length`` bytes long."""
    header, payload = _split_file(data)
    header["pad"] = ""
    header["pad"] = "x" * (line_length - len(json.dumps(header)))
    return _join_file(header, payload)


def _v1_document(model) -> bytes:
    """A checkpoint as the retired version-1 writer laid it out: one JSON
    document with the weights as nested lists."""
    doc = {
        "format": "thermoseer-ckpt", "version": 1, "n": model.n,
        "layer_widths": [w.shape[1] for w in model.weights],
        "weights": [w.reshape(-1).tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "scaler": {"temp_scale": 1000.0,
                   "feature_mean": model.feature_mean.tolist(),
                   "feature_std": model.feature_std.tolist(), "fitted": False},
        "seeds": {"init": model.seed}, "training_meta": {},
    }
    return (json.dumps(doc) + "\n").encode()


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(str(path), init_model(8, seed=3))
    return path.read_bytes()


@pytest.fixture(scope="module")
def trained_checkpoint_bytes(tmp_path_factory):
    settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                     layer_print_time=20.5, deposition_rate=52.8)
    wall = generate_wall(settings, SynthParams(seed=7), points_per_layer=3, n=40)
    model, _ = train(init_model(40, seed=5), extract_curve_pairs(wall),
                     TrainConfig(epochs=1, batch_size=32, seed=2))
    path = tmp_path_factory.mktemp("ckpt32") / "model.ckpt"
    save_checkpoint(str(path), model)
    return path.read_bytes()


@pytest.fixture(scope="module")
def predict_with(tmp_path_factory):
    """Runs ``predict`` on the given checkpoint bytes; returns the exit code."""
    workdir = tmp_path_factory.mktemp("bad-ckpt")

    def run(data: bytes) -> int:
        path = workdir / "model.ckpt"
        path.write_bytes(data)
        return run_cli("predict", "--ckpt", str(path), "--data", "x.tsd",
                       "--layer", "5", "--out", str(workdir / "p.tsd"))
    return run


class TestMalformedCheckpointExit4:
    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(frac=st.floats(0.0, 1.0, exclude_max=True))
    def test_cut_mid_header(self, checkpoint_bytes, predict_with, frac):
        end = checkpoint_bytes.index(b"\n")
        assert predict_with(checkpoint_bytes[:int(frac * end)]) == 4

    def test_cut_at_end_of_header(self, checkpoint_bytes, predict_with):
        end = checkpoint_bytes.index(b"\n")
        assert predict_with(checkpoint_bytes[:end]) == 4
        assert predict_with(checkpoint_bytes[:end + 1]) == 4

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_cut_mid_payload(self, checkpoint_bytes, predict_with, frac):
        start = checkpoint_bytes.index(b"\n") + 1
        cut = start + max(1, int(frac * (len(checkpoint_bytes) - start)))
        assert predict_with(checkpoint_bytes[:min(cut, len(checkpoint_bytes) - 1)]) == 4

    def test_one_byte_appended(self, checkpoint_bytes, predict_with):
        assert predict_with(checkpoint_bytes + b"\0") == 4

    @pytest.mark.parametrize("key", ["n", "layer_widths", "dtype", "param_count",
                                     "scaler", "seeds", "training_meta"])
    def test_missing_key(self, checkpoint_bytes, predict_with, key):
        header, payload = _split_file(checkpoint_bytes)
        del header[key]
        assert predict_with(_join_file(header, payload)) == 4

    @pytest.mark.parametrize("key, value", [("n", "8"), ("n", 8.0), ("param_count", True),
                                            ("dtype", "<f4"), ("dtype", ">f8"),
                                            ("scaler", []), ("dtype", ">f4")])
    def test_mistyped_key_or_other_dtype(self, checkpoint_bytes, predict_with, key, value):
        header, payload = _split_file(checkpoint_bytes)
        header[key] = value
        assert predict_with(_join_file(header, payload)) == 4

    @pytest.mark.parametrize("dtype", ["<f8", ">f4", "<f2", "float32"])
    def test_float32_payload_under_another_dtype(self, trained_checkpoint_bytes, predict_with,
                                                 dtype):
        header, payload = _split_file(trained_checkpoint_bytes)
        assert header["dtype"] == "<f4" and predict_with(trained_checkpoint_bytes) != 4
        header["dtype"] = dtype
        assert predict_with(_join_file(header, payload)) == 4

    def test_header_not_utf8_or_not_json(self, checkpoint_bytes, predict_with):
        _, payload = _split_file(checkpoint_bytes)
        assert predict_with(b"\xff\xfe{}\n" + payload) == 4
        assert predict_with(b"not json\n" + payload) == 4
        assert predict_with(b"[1, 2]\n" + payload) == 4
        assert predict_with(b"[" * 100_000 + b"\n" + payload) == 4

    # explicit ids keep the names these cases had before checkpoint version 3
    @pytest.mark.parametrize("key, value", [("feature_std", [1.0, 1.0, 1.0, 0.0]),
                                            ("feature_mean", [0.0, 0.0, 0.0, 10 ** 400])],
                             ids=["feature_std-value2", "feature_mean-value3"])
    def test_bad_scaler(self, checkpoint_bytes, predict_with, key, value):
        header, payload = _split_file(checkpoint_bytes)
        header["scaler"][key] = value
        assert predict_with(_join_file(header, payload)) == 4

    def test_non_finite_payload(self, checkpoint_bytes, predict_with):
        bad = bytearray(checkpoint_bytes)
        bad[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        assert predict_with(bytes(bad)) == 4

    def test_param_count_not_fitting_n(self, checkpoint_bytes, predict_with):
        # header and payload agree on 4 fewer parameters than N=8 needs
        header, payload = _split_file(checkpoint_bytes)
        header["param_count"] -= 4
        assert predict_with(json.dumps(header).encode() + b"\n" + payload[:-32]) == 4

    def test_v1_document(self, predict_with, capsys):
        assert predict_with(_v1_document(init_model(8, seed=3))) == 4
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

    def test_header_line_ends_within_one_mib(self, checkpoint_bytes, predict_with,
                                             tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        path.write_bytes(_padded_header(checkpoint_bytes, cli.HEADER_LINE_LIMIT - 1))
        assert load_checkpoint(str(path)).n == 8
        assert predict_with(_padded_header(checkpoint_bytes, cli.HEADER_LINE_LIMIT)) == 4
        assert "no header line in the first 1048576 bytes" in capsys.readouterr().err


@pytest.fixture(scope="module")
def dataset_bytes(tmp_path_factory):
    settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                     layer_print_time=20.5, deposition_rate=52.8)
    path = tmp_path_factory.mktemp("data") / "wall.tsd"
    save_dataset(str(path), generate_wall(settings, SynthParams(seed=7),
                                          points_per_layer=3, n=40))
    return path.read_bytes()


@pytest.fixture(scope="module")
def eval_with(tmp_path_factory):
    """Runs ``eval`` of the given dataset bytes against themselves; returns
    the exit code."""
    workdir = tmp_path_factory.mktemp("bad-data")

    def run(data: bytes) -> int:
        path = workdir / "wall.tsd"
        path.write_bytes(data)
        return run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(workdir / "r.json"))
    return run


def _duplicate_row(data: bytes, index: int, shift_mm: float = 0.0) -> bytes:
    """``data`` with payload row ``index`` (modulo the row count) written
    twice, the copy's ``d_mm`` moved by ``shift_mm``, and the header's point
    count raised to match."""
    header, payload = _split_file(data)
    rows = np.frombuffer(payload, dtype="<f8").reshape(header["points"], -1)
    at = index % header["points"]
    copy = rows[at].copy()
    copy[1] += shift_mm
    header["points"] += 1
    return _join_file(header, np.insert(rows, at + 1, copy, axis=0).tobytes())


class TestMalformedDatasetExit3:
    def test_repeated_point(self, dataset_bytes, eval_with, capsys):
        assert eval_with(dataset_bytes) == 0
        assert eval_with(_duplicate_row(dataset_bytes, 5)) == 3
        assert "listed twice" in capsys.readouterr().err

    def test_point_moved_by_a_picometre_is_listed_twice(self, dataset_bytes, tmp_path,
                                                         capsys):
        # the copy's place (d_mm rounded to 1e-9 mm) is its original's: the
        # same point on layer 5, which predicting layer 6 reads
        data, ckpt = tmp_path / "wall.tsd", str(tmp_path / "m.ckpt")
        data.write_bytes(_duplicate_row(dataset_bytes, 13, shift_mm=1e-12))
        save_checkpoint(ckpt, init_model(40, seed=0))
        for argv in (["train", "--data", str(data), "--out", str(tmp_path / "t.ckpt"),
                      "--epochs", "1", "--batch-size", "32"],
                     ["predict", "--ckpt", ckpt, "--data", str(data), "--layer", "6",
                      "--out", str(tmp_path / "p.tsd")],
                     ["eval", "--pred", str(data), "--truth", str(data),
                      "--out", str(tmp_path / "r.json")]):
            assert run_cli(*argv) == 3
            assert "listed twice" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "wall.tsd"]

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(kind=st.sampled_from(["cut", "flip", "duplicate"]),
                      in_header=st.booleans(),
                      frac=st.floats(0.0, 1.0, exclude_max=True),
                      mask=st.integers(1, 255))
    def test_fuzzed_file_loads_or_exits_3(self, dataset_bytes, eval_with,
                                          kind, in_header, frac, mask):
        span = dataset_bytes.index(b"\n") + 1 if in_header else len(dataset_bytes)
        at = int(frac * span)
        if kind == "cut":
            data = dataset_bytes[:at]
        elif kind == "flip":
            data = bytearray(dataset_bytes)
            data[at] ^= mask
            data = bytes(data)
        else:
            data = _duplicate_row(dataset_bytes, at)
        assert eval_with(data) in (0, 3)

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_missing_or_unknown_settings_key(self, tmp_path, small_wall, change):
        path = tmp_path / "wall.tsd"
        save_dataset(str(path), small_wall)
        header, payload = _split_file(path.read_bytes())
        if change == "drop":
            del header["settings"]["num_layers"]
        else:
            header["settings"]["bead_width"] = 4.4
        path.write_bytes(_join_file(header, payload))
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3

    @pytest.mark.parametrize("key, value", [
        ("points", -1), ("points", 20), ("points", 21.0), ("n", 1), ("n", -1), ("n", True),
        ("wall_id", "2"), ("provenance", []), ("schedule", 5), ("schedule", [1.0]),
        ("settings", []), ("dtype", "<f4"), ("version", 1), ("format", "thermoseer-ckpt"),
    ])
    def test_hostile_header_value(self, dataset_bytes, eval_with, key, value):
        header, payload = _split_file(dataset_bytes)
        header[key] = value
        assert eval_with(_join_file(header, payload)) == 3

    @pytest.mark.parametrize("column, value", [(0, 1.5), (0, 0.0), (0, 13.0), (1, -1.0),
                                               (1, 161.0), (2, 0.0), (7, -300.0),
                                               (7, 1e300)])
    def test_hostile_row_value(self, dataset_bytes, eval_with, capsys, column, value):
        # layer not integral or outside the wall, distance outside the layer,
        # a zero duration, a temperature below absolute zero or far above
        # any surface temperature
        header, payload = _split_file(dataset_bytes)
        rows = np.frombuffer(payload, dtype="<f8").reshape(header["points"], -1).copy()
        rows[4, column] = value
        assert eval_with(_join_file(header, rows.tobytes())) == 3
        err = capsys.readouterr().err
        assert "wall.tsd: " in err
        if column == 0 and value == 1.5:
            assert "layer 1.5 is not an integer" in err

    def test_float32_payload_exit_3(self, dataset_bytes, eval_with, capsys):
        # datasets hold float64 only, even where a float32 payload would fit
        header, payload = _split_file(dataset_bytes)
        header["dtype"] = "<f4"
        rows = np.frombuffer(payload, dtype="<f8").astype("<f4")
        assert eval_with(_join_file(header, rows.tobytes())) == 3
        assert "a dataset dtype is one of ('<f8',), got '<f4'" in capsys.readouterr().err

    def test_header_line_ends_within_one_mib(self, dataset_bytes, eval_with, capsys):
        assert eval_with(_padded_header(dataset_bytes, cli.HEADER_LINE_LIMIT - 1)) == 0
        assert eval_with(_padded_header(dataset_bytes, cli.HEADER_LINE_LIMIT)) == 3
        assert "no header line in the first 1048576 bytes" in capsys.readouterr().err

    def test_header_only(self, tmp_path, small_wall):
        path = tmp_path / "wall.tsd"
        path.write_text('{"format": "thermoseer-dataset", "version": 2}\n')
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3
        save_dataset(str(path), small_wall)
        data = path.read_bytes()
        path.write_bytes(data[:data.index(b"\n") + 1])
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3

    def test_not_json(self, tmp_path):
        path = tmp_path / "wall.tsd"
        path.write_text("this is not json\n")
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3
        path.write_bytes(b"\xff\xfe\n")
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3
        path.write_text("[" * 100_000 + "\n")
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3


class TestWriterRefusesUnreadableHeader:
    def test_dataset_and_checkpoint(self, tmp_path, small_wall):
        big = "x" * cli.HEADER_LINE_LIMIT
        with pytest.raises(thermoseer.DomainError, match="header"):
            save_dataset(str(tmp_path / "wall.tsd"),
                         dataclasses.replace(small_wall, provenance={"note": big}))
        model = init_model(8, seed=3)
        model.training_meta = {"note": big}
        with pytest.raises(thermoseer.CheckpointError, match="header"):
            save_checkpoint(str(tmp_path / "model.ckpt"), model)
        assert os.listdir(tmp_path) == []


class TestAtomicWrite:
    def test_failed_replace_keeps_old_file_and_leaves_no_temp(self, tmp_path,
                                                              monkeypatch):
        path = tmp_path / "report.json"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            _atomic_write(str(path), b"new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_str_and_bytes_with_plain_open_mode(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        _atomic_write(str(tmp_path / "a.txt"), "text é")
        _atomic_write(str(tmp_path / "b.bin"), b"\x00\x01")
        assert (tmp_path / "a.txt").read_bytes() == "text é".encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
        mode = stat.S_IMODE(plain.stat().st_mode)
        assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "b.bin").stat().st_mode) == mode


class TestGenerate:
    def test_writes_dataset_and_summary(self, tmp_path, config_path, capsys):
        out = tmp_path / "wall.tsd"
        assert run_cli("generate", "--config", config_path, "--out", str(out)) == 0
        assert "curve pairs" in capsys.readouterr().out
        ds = load_dataset(str(out))
        assert ds.layers() == list(range(1, 8))

    def test_same_config_same_bytes(self, tmp_path, config_path):
        a, b = tmp_path / "a.tsd", tmp_path / "b.tsd"
        run_cli("generate", "--config", config_path, "--out", str(a))
        run_cli("generate", "--config", config_path, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num_layers = 12\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "x.tsd")) == 2

    @pytest.mark.parametrize("config", ["seed = -1", "seed = 1\nwall.1.seed = -1",
                                        "seed = -1\nstyle = experiment"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, config):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "x.tsd"
        cfg.write_text(f"num_layers = 8\nn = 10\npoints_per_layer = 2\n{config}\n")
        assert run_cli("generate", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 1\nbogus_key = 5\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "x.tsd")) == 2

    def test_multi_wall_grid(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed = 3\nnum_layers = 12\npoints_per_layer = 2\nn = 20\n"
            "wall.1.travel_speed = 8\nwall.1.layer_thickness = 1.5\n"
            "wall.2.travel_speed = 15\nwall.2.layer_thickness = 1.4\n"
        )
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "w{id}.tsd")) == 0
        one = load_dataset(str(tmp_path / "w1.tsd"))
        two = load_dataset(str(tmp_path / "w2.tsd"))
        assert one.settings.travel_speed == 8.0
        assert two.settings.travel_speed == 15.0

    def test_prediction_keeps_the_wall_id(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("seed = 3\nnum_layers = 12\npoints_per_layer = 2\nn = 20\n"
                       "wall.1.style = simulation\nwall.2.style = experiment\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "w{id}.tsd")) == 0
        assert load_dataset(str(tmp_path / "w2.tsd")).wall_id == 2
        ckpt, pred = str(tmp_path / "m.ckpt"), tmp_path / "pred.tsd"
        assert run_cli("train", "--data", str(tmp_path / "w1.tsd"), "--out", ckpt,
                       "--epochs", "1", "--batch-size", "32") == 0
        assert run_cli("predict", "--ckpt", ckpt, "--data", str(tmp_path / "w2.tsd"),
                       "--layer", "6", "--out", str(pred)) == 0
        header, _ = _split_file(pred.read_bytes())
        assert (header["wall_id"], header["points"]) == (2, 2)

    def test_shared_wall_id_names_a_single_wall_only(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("seed = 3\nnum_layers = 12\npoints_per_layer = 2\nn = 20\n"
                       "wall_id = 5\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "w.tsd")) == 0
        assert load_dataset(str(tmp_path / "w.tsd")).wall_id == 5
        cfg.write_text("seed = 3\nwall_id = 5\n"
                       "wall.1.travel_speed = 8\nwall.2.travel_speed = 15\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "w{id}.tsd")) == 2
        assert "shared 'wall_id'" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["grid.cfg", "w.tsd"]

    @pytest.mark.parametrize("config", ["n = 1000000000", "num_layers = 1000000000",
                                        "style = experiment\nsample_period = 1e-9"])
    def test_oversized_wall_exit_2_before_allocating(self, tmp_path, capsys, config):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"seed = 3\n{config}\n")
        start = time.perf_counter()
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "w.tsd")) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "more than the 268435456 allowed" in err
        assert os.listdir(tmp_path) == ["huge.cfg"]

    def test_oversized_later_wall_writes_no_file(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("seed = 3\nnum_layers = 12\npoints_per_layer = 2\nn = 20\n"
                       "wall.1.travel_speed = 8\nwall.2.n = 1000000000\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "w{id}.tsd")) == 2
        assert "more than the 268435456 allowed" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["grid.cfg"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("key", [key for key, kind in cli._GENERATE_KEYS.items()
                                     if kind in (int, float)])
    def test_number_key_sweep_exits_0_2_or_3(self, tmp_path, key, value):
        table = {"seed": "7", "num_layers": "12", "points_per_layer": "3", "n": "8"}
        if key in cli._EXPERIMENT_KEYS:
            table["style"] = "experiment"
        table[key] = value
        cfg, out = tmp_path / "w.cfg", tmp_path / "w.tsd"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in table.items()))
        code = run_cli("generate", "--config", str(cfg), "--out", str(out))
        assert code in ((2, 3) if value in ("nan", "inf", "-inf") else (0, 2, 3))
        assert code == 0 or os.listdir(tmp_path) == ["w.cfg"]

    def test_multi_wall_needs_placeholder(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("seed = 3\nwall.1.travel_speed = 8\nwall.2.travel_speed = 15\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "w.tsd")) == 2


class TestTrainPredictEvalField:
    @pytest.fixture
    def dataset_path(self, tmp_path, small_wall):
        path = tmp_path / "wall.tsd"
        save_dataset(str(path), small_wall)
        return str(path)

    def test_full_cycle(self, tmp_path, dataset_path):
        ckpt = str(tmp_path / "model.json")
        loss_csv = str(tmp_path / "loss.csv")
        assert run_cli("train", "--data", dataset_path, "--out", ckpt,
                       "--loss-csv", loss_csv, "--epochs", "2",
                       "--batch-size", "32") == 0
        rows = list(csv.reader(open(loss_csv)))
        assert rows[0] == ["epoch", "loss"]
        assert len(rows) == 3  # header + 2 epochs

        pred = str(tmp_path / "pred.tsd")
        timing = str(tmp_path / "timing.json")
        assert run_cli("predict", "--ckpt", ckpt, "--data", dataset_path,
                       "--layer", "6", "--out", pred, "--timing", timing) == 0
        tdoc = json.loads(open(timing).read())
        assert set(tdoc) == {"map_seconds", "reconstruct_seconds", "total_seconds"}

        report = str(tmp_path / "report.json")
        boxplot = str(tmp_path / "box.csv")
        assert run_cli("eval", "--pred", pred, "--truth", dataset_path,
                       "--out", report, "--csv", boxplot) == 0
        doc = json.loads(open(report).read())
        assert "6" in doc["per_layer"]
        rows = list(csv.reader(open(boxplot)))
        assert rows[0] == ["layer", "point", "reop"]
        assert len(rows) == 4  # header + 3 points

        field = str(tmp_path / "field.csv")
        assert run_cli("field", "--ckpt", ckpt, "--data", dataset_path,
                       "--layer", "6", "--times", "5.0,20.0",
                       "--out", field) == 0
        rows = list(csv.reader(open(field)))
        assert rows[0] == ["local_time_s", "position_mm", "temp_c", "interior"]
        assert len(rows) == 1 + 2 * 160

    def test_diverging_loss_exit_3_writes_nothing(self, tmp_path, dataset_path, capsys):
        ckpt, loss_csv = tmp_path / "model.ckpt", tmp_path / "loss.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("train", "--data", dataset_path, "--out", str(ckpt),
                           "--loss-csv", str(loss_csv), "--epochs", "3",
                           "--lr", "1e150") == 3
        assert "not finite" in capsys.readouterr().err
        assert not ckpt.exists() and not loss_csv.exists()

    def test_float32_overflow_exit_3_at_train(self, tmp_path, dataset_path, capsys):
        # lr 1e3 drives the loss past the float32 range within three epochs, so
        # training stops there instead of saving a model that predict rejects
        ckpt, loss_csv = tmp_path / "model.ckpt", tmp_path / "loss.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("train", "--data", dataset_path, "--out", str(ckpt),
                           "--loss-csv", str(loss_csv), "--epochs", "3",
                           "--lr", "1e3") == 3
        assert "batch loss inf is not finite" in capsys.readouterr().err
        assert not ckpt.exists() and not loss_csv.exists()

    def test_non_physical_model_output_is_a_model_error(self, tmp_path, dataset_path,
                                                       capsys):
        model = init_model(40, seed=0)
        model.weights[-1][...] *= 1e6  # predicts far below absolute zero
        ckpt, pred = tmp_path / "model.ckpt", tmp_path / "pred.tsd"
        save_checkpoint(str(ckpt), model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("predict", "--ckpt", str(ckpt), "--data", dataset_path,
                           "--layer", "6", "--out", str(pred)) == 3
        err = capsys.readouterr().err
        assert "mapping model predicts" in err and "curve temps" not in err
        assert not pred.exists()

    def test_zero_epochs_checkpoint_equals_init(self, tmp_path, dataset_path):
        ckpt = str(tmp_path / "model.json")
        assert run_cli("train", "--data", dataset_path, "--out", ckpt,
                       "--epochs", "0", "--init-seed", "5") == 0
        loaded = load_checkpoint(ckpt)
        fresh = init_model(40, seed=5)
        for wa, wb in zip(loaded.weights, fresh.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_finetune_zero_epochs_identity_weights(self, tmp_path, dataset_path):
        base = str(tmp_path / "base.json")
        out = str(tmp_path / "tuned.json")
        run_cli("train", "--data", dataset_path, "--out", base, "--epochs", "1",
                "--batch-size", "64")
        assert run_cli("finetune", "--ckpt", base, "--data", dataset_path,
                       "--out", out, "--epochs", "0") == 0
        a, b = load_checkpoint(base), load_checkpoint(out)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_predict_layer_one_exit_5(self, tmp_path, dataset_path):
        ckpt = str(tmp_path / "model.json")
        run_cli("train", "--data", dataset_path, "--out", ckpt, "--epochs", "0")
        assert run_cli("predict", "--ckpt", ckpt, "--data", dataset_path,
                       "--layer", "1", "--out", str(tmp_path / "p.tsd")) == 5

    def test_field_beyond_horizon_exit_6(self, tmp_path, dataset_path, capsys):
        ckpt = str(tmp_path / "model.json")
        run_cli("train", "--data", dataset_path, "--out", ckpt, "--epochs", "0")
        code = run_cli("field", "--ckpt", ckpt, "--data", dataset_path,
                       "--layer", "6", "--times", "99999",
                       "--out", str(tmp_path / "f.csv"))
        assert code == 6
        assert "maximum representable" in capsys.readouterr().err

    def test_field_horizon_message_is_bounded(self, tmp_path, dataset_path, capsys):
        ckpt = str(tmp_path / "model.json")
        run_cli("train", "--data", dataset_path, "--out", ckpt, "--epochs", "0")
        capsys.readouterr()
        code = run_cli("field", "--ckpt", ckpt, "--data", dataset_path,
                       "--layer", "6", "--times", "1e308",
                       "--out", str(tmp_path / "f.csv"))
        assert code == 6
        err = capsys.readouterr().err
        assert "maximum representable" in err and len(err) < 200, err

    @pytest.mark.parametrize("spec", ["-3:2", "0:0", "0:5", "5:4"])
    def test_bad_layer_range_exit_2_writes_nothing(self, tmp_path, dataset_path, capsys,
                                                   spec):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli("train", "--data", dataset_path, "--out", str(ckpt),
                       f"--layers={spec}", "--epochs", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --layers") and "Traceback" not in err
        assert not ckpt.exists()

    def test_huge_layer_range_costs_its_bounds_only(self, tmp_path, dataset_path):
        # the wall's profiled layers end at 7: 5:1000000000 trains on the pairs
        # of 5:7, in a child whose address space is capped at 1 GiB (a list of
        # the range's billion layers would need about 8 GB)
        argv = ["train", "--data", dataset_path, "--epochs", "1", "--batch-size", "8"]
        want = tmp_path / "want.ckpt"
        assert run_cli(*argv, "--layers", "5:7", "--out", str(want)) == 0
        got = tmp_path / "got.ckpt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(thermoseer.__file__))]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        limit = 1 << 30
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from thermoseer.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             *argv, "--layers", "5:1000000000", "--out", str(got)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert done.returncode == 0, done.stderr
        assert "trained on 30 curve pairs" in done.stdout  # 5->6 and 6->7, 3 points
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("option, value", [
        ("--times", "nan"), ("--times", "inf"), ("--times", "-1"),
        ("--positions", "1"), ("--positions", "1000000000")])
    def test_bad_field_option_exit_2_writes_nothing(self, tmp_path, dataset_path, capsys,
                                                    option, value):
        ckpt = str(tmp_path / "model.json")
        run_cli("train", "--data", dataset_path, "--out", ckpt, "--epochs", "0")
        capsys.readouterr()
        argv = {"--times": "5.0", "--positions": "160", option: value}
        out = tmp_path / "f.csv"
        assert run_cli("field", "--ckpt", ckpt, "--data", dataset_path, "--layer", "6",
                       "--times", argv["--times"], "--positions", argv["--positions"],
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_too_many_frames_exit_2_writes_nothing(self, tmp_path, dataset_path, capsys):
        # 8,389 frames of 160 positions at N = 40 hold 268,448,000 curve values,
        # just over MAX_WALL_VALUES, though each frame alone is far below it
        ckpt = str(tmp_path / "model.json")
        run_cli("train", "--data", dataset_path, "--out", ckpt, "--epochs", "0")
        capsys.readouterr()
        out = tmp_path / "f.csv"
        start = time.perf_counter()
        assert run_cli("field", "--ckpt", ckpt, "--data", dataset_path, "--layer", "6",
                       "--times", ",".join(["5.0"] * 8389), "--out", str(out)) == 2
        assert time.perf_counter() - start < 5.0  # refused before any frame is rendered
        err = capsys.readouterr().err
        assert err.startswith("error: 8389 frames of 160 positions") and "Traceback" not in err
        assert not out.exists()

    def test_field_memory_does_not_grow_with_frames(self, tmp_path, dataset_path, capsys):
        # frames are rendered and written one at a time, so the peak does not
        # grow with the number of times, as a CSV held whole in memory would
        ckpt = str(tmp_path / "model.json")
        run_cli("train", "--data", dataset_path, "--out", ckpt, "--epochs", "0")
        peaks = []
        for count in (10, 100):
            times = ",".join(repr(float(t)) for t in np.linspace(0.0, 20.0, count))
            tracemalloc.start()
            try:
                assert run_cli("field", "--ckpt", ckpt, "--data", dataset_path,
                               "--layer", "6", "--times", times, "--positions", "1000",
                               "--out", str(tmp_path / f"f{count}.csv")) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        rows = (tmp_path / "f100.csv").read_text().splitlines()
        assert len(rows) == 1 + 100 * 1000 and rows[-1].startswith("20.0,160.0,")
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_field_bound_counts_the_elm_hidden_matrix(self, tmp_path, capsys):
        # at N = 2 the 3,000,000 positions need 30 million curve values, under
        # the bound, but a 128-wide hidden matrix of about 3 GB
        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                         layer_print_time=20.5, deposition_rate=52.8)
        data, ckpt = str(tmp_path / "tiny.tsd"), str(tmp_path / "model.ckpt")
        save_dataset(data, generate_wall(settings, SynthParams(seed=7), points_per_layer=3,
                                         n=2))
        assert run_cli("train", "--data", data, "--out", ckpt, "--epochs", "0") == 0
        capsys.readouterr()
        out = tmp_path / "f.csv"
        assert run_cli("field", "--ckpt", ckpt, "--data", data, "--layer", "6",
                       "--times", "5.0", "--positions", "3000000", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a frame of 3000000 positions") and "Traceback" not in err
        assert not out.exists()
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt", "tiny.tsd"]

    @pytest.mark.parametrize("command, extra", [
        ("train", "--seed -1"), ("train", "--init-seed -1"),
        ("finetune", "--seed -1"), ("finetune", "--init-seed -1"),
        ("train", "config: seed = -1"), ("train", "config: init_seed = -1"),
        ("predict", "--seed -1"), ("field", "--seed -1"),
        ("train", "--lr nan"), ("train", "--lr inf"), ("finetune", "--lr nan"),
        ("train", "config: lr = inf"), ("train", "--batch-size 0"), ("train", "--epochs -1")])
    def test_bad_option_exit_2_writes_nothing(self, tmp_path, dataset_path, capsys,
                                              command, extra):
        # a bad flag (argparse) or config value stops the command before any
        # work, with exit 2 and no traceback
        ckpt = str(tmp_path / "model.ckpt")
        assert run_cli("train", "--data", dataset_path, "--out", ckpt, "--epochs", "0") == 0
        capsys.readouterr()
        out, loss_csv, cfg = tmp_path / "out", tmp_path / "loss.csv", tmp_path / "train.cfg"
        negative_seed = "seed" in extra
        if extra.startswith("config: "):
            cfg.write_text(extra.removeprefix("config: ") + "\n")
            extra = f"--config {cfg}"
        argv = {
            "train": ["--data", dataset_path, "--epochs", "1", "--loss-csv", str(loss_csv)],
            "finetune": ["--ckpt", ckpt, "--data", dataset_path, "--epochs", "1",
                         "--loss-csv", str(loss_csv)],
            "predict": ["--ckpt", ckpt, "--data", dataset_path, "--layer", "6"],
            "field": ["--ckpt", ckpt, "--data", dataset_path, "--layer", "6", "--times", "5"],
        }[command]
        try:
            code = run_cli(command, *argv, "--out", str(out), *extra.split())
        except SystemExit as exc:  # argparse refuses a flag's value
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        if negative_seed:  # the rule, not the converter's name
            assert "a seed must be >= 0, got '-1'" in err and "invalid" not in err
        assert not out.exists() and not loss_csv.exists()

    def test_mixed_n_exit_3(self, tmp_path, small_wall):
        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                         layer_print_time=20.5, deposition_rate=52.8)
        other = generate_wall(settings, SynthParams(seed=7), points_per_layer=3, n=30)
        p1, p2 = tmp_path / "a.tsd", tmp_path / "b.tsd"
        save_dataset(str(p1), small_wall)
        save_dataset(str(p2), other)
        assert run_cli("train", "--data", str(p1), str(p2),
                       "--out", str(tmp_path / "m.json"), "--epochs", "1") == 3

    def test_deterministic_pipeline_reports(self, tmp_path, small_wall, monkeypatch):
        # identical seeds and identical relative paths: every artifact of the
        # generate -> train -> predict -> eval chain is byte-identical
        outs = []
        for tag in ("one", "two"):
            workdir = tmp_path / tag
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            save_dataset("wall.tsd", small_wall)
            run_cli("train", "--data", "wall.tsd", "--out", "model.json",
                    "--epochs", "2", "--batch-size", "32",
                    "--seed", "4", "--init-seed", "9")
            run_cli("predict", "--ckpt", "model.json", "--data", "wall.tsd",
                    "--layer", "6", "--out", "pred.tsd")
            run_cli("eval", "--pred", "pred.tsd", "--truth", "wall.tsd",
                    "--out", "report.json")
            outs.append(tuple((workdir / name).read_bytes() for name in
                              ("wall.tsd", "model.json", "pred.tsd", "report.json")))
        assert outs[0] == outs[1]

    def test_config_twin_with_flag_override(self, tmp_path, dataset_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 5\nbatch_size = 32\n")
        ckpt = str(tmp_path / "m.json")
        loss_csv = str(tmp_path / "loss.csv")
        # flag overrides the config's epochs
        assert run_cli("train", "--data", dataset_path, "--out", ckpt,
                       "--config", str(cfg), "--epochs", "1",
                       "--loss-csv", loss_csv) == 0
        assert len(list(csv.reader(open(loss_csv)))) == 2

    def test_out_and_loss_csv_from_config(self, tmp_path, dataset_path):
        ckpt, loss_csv = tmp_path / "m.ckpt", tmp_path / "loss.csv"
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"epochs = 1\nbatch_size = 32\nout = {ckpt}\n"
                       f"loss_csv = {loss_csv}\n")
        assert run_cli("train", "--data", dataset_path, "--config", str(cfg)) == 0
        assert load_checkpoint(str(ckpt)).n == 40
        assert len(list(csv.reader(open(loss_csv)))) == 2
        tuned, tune_csv = tmp_path / "tuned.ckpt", tmp_path / "tune.csv"
        cfg.write_text(f"epochs = 1\nout = {tuned}\nloss_csv = {tune_csv}\n"
                       f"data = {dataset_path}\n")
        assert run_cli("finetune", "--ckpt", str(ckpt), "--config", str(cfg)) == 0
        assert tuned.exists() and tune_csv.exists()

    def test_no_out_exit_2(self, tmp_path, dataset_path):
        assert run_cli("train", "--data", dataset_path, "--epochs", "0") == 2
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 0\n")
        assert run_cli("train", "--data", dataset_path, "--config", str(cfg)) == 2
        assert sorted(os.listdir(tmp_path)) == ["train.cfg", "wall.tsd"]

    def test_no_data_exit_2(self, tmp_path, capsys):
        assert run_cli("train", "--out", str(tmp_path / "x.ckpt"), "--epochs", "0") == 2
        assert "give --data" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_finetune_n_mismatch_exit_3(self, tmp_path, dataset_path):
        ckpt = tmp_path / "n8.ckpt"
        save_checkpoint(str(ckpt), init_model(8, seed=0))
        assert run_cli("finetune", "--ckpt", str(ckpt), "--data", dataset_path,
                       "--out", str(tmp_path / "t.ckpt"), "--epochs", "1") == 3
        assert not (tmp_path / "t.ckpt").exists()


class TestExitCodes:
    DOCUMENTED = {"ConfigError": 2, "CheckpointError": 4, "ProtocolError": 5,
                  "HorizonError": 6}

    @staticmethod
    def _eval_raising(monkeypatch, exc):
        def fail(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_eval", fail)
        return run_cli("eval", "--pred", "p.tsd", "--truth", "t.tsd", "--out", "r.json")

    def test_every_exported_error_class(self, monkeypatch, capsys):
        errors = [obj for obj in (getattr(thermoseer, name) for name in thermoseer.__all__)
                  if isinstance(obj, type) and issubclass(obj, thermoseer.ThermoseerError)]
        assert set(self.DOCUMENTED) < {e.__name__ for e in errors}
        for error in errors:
            code = self._eval_raising(monkeypatch, error("boom"))
            assert code == self.DOCUMENTED.get(error.__name__, 3), error.__name__
            assert capsys.readouterr().err == "error: boom\n"

    def test_os_error_is_3_and_any_other_error_raises(self, monkeypatch):
        assert self._eval_raising(monkeypatch, FileNotFoundError("gone")) == 3
        with pytest.raises(RuntimeError):
            self._eval_raising(monkeypatch, RuntimeError("bug"))
