import csv
import json
import os
import stat

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st

from thermoseer.cli import (
    _atomic_write,
    load_checkpoint,
    load_dataset,
    main,
    save_checkpoint,
    save_dataset,
)
from thermoseer.mapping import TrainConfig, init_model, param_count, train
from thermoseer.pipeline import extract_curve_pairs
from thermoseer.synthgen import SynthParams, generate_wall
from thermoseer.core import ProcessSettings


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
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        save_dataset(str(a), small_wall)
        save_dataset(str(b), load_dataset(str(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_values_preserved_exactly(self, tmp_path, small_wall):
        path = tmp_path / "wall.jsonl"
        save_dataset(str(path), small_wall)
        loaded = load_dataset(str(path))
        assert loaded.n == small_wall.n
        for point, prof in small_wall.profiles.items():
            got = loaded.profiles[point]
            for ca, cb in zip(prof.curves, got.curves):
                np.testing.assert_array_equal(ca.temps, cb.temps)
                assert ca.duration == cb.duration

    def test_header_schema(self, tmp_path, small_wall):
        path = tmp_path / "wall.jsonl"
        save_dataset(str(path), small_wall)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "thermoseer-dataset"
        assert header["version"] == 1
        assert len(header["schedule"]) == 12
        record = json.loads(path.read_text().splitlines()[1])
        assert set(record) == {"wall_id", "layer", "point_index", "d_mm", "t_rd_s",
                               "n", "durations_s", "curves", "features"}
        assert set(record["features"]) == {"t_layer_s", "dwell_s", "dr_mm3s", "h_mm"}


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
        header, payload = _split_checkpoint(path.read_bytes())
        header["version"] = 99
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code = run_cli("predict", "--ckpt", str(path), "--data", "x.jsonl",
                       "--layer", "5", "--out", str(tmp_path / "p.jsonl"))
        assert code == 4

    def test_file_is_header_line_plus_float64_payload(self, tmp_path):
        model = init_model(8, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model)
        data = path.read_bytes()
        header_line = data[:data.index(b"\n") + 1]
        assert len(data) == len(header_line) + 8 * param_count(model)
        header = json.loads(header_line)
        assert header["version"] == 2
        assert header["dtype"] == "<f8"
        assert header["param_count"] == param_count(model)
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
            assert got.dtype == np.float64 and got.flags.writeable
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(loaded.feature_mean, model.feature_mean)
        np.testing.assert_array_equal(loaded.feature_std, model.feature_std)
        assert loaded.scaler_fitted is True
        assert loaded.temp_scale == model.temp_scale
        assert loaded.seed == 5
        assert loaded.training_meta == model.training_meta


def _split_checkpoint(data: bytes):
    end = data.index(b"\n")
    return json.loads(data[:end]), data[end + 1:]


def _v1_document(model) -> bytes:
    """A checkpoint as the retired version-1 writer laid it out: one JSON
    document with the weights as nested lists."""
    doc = {
        "format": "thermoseer-ckpt", "version": 1, "n": model.n,
        "layer_widths": [w.shape[1] for w in model.weights],
        "weights": [w.reshape(-1).tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "scaler": {"temp_scale": model.temp_scale,
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
def predict_with(tmp_path_factory):
    """Runs ``predict`` on the given checkpoint bytes; returns the exit code."""
    workdir = tmp_path_factory.mktemp("bad-ckpt")

    def run(data: bytes) -> int:
        path = workdir / "model.ckpt"
        path.write_bytes(data)
        return run_cli("predict", "--ckpt", str(path), "--data", "x.jsonl",
                       "--layer", "5", "--out", str(workdir / "p.jsonl"))
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
        header, payload = _split_checkpoint(checkpoint_bytes)
        del header[key]
        assert predict_with(json.dumps(header).encode() + b"\n" + payload) == 4

    @pytest.mark.parametrize("key, value", [("n", "8"), ("n", 8.0), ("param_count", True),
                                            ("dtype", "<f4"), ("dtype", ">f8"),
                                            ("scaler", [])])
    def test_mistyped_key_or_other_dtype(self, checkpoint_bytes, predict_with, key, value):
        header, payload = _split_checkpoint(checkpoint_bytes)
        header[key] = value
        assert predict_with(json.dumps(header).encode() + b"\n" + payload) == 4

    def test_header_not_utf8_or_not_json(self, checkpoint_bytes, predict_with):
        _, payload = _split_checkpoint(checkpoint_bytes)
        assert predict_with(b"\xff\xfe{}\n" + payload) == 4
        assert predict_with(b"not json\n" + payload) == 4
        assert predict_with(b"[1, 2]\n" + payload) == 4
        assert predict_with(b"[" * 100_000 + b"\n" + payload) == 4

    @pytest.mark.parametrize("key, value", [("temp_scale", 1000), ("temp_scale", 0.0),
                                            ("feature_std", [1.0, 1.0, 1.0, 0.0]),
                                            ("feature_mean", [0.0, 0.0, 0.0, 10 ** 400])])
    def test_bad_scaler(self, checkpoint_bytes, predict_with, key, value):
        header, payload = _split_checkpoint(checkpoint_bytes)
        header["scaler"][key] = value
        assert predict_with(json.dumps(header).encode() + b"\n" + payload) == 4

    def test_non_finite_payload(self, checkpoint_bytes, predict_with):
        bad = bytearray(checkpoint_bytes)
        bad[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        assert predict_with(bytes(bad)) == 4

    def test_param_count_not_fitting_n(self, checkpoint_bytes, predict_with):
        # header and payload agree on 4 fewer parameters than N=8 needs
        header, payload = _split_checkpoint(checkpoint_bytes)
        header["param_count"] -= 4
        assert predict_with(json.dumps(header).encode() + b"\n" + payload[:-32]) == 4

    def test_v1_document(self, predict_with, capsys):
        assert predict_with(_v1_document(init_model(8, seed=3))) == 4
        assert "unsupported checkpoint version 1" in capsys.readouterr().err


class TestMalformedDatasetExit3:
    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_missing_or_unknown_settings_key(self, tmp_path, small_wall, change):
        path = tmp_path / "wall.jsonl"
        save_dataset(str(path), small_wall)
        header, *records = path.read_text().splitlines(keepends=True)
        doc = json.loads(header)
        if change == "drop":
            del doc["settings"]["num_layers"]
        else:
            doc["settings"]["bead_width"] = 4.4
        path.write_text(json.dumps(doc) + "\n" + "".join(records))
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3

    def test_header_only(self, tmp_path, small_wall):
        path = tmp_path / "wall.jsonl"
        path.write_text('{"format": "thermoseer-dataset", "version": 1}\n')
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3
        save_dataset(str(path), small_wall)
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3

    def test_not_json(self, tmp_path):
        path = tmp_path / "wall.jsonl"
        path.write_text("this is not json\n")
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3
        path.write_bytes(b"\xff\xfe\n")
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3
        path.write_text("[" * 100_000 + "\n")
        assert run_cli("eval", "--pred", str(path), "--truth", str(path),
                       "--out", str(tmp_path / "r.json")) == 3


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
        out = tmp_path / "wall.jsonl"
        assert run_cli("generate", "--config", config_path, "--out", str(out)) == 0
        assert "curve pairs" in capsys.readouterr().out
        ds = load_dataset(str(out))
        assert ds.layers() == list(range(1, 8))

    def test_same_config_same_bytes(self, tmp_path, config_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("generate", "--config", config_path, "--out", str(a))
        run_cli("generate", "--config", config_path, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num_layers = 12\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "x.jsonl")) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 1\nbogus_key = 5\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "x.jsonl")) == 2

    def test_multi_wall_grid(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed = 3\nnum_layers = 12\npoints_per_layer = 2\nn = 20\n"
            "wall.1.travel_speed = 8\nwall.1.layer_thickness = 1.5\n"
            "wall.2.travel_speed = 15\nwall.2.layer_thickness = 1.4\n"
        )
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "w{id}.jsonl")) == 0
        one = load_dataset(str(tmp_path / "w1.jsonl"))
        two = load_dataset(str(tmp_path / "w2.jsonl"))
        assert one.settings.travel_speed == 8.0
        assert two.settings.travel_speed == 15.0

    def test_multi_wall_needs_placeholder(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("seed = 3\nwall.1.travel_speed = 8\nwall.2.travel_speed = 15\n")
        assert run_cli("generate", "--config", str(cfg),
                       "--out", str(tmp_path / "w.jsonl")) == 2


class TestTrainPredictEvalField:
    @pytest.fixture
    def dataset_path(self, tmp_path, small_wall):
        path = tmp_path / "wall.jsonl"
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

        pred = str(tmp_path / "pred.jsonl")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_loss_exit_3_writes_nothing(self, tmp_path, dataset_path, capsys):
        ckpt, loss_csv = tmp_path / "model.ckpt", tmp_path / "loss.csv"
        assert run_cli("train", "--data", dataset_path, "--out", str(ckpt),
                       "--loss-csv", str(loss_csv), "--epochs", "3",
                       "--lr", "1e150") == 3
        assert "not finite" in capsys.readouterr().err
        assert not ckpt.exists() and not loss_csv.exists()

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
                       "--layer", "1", "--out", str(tmp_path / "p.jsonl")) == 5

    def test_field_beyond_horizon_exit_6(self, tmp_path, dataset_path, capsys):
        ckpt = str(tmp_path / "model.json")
        run_cli("train", "--data", dataset_path, "--out", ckpt, "--epochs", "0")
        code = run_cli("field", "--ckpt", ckpt, "--data", dataset_path,
                       "--layer", "6", "--times", "99999",
                       "--out", str(tmp_path / "f.csv"))
        assert code == 6
        assert "maximum representable" in capsys.readouterr().err

    def test_mixed_n_exit_3(self, tmp_path, small_wall):
        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                         layer_print_time=20.5, deposition_rate=52.8)
        other = generate_wall(settings, SynthParams(seed=7), points_per_layer=3, n=30)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
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
            save_dataset("wall.jsonl", small_wall)
            run_cli("train", "--data", "wall.jsonl", "--out", "model.json",
                    "--epochs", "2", "--batch-size", "32",
                    "--seed", "4", "--init-seed", "9")
            run_cli("predict", "--ckpt", "model.json", "--data", "wall.jsonl",
                    "--layer", "6", "--out", "pred.jsonl")
            run_cli("eval", "--pred", "pred.jsonl", "--truth", "wall.jsonl",
                    "--out", "report.json")
            outs.append(tuple((workdir / name).read_bytes() for name in
                              ("wall.jsonl", "model.json", "pred.jsonl", "report.json")))
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
