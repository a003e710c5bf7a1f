"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion.  The two training benchmarks default to a fast profile
(100/40 epochs, same-setting threshold 0.10); set
``THERMOSEER_ACCEPTANCE=full`` for the full-fidelity profile (500/200
epochs, threshold 0.05).  The full suite takes minutes either way.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from thermoseer.cli import main as cli_main, save_dataset
from thermoseer.core import (
    Curve,
    DwellSchedule,
    PointId,
    ProcessSettings,
    Profile,
    deposition_time,
    reop,
)
from thermoseer.mapping import (
    CurvePairSample,
    MappingFeatures,
    TrainConfig,
    forward_many,
    init_model,
    loss_gradients,
    mse_loss,
    param_count,
    train,
)
from thermoseer.pipeline import (
    extract_curve_pairs,
    mapped_pair_reops,
    predict_next_layer,
    run_benchmark,
)
from thermoseer.reconstruct import elm_train, pod_decompose
from thermoseer.synthgen import SynthParams, generate_experiment_wall, generate_wall

FULL = os.environ.get("THERMOSEER_ACCEPTANCE", "").lower() == "full"

SAME_SETTING_EPOCHS = 500 if FULL else 100
SAME_SETTING_MEDIAN = 0.05 if FULL else 0.10
CROSS_SETTING_EPOCHS = 200 if FULL else 40
FINETUNE_EPOCHS = 200 if FULL else 100

# travel speed (mm/s), wire feed rate (m/min), layer thickness (mm) of the
# nine-wall process grid; deposition rate is the geometric bead estimate
PROCESS_GRID = [
    (8.0, 3.0, 1.5), (8.0, 6.0, 2.0), (15.0, 3.0, 1.4), (15.0, 6.0, 1.6),
    (11.0, 4.5, 1.6), (8.0, 4.5, 1.8), (15.0, 4.5, 1.5), (11.0, 3.0, 1.5),
    (11.0, 6.0, 1.8),
]


def grid_settings(row, num_layers=40):
    ts, wfr, lt = PROCESS_GRID[row]
    return ProcessSettings.build(ts, wfr, 160.0, lt, num_layers,
                                 deposition_rate=4.4 * lt * ts)


def canonical_settings(num_layers=40):
    return grid_settings(0, num_layers)


def _pass(line):
    print(f"\nACCEPTANCE {line}: PASS")


@pytest.fixture(scope="module")
def grid_walls():
    return [generate_wall(grid_settings(i), SynthParams(seed=100 + i),
                          points_per_layer=7, n=100) for i in range(9)]


@pytest.fixture(scope="module")
def cross_benchmark(grid_walls):
    """Criterion 10's benchmark: trained on eight walls, tested on the
    held-out ninth; the model is reused by criterion 11."""
    train_walls = [w for i, w in enumerate(grid_walls) if i != 4]
    samples = []
    for wall in train_walls:
        samples.extend(extract_curve_pairs(wall))
    model, _ = train(init_model(100, seed=0), samples,
                     TrainConfig(epochs=CROSS_SETTING_EPOCHS, seed=0))
    report = run_benchmark(train_walls, grid_walls[4],
                           test_layers=list(range(5, 36)), model=model)
    return model, report


class TestCriterion01ParameterCount:
    def test_count(self):
        model = init_model(100, seed=0)
        count = param_count(model)
        assert count == 186 * 100 * 100 + 43 * 100 == 1_864_300
        assert abs(count - 1_863_500) / 1_863_500 < 1e-3
        _pass(f"1 parameter count ({count:,} vs published 1.8635M)")


class TestCriterion02ResidualIdentity:
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_zero_weight_identity(self, n):
        model = init_model(n, seed=0)
        for w in model.weights:
            w[:] = 0.0
        model.scaler_fitted = True
        rng = np.random.default_rng(n)
        curve = Curve(rng.uniform(150, 1400, n), 60.0, 1)
        feats = MappingFeatures(20.5, 120.0, 52.8, 15.0)
        out = forward_many(model, [curve], [feats])[0]
        assert np.array_equal(out.temps, curve.temps)
        _pass(f"2 residual identity (N={n})")


class TestCriterion03GradientCheck:
    def test_central_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        model = init_model(100, seed=1)
        model.feature_mean = np.array([15.0, 160.0, 80.0, 30.0])
        model.feature_std = np.array([4.0, 80.0, 20.0, 17.0])
        model.scaler_fitted = True
        samples = []
        for _ in range(3):
            inp = Curve(rng.uniform(150, 1400, 100), 60.0, 1)
            target = Curve(inp.temps * rng.uniform(0.9, 1.1), 55.0, 1)
            feats = MappingFeatures(float(rng.uniform(10, 21)),
                                    float(rng.uniform(40, 280)),
                                    float(rng.uniform(50, 110)),
                                    float(rng.uniform(2, 60)))
            samples.append(CurvePairSample(inp, feats, target))
        d_w, d_b, _ = loss_gradients(model, samples)

        picker = np.random.default_rng(11)
        eps = 1e-5
        worst = 0.0
        for _ in range(20):
            layer = int(picker.integers(0, 6))
            if picker.random() < 0.8:
                arr, grads = model.weights[layer], d_w[layer]
            else:
                arr, grads = model.biases[layer], d_b[layer]
            idx = tuple(picker.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = mse_loss(model, samples)
            arr[idx] = orig - eps
            lo = mse_loss(model, samples)
            arr[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            rel = abs(numeric - grads[idx]) / max(abs(numeric), abs(grads[idx]), 1e-10)
            worst = max(worst, rel)
            assert rel < 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _pass(f"3 gradient check (worst rel err {worst:.2e} in {elapsed:.1f} s)")


class TestCriterion04LearningRateSchedule:
    def test_recorded_lr(self):
        rng = np.random.default_rng(3)
        samples = []
        for _ in range(4):
            inp = Curve(rng.uniform(150, 1400, 2), 60.0, 1)
            samples.append(CurvePairSample(
                inp, MappingFeatures(20.5, 120.0, 52.8, 15.0),
                Curve(inp.temps * 1.01, 55.0, 1)))
        model, _ = train(init_model(2, seed=0), samples,
                         TrainConfig(epochs=401, batch_size=4, seed=0))
        recorded = model.training_meta["lr_history"]
        for epoch in (99, 100, 199, 200, 399, 400):
            want = 0.001 * 0.5 ** (epoch // 100)
            assert recorded[epoch] == pytest.approx(want, rel=1e-12)
        _pass("4 learning-rate schedule (0.001 * 0.5^(epoch//100))")


class TestCriterion05PodEnergyBound:
    def test_bound_and_minimality(self):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        for _ in range(50):
            matrix = rng.standard_normal((500, 7)) * rng.uniform(0.5, 20)
            basis, rows, m_star, s = pod_decompose(matrix, 0.99)
            err = np.linalg.norm(matrix - basis @ rows.T) / np.linalg.norm(matrix)
            assert err <= np.sqrt(1.0 - 0.99) + 1e-10
            total = np.sum(s ** 2)
            prefix = np.cumsum(s ** 2) / total
            assert prefix[m_star - 1] >= 0.99 - 1e-12
            if m_star > 1:
                assert prefix[m_star - 2] < 0.99
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        _pass(f"5 POD energy bound and m* minimality ({elapsed:.1f} s)")


class TestCriterion06ElmOracle:
    def test_residual_matches_pseudoinverse(self):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        for _ in range(20):
            m_star = int(rng.integers(1, 8))
            delays = rng.uniform(0.1, 25.0, size=7)
            targets = rng.standard_normal((7, m_star)) * rng.uniform(0.5, 50)
            elm = elm_train(delays, targets, n_hidden=128,
                            seed=int(rng.integers(10_000)))
            h = np.maximum(np.outer((delays - elm.delay_mean) / elm.delay_std,
                                    elm.hidden_weights) + elm.hidden_biases, 0.0)
            res = np.linalg.norm(h @ elm.output_weights - targets)
            res_pinv = np.linalg.norm(h @ (np.linalg.pinv(h) @ targets) - targets)
            assert abs(res - res_pinv) < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        _pass(f"6 ELM vs dense pseudoinverse ({elapsed:.1f} s)")


class TestCriterion07ScheduleOracle:
    def test_brute_force_and_difference_identity(self):
        settings = canonical_settings()
        # binary-representable dwells: every term of the schedule arithmetic
        # is exact in float64, so the layer-difference identity is bit-exact
        schedule = DwellSchedule(tuple(90.0 + 3.125 * i for i in range(40)))
        rng = np.random.default_rng(9)
        for _ in range(1000):
            layer = int(rng.integers(1, 41))
            d = float(rng.uniform(0.0, 160.0))
            got = deposition_time(schedule, settings, layer, d)
            want = sum(settings.layer_print_time + schedule.for_layer(m)
                       for m in range(1, layer)) + d / settings.travel_speed
            assert abs(got - want) <= 1e-9
        for layer in range(1, 40):
            for d in (0.0, 64.0, 160.0):  # d / TS exact in float64
                delta = deposition_time(schedule, settings, layer + 1, d) \
                    - deposition_time(schedule, settings, layer, d)
                assert delta == settings.layer_print_time + schedule.for_layer(layer)
        _pass("7 deposition-time oracle (1000 queries, layer-difference identity)")


class TestCriterion08ReopAlgebra:
    def test_scaling(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            point = PointId.from_distance(3, 40.0, 8.0)
            curves = tuple(Curve(rng.uniform(50, 1500, 25), 50.0 + k, k + 1)
                           for k in range(5))
            truth = Profile(point, curves)
            for alpha in (0.5, 1.0, 1.1, 2.0):
                pred = Profile(point, tuple(
                    Curve(c.temps * alpha, c.duration, c.curve_index)
                    for c in curves))
                assert reop(pred, truth) == pytest.approx(abs(alpha - 1.0), abs=1e-12)
        _pass("8 REOP scaling algebra (100 profiles x 4 scales)")


class TestCriterion09SameSettingBenchmark:
    def test_three_seeds(self):
        for rep, wall_seed in enumerate((42, 43, 44)):
            wall = generate_wall(canonical_settings(), SynthParams(seed=wall_seed),
                                 points_per_layer=7, n=100)
            report = run_benchmark(
                wall, wall,
                train_layers=list(range(1, 31)),
                test_layers=[31, 32, 33, 34, 35],
                train_config=TrainConfig(epochs=SAME_SETTING_EPOCHS, seed=rep),
                model_seed=rep,
            )
            assert report.train_pairs == 1015
            for layer, summary in report.per_layer.items():
                assert summary.median < SAME_SETTING_MEDIAN, \
                    f"seed {wall_seed} layer {layer}: median {summary.median}"
                assert summary.maximum <= 0.2, \
                    f"seed {wall_seed} layer {layer}: max {summary.maximum}"
            worst = max(s.maximum for s in report.per_layer.values())
            print(f"  seed {wall_seed}: medians "
                  f"{[round(s.median, 4) for s in report.per_layer.values()]}, "
                  f"max {worst:.4f}")
        _pass(f"9 same-setting benchmark ({SAME_SETTING_EPOCHS} epochs, "
              f"median < {SAME_SETTING_MEDIAN}, max <= 0.2, 3 seeds)")


class TestCriterion10CrossSettingTrend:
    def test_spearman(self, cross_benchmark):
        _, report = cross_benchmark
        layers = sorted(report.mapped_per_layer)
        medians = [report.mapped_per_layer[l].median for l in layers]
        rho = float(spearmanr(layers, medians).statistic)
        assert rho < -0.5, f"Spearman {rho}"
        recon_layers = sorted(report.per_layer)
        recon = {l: round(report.per_layer[l].median, 4) for l in recon_layers[::6]}
        print(f"  mapping medians {medians[0]:.4f} (layer 5) -> {medians[-1]:.4f} "
              f"(layer 35); end-to-end medians at sampled layers: {recon}")
        _pass(f"10 cross-setting similarity trend (Spearman {rho:.3f} < -0.5)")


class TestCriterion11FinetuningBenefit:
    def test_three_seeds(self, cross_benchmark):
        pretrained, _ = cross_benchmark
        for seed in (0, 1, 2):
            test_wall = generate_experiment_wall(
                grid_settings(3, 16), SynthParams(seed=500 + seed),
                points_per_layer=7, n=100)
            tune_pairs = []
            for row, base in ((0, 600), (8, 700)):
                tune_wall = generate_experiment_wall(
                    grid_settings(row, 16), SynthParams(seed=base + seed),
                    points_per_layer=3, n=100)
                tune_pairs.extend(extract_curve_pairs(tune_wall))
            rng = np.random.default_rng(seed)
            chosen = sorted(rng.choice(len(tune_pairs), size=150, replace=False))
            subset = [tune_pairs[i] for i in chosen]
            assert len(subset) <= 150

            test_pairs = extract_curve_pairs(test_wall)
            before = float(np.median(mapped_pair_reops(pretrained, test_pairs)))
            tuned, _ = train(pretrained, subset,
                             TrainConfig(epochs=FINETUNE_EPOCHS, seed=seed))
            after = float(np.median(mapped_pair_reops(tuned, test_pairs)))
            print(f"  seed {seed}: simulation-only median {before:.4f} -> "
                  f"fine-tuned {after:.4f}")
            assert after < before
        _pass("11 fine-tuning benefit (median strictly improves, 3 seeds, "
              "<= 150 pairs)")


class TestCriterion12Latency:
    def test_budgets(self):
        settings = canonical_settings()
        wall = generate_wall(settings, SynthParams(seed=42), points_per_layer=7, n=100)
        model = init_model(100, seed=0)
        for w in model.weights:
            w *= 0.01
        model.scaler_fitted = True
        model.feature_mean = np.array([20.5, 160.0, 52.8, 30.0])
        model.feature_std = np.array([4.0, 80.0, 20.0, 17.0])
        measured = wall.profiles_on(30)

        predict_next_layer(model, measured, settings, wall.schedule)  # warm-up
        runs = [predict_next_layer(model, measured, settings, wall.schedule)
                for _ in range(10)]
        assert all(p.elapsed < 0.1 for p in runs)
        map_best = min(p.map_seconds for p in runs)
        recon_best = min(p.reconstruct_seconds for p in runs)
        assert map_best < 0.01
        assert recon_best < 0.02

        curves = [c for prof in measured for c in prof.curves]
        feats = [MappingFeatures(20.5, 160.0, 52.8, 45.0)] * len(curves)
        assert len(curves) == 35
        forward_many(model, curves, feats)  # warm-up
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            forward_many(model, curves, feats)
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.01
        _pass(f"12 latency (total {max(p.elapsed for p in runs) * 1e3:.1f} ms "
              f"across 10 runs; map {map_best * 1e3:.2f} ms; "
              f"reconstruct {recon_best * 1e3:.2f} ms; "
              f"35 curves {min(times) * 1e3:.2f} ms)")


class TestCriterion13Determinism:
    def test_pipeline_twice_byte_identical(self, tmp_path, monkeypatch):
        settings = ProcessSettings.build(8.0, 3.0, 160.0, 1.5, 12,
                                         layer_print_time=20.5,
                                         deposition_rate=52.8)
        wall = generate_wall(settings, SynthParams(seed=7), points_per_layer=3, n=40)
        artifacts = []
        for tag in ("one", "two"):
            workdir = tmp_path / tag
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            save_dataset("wall.jsonl", wall)
            assert cli_main(["train", "--data", "wall.jsonl", "--out", "model.json",
                             "--epochs", "5", "--batch-size", "32",
                             "--seed", "1", "--init-seed", "2"]) == 0
            assert cli_main(["predict", "--ckpt", "model.json", "--data", "wall.jsonl",
                             "--layer", "6", "--out", "pred.jsonl"]) == 0
            assert cli_main(["eval", "--pred", "pred.jsonl", "--truth", "wall.jsonl",
                             "--out", "report.json", "--csv", "box.csv"]) == 0
            artifacts.append(tuple(
                (workdir / name).read_bytes()
                for name in ("wall.jsonl", "model.json", "pred.jsonl",
                             "report.json", "box.csv")))
        assert artifacts[0] == artifacts[1]
        report = json.loads(artifacts[0][3])
        assert "6" in report["per_layer"]
        _pass("13 determinism (generate -> train 5 epochs -> predict -> eval, "
              "byte-identical artifacts)")
