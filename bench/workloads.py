"""The benchmark's three workloads, each driven in one process through the
public functions of the ``thermoseer`` modules.

Every call into the package goes through a module attribute
(``pipeline.predict_next_layer``, ``cli.main``, ...) looked up at call time,
so a traced run sees it.  The seed only shapes the inputs: the noise of the
synthetic walls.  Model initialisation, shuffling and the online ELM keep
seed 0, as the acceptance suite does, so quality figures move with the data
and not with a lucky initialisation.

Each workload returns an :class:`Outcome`: the end-to-end metrics every
workload reports under one name (``op_cost_p50`` is a mini-batch step on
``train``, a layer with its points and frames on ``online`` and a whole CLI
cycle on ``cli_cycle``, each in units of a :class:`Yardstick`), plus the
workload's own figures in plain units (``train_pairs_per_s``,
``layer_ms_tail``, ...), each with its sample count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from thermoseer import cli, mapping, pipeline, synthgen
from thermoseer.core import ProcessSettings

from spans import NULL

TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)  # candidate percentiles, in tenths

# Set-up is repeated this often while a workload runs, so its median spans
# the run's whole window and not only its first second: the host's speed
# drifts over tens of seconds.
SETUP_EVERY_S = 5.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the paper's canonical wall."""

    n: int = 100
    num_layers: int = 40
    points: int = 7
    train_layers: int = 30  # curve pairs come from transitions 1..train_layers
    batch_size: int = 256
    epochs: int = 1  # per timed train call
    prep_epochs: int = 2  # checkpoint the online workload replays
    cli_epochs: int = 2
    frames: int = 5  # render_field calls per online layer
    setup_repeats: int = 3
    noise_sd: float = 1.0  # degC; makes the seeded walls differ


@dataclass
class Context:
    """What one workload run gets: its seed, how long to measure, the
    problem sizes, the tracer, and the directory for its scratch files.
    ``seconds`` = 0 asks for the smallest complete run."""

    seed: int
    seconds: float
    sizes: Sizes = Sizes()
    tracer: object = NULL
    workdir: str = "."


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str, int | None]]
    figures: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)  # raw timings, s


def canonical_settings(num_layers: int) -> ProcessSettings:
    """Row 0 of the acceptance suite's process grid: 8 mm/s, 3 m/min, 1.5 mm."""
    return ProcessSettings.build(8.0, 3.0, 160.0, 1.5, num_layers,
                                 deposition_rate=4.4 * 1.5 * 8.0)


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten samples beyond it, and its
    value; (None, None) below twenty samples."""
    for permille in TAIL_PERMILLE:
        if len(samples) * (1000 - permille) >= 10 * 1000:
            return permille / 10, float(np.percentile(samples, permille / 10))
    return None, None


def timing_figures(name: str, samples: list[float], unit: str) -> dict[str, dict]:
    p, value = tail(samples)
    out = {f"{name}_p50": {"value": statistics.median(samples), "unit": unit,
                           "samples": len(samples)}}
    out[f"{name}_tail"] = {"value": value, "unit": unit, "samples": len(samples),
                           "percentile": p}
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(setup: list[float], cost: float, operations: int,
                error: float | None) -> dict:
    """The metrics every workload reports, as (value, unit, sample count):
    median set-up seconds, the median operation cost in yardsticks, the
    quality figure, and peak memory."""
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_cost_p50": (cost, "yardstick", operations),
        "model_error": (error, "1", None),
        "peak_rss_mb": (peak_rss_mb(), "MB", None),
    }


class Yardstick:
    """A fixed kernel that uses numpy and Python the way a workload does but
    runs no thermoseer code: a forward pass (``batch`` > 0; optionally with a
    backward pass and an elementwise Adam-like update) of a random net with
    the mapping net's shapes, a per-position loop of scalar numpy calls like
    the render loop, and a JSON round trip of floats like the file formats.

    Timed before and after each operation, it gauges how fast the shared
    host runs at that moment.  An operation's cost is its time over the mean
    of those two yardstick times, which cancels the host's drift: on a
    shared 2-vCPU virtual machine the median layer time of ``online``
    drifts 20-30% between runs while the cost stays within a few percent.  A change to thermoseer
    moves the cost; nothing in thermoseer moves the yardstick."""

    def __init__(self, n: int, batch: int, backward: bool = False,
                 interp_calls: int = 0, json_floats: int = 0) -> None:
        rng = np.random.default_rng(0)
        dims = [n + 4, 3 * n, 6 * n, 12 * n, 6 * n, 3 * n, n]
        self.weights = [rng.uniform(-1.0, 1.0, (a, b)) / math.sqrt(a)
                        for a, b in zip(dims[:-1], dims[1:])]
        self.x = rng.standard_normal((batch, dims[0])) if batch else None
        self.backward = backward
        self.bounds = np.cumsum(rng.uniform(1.0, 2.0, 6))
        self.curve = rng.standard_normal(n)
        self.interp_calls = interp_calls
        self.floats = rng.standard_normal(json_floats).tolist()

    def seconds(self) -> float:
        t0 = time.perf_counter()
        if self.x is not None:
            acts = [self.x]
            for w in self.weights:
                acts.append(np.maximum(acts[-1] @ w, 0.0))
        if self.backward:
            grad = acts[-1]
            for w, below in zip(reversed(self.weights), reversed(acts[:-1])):
                dw = below.T @ grad
                _ = w - 1e-3 * dw / (np.abs(dw) + 1e-8)
                grad = grad @ w.T
        for i in range(self.interp_calls):
            tau = self.bounds[-1] * i / self.interp_calls
            k = int(np.searchsorted(self.bounds, tau, side="right"))
            grid = np.linspace(0.0, self.bounds[k], self.curve.size)
            np.interp(tau, grid, self.curve)
        if self.floats:
            json.loads(json.dumps(self.floats))
        return time.perf_counter() - t0


def bracketed(times: list[float], rulers: list[float]) -> list[float]:
    """Each time over the mean of the yardstick timed just before it and
    just after it (``rulers`` holds one more sample than ``times``)."""
    return [t / ((a + b) / 2) for t, a, b in zip(times, rulers, rulers[1:])]


def _wall(sizes: Sizes, seed: int):
    return synthgen.generate_wall(
        canonical_settings(sizes.num_layers),
        synthgen.SynthParams(seed=seed, noise_sd=sizes.noise_sd),
        points_per_layer=sizes.points, n=sizes.n)


def _train_layers(sizes: Sizes) -> list[int]:
    return list(range(1, sizes.train_layers + 1))


def _history_ok(history: list[float], reference: list[float] | None) -> bool:
    return all(math.isfinite(x) for x in history) and (
        reference is None or history == reference)


# --------------------------------------------------------------------------
# train: mini-batch Adam pretraining of the mapping net


def _train_setup(ctx: Context, setup: list[float]):
    t0 = time.perf_counter()
    wall = _wall(ctx.sizes, ctx.seed)
    pairs = pipeline.extract_curve_pairs(wall, _train_layers(ctx.sizes))
    setup.append(time.perf_counter() - t0)
    return pairs


def run_train(ctx: Context) -> Outcome:
    """Set-up is wall generation plus curve-pair extraction, repeated during
    the run (see :data:`SETUP_EVERY_S`).  After a one-epoch warm-up call,
    the same ``train`` call (fixed init and shuffle seed) repeats until
    ``seconds`` pass; every call must return the same finite loss history."""
    sizes, tracer = ctx.sizes, ctx.tracer
    setup: list[float] = []
    for _ in range(sizes.setup_repeats):
        pairs = _train_setup(ctx, setup)

    init = mapping.init_model(sizes.n, seed=0)
    config = mapping.TrainConfig(epochs=sizes.epochs, batch_size=sizes.batch_size, seed=0)
    steps = sizes.epochs * math.ceil(len(pairs) / sizes.batch_size)
    with tracer.span("bench.warmup"):
        mapping.train(init, pairs, mapping.TrainConfig(
            epochs=1, batch_size=sizes.batch_size, seed=0))

    yardstick = Yardstick(sizes.n, sizes.batch_size, backward=True)
    out = Outcome(metrics={})
    reference, call_s, ruler_s = None, [], [yardstick.seconds()]
    start = last_setup = time.perf_counter()
    while not call_s or time.perf_counter() - start < ctx.seconds:
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            _train_setup(ctx, setup)
            last_setup = time.perf_counter()
        t0 = time.perf_counter()
        _, history = mapping.train(init, pairs, config)
        call_s.append(time.perf_counter() - t0)
        ruler_s.append(yardstick.seconds())
        tracer.count("mapping.steps", steps)
        tracer.count("mapping.pairs", sizes.epochs * len(pairs))
        out.attempted += 1
        if not _history_ok(history, reference):
            out.failed += 1
            out.notes.append(f"train call {len(call_s)}: loss history {history}")
        reference = reference or history

    if tracer.active:
        batch = pairs[:sizes.batch_size]
        for _ in range(5):
            mapping.loss_gradients(init, batch)

    out.samples = {"setup": setup, "train_call": call_s, "yardstick": ruler_s}
    step_ms = [1e3 * s / steps for s in call_s]
    pairs_per_s = [sizes.epochs * len(pairs) / s for s in call_s]
    costs = bracketed([c / steps for c in call_s], ruler_s)
    out.metrics = _end_to_end(setup, statistics.median(costs), len(costs), reference[-1])
    out.figures = {
        "train_pairs_per_s": {"value": statistics.median(pairs_per_s), "unit": "1/s",
                              "samples": len(call_s)},
        "final_loss": {"value": reference[-1], "unit": "1", "samples": len(call_s)},
        "step_ms_p50": {"value": statistics.median(step_ms), "unit": "ms",
                        "samples": len(call_s)},
        "pairs": {"value": len(pairs), "unit": "count"},
        "steps_per_call": {"value": steps, "unit": "count"},
    }
    return out


# --------------------------------------------------------------------------
# online: a controller replaying a wall layer by layer


def _replay_layer(model, wall, layer: int, frames: int):
    """One closed-loop step: map the layer below, reconstruct every point of
    the new layer, render ``frames`` field frames across its horizon.
    Returns (prediction, point profiles, layer seconds, frame seconds)."""
    settings, schedule = wall.settings, wall.schedule
    measured = wall.profiles_on(layer - 1)
    t0 = time.perf_counter()
    prediction = pipeline.predict_next_layer(model, measured, settings, schedule)
    points = [pipeline.predict_point(prediction, p.point.axial_distance, settings)
              for p in measured]
    t1 = time.perf_counter()
    horizon = float(np.sum(prediction.reconstruction.durations))
    frame_s, rendered = [], []
    for k in range(frames):
        local_time = horizon * (k + 0.5) / frames
        f0 = time.perf_counter()
        rendered.append(pipeline.render_field(prediction, settings, schedule, local_time))
        frame_s.append(time.perf_counter() - f0)
    finite = all(np.all(np.isfinite(c.temps)) for p in points for c in p.curves) and all(
        np.all(np.isfinite(f.temps)) for f in rendered)
    return prediction, points, t1 - t0, frame_s, finite


ONLINE_FRAME_POSITIONS = 160  # render_field's default


def run_online(ctx: Context) -> Outcome:
    """Before the clock: generate and save the wall, train briefly and save
    the checkpoint.  Set-up is load_checkpoint + load_dataset + one warm-up
    layer, repeated during the run (see :data:`SETUP_EVERY_S`).  Then layers
    2.. are replayed in turn, in passes, until ``seconds`` pass; REOP is
    scored outside the timed region and every pass must reproduce the first
    pass's REOPs."""
    out = Outcome(metrics={})
    tmp = tempfile.mkdtemp(prefix="online-", dir=ctx.workdir)
    try:
        sizes = ctx.sizes
        data_path = os.path.join(tmp, "wall.jsonl")
        ckpt_path = os.path.join(tmp, "model.json")
        wall = _wall(sizes, ctx.seed)
        cli.save_dataset(data_path, wall)
        pairs = pipeline.extract_curve_pairs(wall, _train_layers(sizes))
        model, _ = mapping.train(mapping.init_model(sizes.n, seed=0), pairs,
                                 mapping.TrainConfig(epochs=sizes.prep_epochs,
                                                     batch_size=sizes.batch_size, seed=0))
        cli.save_checkpoint(ckpt_path, model)
        del wall, pairs, model

        setup: list[float] = []
        for _ in range(sizes.setup_repeats):
            model, wall, layers = _online_setup(ckpt_path, data_path, sizes, setup)
        _replay(ctx, out, model, wall, layers, setup,
                lambda: _online_setup(ckpt_path, data_path, sizes, setup))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def _online_setup(ckpt_path: str, data_path: str, sizes: Sizes, setup: list[float]):
    t0 = time.perf_counter()
    model = cli.load_checkpoint(ckpt_path)
    wall = cli.load_dataset(data_path)
    layers = [l for l in wall.layers() if l - 1 in set(wall.layers())]
    _replay_layer(model, wall, layers[0], sizes.frames)
    setup.append(time.perf_counter() - t0)
    return model, wall, layers


def _replay(ctx: Context, out: Outcome, model, wall, layers, setup, set_up_again) -> None:
    """The timed closed loop of :func:`run_online`; fills ``out``."""
    sizes, tracer = ctx.sizes, ctx.tracer
    # the layer's mapping and the frames' position loop each get a yardstick
    # of their own kind: they slow down differently on a busy host
    map_ruler = Yardstick(sizes.n, sizes.points * 5)
    render_ruler = Yardstick(sizes.n, 0, interp_calls=ONLINE_FRAME_POSITIONS * sizes.frames)
    first_pass: dict[int, list[float]] = {}
    layer_s, frame_s, m_stars = [], [], []
    map_s, render_s = [map_ruler.seconds()], [render_ruler.seconds()]
    start = last_setup = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < ctx.seconds:
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            set_up_again()
            last_setup = time.perf_counter()
        for layer in layers:
            out.attempted += 1
            prediction, points, spent, frames, finite = _replay_layer(
                model, wall, layer, sizes.frames)
            layer_s.append(spent)
            frame_s.extend(frames)
            map_s.append(map_ruler.seconds())
            render_s.append(render_ruler.seconds())
            m_stars.append(prediction.reconstruction.m_star)
            reops = pipeline.evaluate(points, wall.profiles_on(layer)).reops()
            expected = first_pass.setdefault(layer, reops)
            if not finite or reops != expected:
                out.failed += 1
                out.notes.append(f"layer {layer} pass {passes}: finite={finite}, "
                                 f"REOP {reops} vs {expected}")
            if passes and time.perf_counter() - start >= ctx.seconds:
                break
        passes += 1
    tracer.count("reconstruct.m_star", sum(m_stars))
    tracer.count("reconstruct.layers", len(m_stars))

    out.samples = {"setup": setup, "layer": layer_s, "frame": frame_s,
                   "yardstick_map": map_s, "yardstick_render": render_s}
    reop_median = statistics.median(r for reops in first_pass.values() for r in reops)
    busy = sum(layer_s) + sum(frame_s)
    layer_ms = [1e3 * s for s in layer_s]
    frame_ms = [1e3 * s for s in frame_s]
    frames_s = [sum(frame_s[i:i + sizes.frames]) for i in range(0, len(frame_s), sizes.frames)]
    costs = [a + b for a, b in zip(bracketed(layer_s, map_s), bracketed(frames_s, render_s))]
    out.metrics = _end_to_end(setup, statistics.median(costs), len(costs), reop_median)
    out.figures = {
        **timing_figures("layer_ms", layer_ms, "ms"),
        **timing_figures("frame_ms", frame_ms, "ms"),
        "online_layers_per_s": {"value": len(layer_s) / busy, "unit": "1/s",
                                "samples": len(layer_s)},
        "reop_median": {"value": reop_median, "unit": "1",
                        "samples": sum(len(r) for r in first_pass.values())},
        "passes": {"value": passes, "unit": "count"},
    }


# --------------------------------------------------------------------------
# cli_cycle: generate -> train -> finetune -> predict -> field -> eval


FIELD_TIMES = "6.0,48.0,93.0"
CLI_JSON_FLOATS = 200_000
CONFIG_WRITES = 25

# artifact files and the subcommand that writes them
ARTIFACTS = {
    "generate": ("wall.1.jsonl", "wall.2.jsonl"),
    "train": ("pre.json", "pre_loss.csv"),
    "finetune": ("tuned.json", "tune_loss.csv"),
    "predict": ("pred.jsonl",),
    "field": ("field.csv",),
    "eval": ("report.json", "box.csv"),
}


def _write_configs(cfg_dir: str, seed: int, sizes: Sizes) -> None:
    walls = (f"seed = {seed}\nn = {sizes.n}\nnum_layers = {sizes.num_layers}\n"
             f"points_per_layer = {sizes.points}\n"
             f"wall.1.style = simulation\nwall.1.noise_sd = {sizes.noise_sd}\n"
             "wall.2.style = experiment\n")
    training = (f"epochs = {sizes.cli_epochs}\nbatch_size = {sizes.batch_size}\n"
                f"seed = 0\ninit_seed = 0\nlayers = 1:{sizes.train_layers}\n")
    for name, text in (("walls.cfg", walls), ("train.cfg", training)):
        with open(os.path.join(cfg_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _commands(cfg: str, layer: int) -> list[tuple[str, list[str]]]:
    """The cycle's subcommands, with artifact paths relative to the cycle
    directory (prediction files record their input paths)."""
    return [
        ("generate", ["generate", "--config", os.path.join(cfg, "walls.cfg"),
                      "--out", "wall.{id}.jsonl"]),
        ("train", ["train", "--config", os.path.join(cfg, "train.cfg"),
                   "--data", "wall.1.jsonl", "--out", "pre.json",
                   "--loss-csv", "pre_loss.csv"]),
        ("finetune", ["finetune", "--config", os.path.join(cfg, "train.cfg"),
                      "--ckpt", "pre.json", "--data", "wall.2.jsonl",
                      "--out", "tuned.json", "--loss-csv", "tune_loss.csv"]),
        ("predict", ["predict", "--ckpt", "tuned.json", "--data", "wall.2.jsonl",
                     "--layer", str(layer), "--out", "pred.jsonl"]),
        ("field", ["field", "--ckpt", "tuned.json", "--data", "wall.2.jsonl",
                   "--layer", str(layer), "--times", FIELD_TIMES, "--out", "field.csv"]),
        ("eval", ["eval", "--pred", "pred.jsonl", "--truth", "wall.2.jsonl",
                  "--out", "report.json", "--csv", "box.csv"]),
    ]


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_cli_cycle(ctx: Context) -> Outcome:
    """Set-up writes the two config files, :data:`CONFIG_WRITES` times before
    every cycle (the median write is reported).  Whole CLI cycles run in
    fresh directories until ``seconds`` pass, at least two of them (one for
    ``seconds`` = 0); every subcommand must exit 0, every artifact must be
    byte-identical to the first cycle's, and the eval report must hold the
    predicted layer."""
    sizes, tracer = ctx.sizes, ctx.tracer
    layer = min(31, sizes.num_layers - 5)
    min_cycles = 2 if ctx.seconds > 0 else 1
    out = Outcome(metrics={})
    home = os.getcwd()
    tmp = os.path.abspath(tempfile.mkdtemp(prefix="cli-", dir=ctx.workdir))
    try:
        cfg = os.path.join(tmp, "cfg")
        os.mkdir(cfg)
        setup = []

        yardstick = Yardstick(sizes.n, sizes.batch_size, backward=True,
                              json_floats=CLI_JSON_FLOATS)
        reference: dict[str, str] = {}
        report_median = None
        cycle_s, ruler_s = [], [yardstick.seconds()]
        sub_s = {name: [] for name in ARTIFACTS}
        sub_cost = {name: [] for name in ARTIFACTS}
        start = time.perf_counter()
        while len(cycle_s) < min_cycles or time.perf_counter() - start < ctx.seconds:
            for _ in range(CONFIG_WRITES):
                t0 = time.perf_counter()
                _write_configs(cfg, ctx.seed, sizes)
                setup.append(time.perf_counter() - t0)
            run = os.path.join(tmp, f"cycle{len(cycle_s)}")
            os.mkdir(run)
            codes = {}
            os.chdir(run)
            try:
                spent = 0.0
                for name, argv in _commands(cfg, layer):
                    s0 = time.perf_counter()
                    with tracer.span(f"cli.{name}"), contextlib.redirect_stdout(io.StringIO()):
                        try:
                            codes[name] = cli.main(argv)
                        except Exception as exc:  # a traceback is a failed subcommand
                            codes[name] = repr(exc)
                    sub_s[name].append(time.perf_counter() - s0)
                    ruler_s.append(yardstick.seconds())
                    spent += sub_s[name][-1]
                    sub_cost[name] += bracketed(sub_s[name][-1:], ruler_s[-2:])
                    if codes[name] != 0:
                        break
                cycle_s.append(spent)
            finally:
                os.chdir(home)

            for name in ARTIFACTS:
                out.attempted += 1
                problem = _check_subcommand(name, codes.get(name), run, reference, layer)
                if problem:
                    out.failed += 1
                    out.notes.append(f"cycle {len(cycle_s)} {name}: {problem}")
                elif name == "eval" and report_median is None:
                    report_median = _report(run)[str(layer)]["median"]
            if codes.get("train") == 0:
                tracer.count("cli.dataset_bytes",
                             os.path.getsize(os.path.join(run, "wall.1.jsonl")))
                tracer.count("cli.checkpoint_bytes",
                             os.path.getsize(os.path.join(run, "pre.json")))
                tracer.count("cli.cycles", 1)
            shutil.rmtree(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out.samples = {"setup": setup, "cycle": cycle_s, **sub_s, "yardstick": ruler_s}
    # a cycle's cost: the sum of its subcommands' median costs, which damps
    # a subcommand whose bracketing yardsticks caught a change of host speed
    cost = sum(statistics.median(c) for c in sub_cost.values() if c)
    out.metrics = _end_to_end(setup, cost, len(cycle_s), report_median)
    out.figures = {
        "cycle_s": {"value": statistics.median(cycle_s), "unit": "s",
                    "samples": len(cycle_s)},
        **{f"{name}_s": {"value": statistics.median(v), "unit": "s", "samples": len(v)}
           for name, v in sub_s.items() if v},
        "eval_reop_median": {"value": report_median, "unit": "1", "samples": 1},
    }
    return out


def _report(run: str) -> dict:
    with open(os.path.join(run, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def _check_subcommand(name, code, run, reference, layer) -> str | None:
    """Why the subcommand failed its checks, or None.  The first cycle's
    digests become the reference of the later cycles."""
    if code != 0:
        return f"exit {code}"
    for artifact in ARTIFACTS[name]:
        digest = _digest(os.path.join(run, artifact))
        if reference.setdefault(artifact, digest) != digest:
            return f"{artifact} differs from the first cycle"
    if name == "eval" and str(layer) not in _report(run):
        return f"report lacks layer {layer}"
    return None


WORKLOADS = {"train": run_train, "online": run_online, "cli_cycle": run_cli_cycle}
