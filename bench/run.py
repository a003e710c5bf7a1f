"""thermoseer benchmark.

    python3 bench/run.py --workload {train,online,cli_cycle} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` of the
checkout, never from an installed copy; without ``src/thermoseer`` the
script exits with a non-zero code before measuring anything.

``--trace 0`` measures the workload untraced and prints its end-to-end
metrics.  ``--trace 1`` is the traced run: the workload runs untraced for
half the time, then traced for the other half, and the other two workloads
run once traced at their smallest size, so every per-layer metric comes
from the workload where its layer does the work (``mapping.*`` from
``train``; ``reconstruct.*`` and the online ``pipeline.*`` calls from
``online``; ``cli.*``, ``preprocess.*`` and the experiment wall from
``cli_cycle``).  The difference between the workload's untraced and traced
``op_cost_p50`` is reported as ``trace.overhead_pct``.

Stdout holds the machine block, one line per metric with its unit and
sample count, and as its last line the result as one JSON object.  The same
result, with every figure, is written to ``bench/out/``; a traced run also
writes its spans (JSON Lines) and a per-module self-time table there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SRC = ROOT / "src"

# end-to-end metrics in the order they are printed; units are fixed
END_TO_END = ("setup_s", "op_cost_p50", "model_error", "peak_rss_mb")


def _bootstrap() -> None:
    if not (SRC / "thermoseer" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'thermoseer'} not found; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import thermoseer

    if Path(thermoseer.__file__).resolve().parent != SRC / "thermoseer":
        raise SystemExit(f"error: imported thermoseer from {thermoseer.__file__}")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def machine() -> dict:
    """CPU, caches, Python, numpy and BLAS, and the thread variables as found.
    threadpoolctl is not installed, so the BLAS thread count is whatever
    OpenBLAS picks by default when OPENBLAS_NUM_THREADS is unset."""
    import numpy as np

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{base}/level"), _read(f"{base}/size")
        if level and size and level.strip() in ("2", "3"):
            caches[f"L{level.strip()}"] = size.strip()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "THERMOSEER_THREADS")},
        "blas_threads": "environment default (threadpoolctl not installed)",
    }


# --------------------------------------------------------------------------
# per-layer metrics of the traced run


def _durations(tracer, name: str) -> list[float]:
    return [s.duration for s in tracer.spans if s.name == name]


def _median(values, scale: float = 1.0) -> float | None:
    values = list(values)
    return scale * statistics.median(values) if values else None


def per_layer(sections: dict, sizes, overhead_pct: float | None) -> dict:
    """Every per-layer metric, each from its home workload's traced section;
    ``sections`` maps workload name to (tracer, outcome)."""
    from spans import self_times
    from thermoseer.mapping import layer_dims

    train, online, cycle = (sections[w][0] for w in ("train", "online", "cli_cycle"))

    def med(tracer, name, scale):
        return _median(_durations(tracer, name), scale)

    def self_med(tracer, name, scale):
        own = self_times(tracer.spans)
        return _median((o for s, o in zip(tracer.spans, own) if s.name == name), scale)

    def per(tracer, total, count):
        n = tracer.counts.get(count, 0)
        return tracer.counts.get(total, 0) / n if n else None

    timed = [s for s in train.spans if s.name == "mapping.train"
             and (s.parent is None or train.spans[s.parent].name != "bench.warmup")]
    train_s = sum(s.duration for s in timed)
    steps = train.counts.get("mapping.steps", 0)
    pairs = train.counts.get("mapping.pairs", 0)
    step_ms = 1e3 * train_s / steps if steps else None
    grad_ms = med(train, "mapping.loss_gradients", 1e3)
    # forward, weight gradients, and input gradients of all maps but the first
    dims = layer_dims(sizes.n)
    weights = [a * b for a, b in zip(dims[:-1], dims[1:])]
    flops_per_pair = 2 * (3 * sum(weights) - weights[0])

    m = {
        "mapping.train_step_ms": (step_ms, "ms"),
        "mapping.loss_gradients_ms": (grad_ms, "ms"),
        "mapping.adam_ms": (step_ms - grad_ms if step_ms and grad_ms else None, "ms"),
        "mapping.gflops": (flops_per_pair * pairs / train_s / 1e9 if train_s else None,
                           "GFLOP/s"),
        "mapping.steps": (steps, "count"),
        "mapping.pairs": (pairs, "count"),
        "mapping.forward_many_ms": (med(online, "mapping.forward_many", 1e3), "ms"),
        "reconstruct.fit_layer_ms": (med(online, "reconstruct.fit_layer", 1e3), "ms"),
        "reconstruct.pod_decompose_ms": (med(online, "reconstruct.pod_decompose", 1e3), "ms"),
        "reconstruct.elm_train_ms": (med(online, "reconstruct.elm_train", 1e3), "ms"),
        "reconstruct.m_star_mean": (per(online, "reconstruct.m_star", "reconstruct.layers"),
                                    "count"),
        "reconstruct.reconstruct_stacked_ms": (
            med(online, "reconstruct.reconstruct_stacked", 1e3), "ms"),
        "pipeline.predict_next_layer_self_ms": (
            self_med(online, "pipeline.predict_next_layer", 1e3), "ms"),
        "pipeline.predict_point_ms": (med(online, "pipeline.predict_point", 1e3), "ms"),
        "pipeline.render_field_self_ms": (
            self_med(online, "pipeline.render_field", 1e3), "ms"),
        "pipeline.extract_curve_pairs_s": (med(train, "pipeline.extract_curve_pairs", 1),
                                           "s"),
    }
    for op in ("save_checkpoint", "load_checkpoint", "save_dataset", "load_dataset"):
        m[f"cli.{op}_s"] = (med(cycle, f"cli.{op}", 1), "s")
    m["cli.checkpoint_bytes"] = (per(cycle, "cli.checkpoint_bytes", "cli.cycles"), "bytes")
    m["cli.dataset_bytes"] = (per(cycle, "cli.dataset_bytes", "cli.cycles"), "bytes")
    for sub in ("generate", "train", "finetune", "predict", "field", "eval"):
        m[f"cli.{sub}_s"] = (med(cycle, f"cli.{sub}", 1), "s")
    m["synthgen.generate_wall_s"] = (med(train, "synthgen.generate_wall", 1), "s")
    m["synthgen.generate_experiment_wall_s"] = (
        med(cycle, "synthgen.generate_experiment_wall", 1), "s")
    m["preprocess.split_experiment_ms"] = (med(cycle, "preprocess.split_experiment", 1e3),
                                           "ms")
    m["preprocess.resample_ms"] = (med(cycle, "preprocess.resample", 1e3), "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.spans"] = (sum(len(t.spans) for t, _ in sections.values()), "count")
    return m


# --------------------------------------------------------------------------
# runs


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        out: Path = OUT) -> dict:
    """Run one workload, untraced or as the traced run; ``out`` receives
    the scratch files while it runs and the spans file of a traced run."""
    import workloads as wl
    from spans import Tracer, module_table

    out.mkdir(exist_ok=True)
    sizes = sizes or wl.Sizes()
    if not trace:
        outcome = wl.WORKLOADS[workload](wl.Context(seed, seconds, sizes, workdir=str(out)))
        return {"outcomes": {workload: outcome}, "metrics": outcome.metrics}

    untraced = wl.WORKLOADS[workload](wl.Context(seed, seconds / 2, sizes, workdir=str(out)))
    sections = {}
    for name in sorted(wl.WORKLOADS, key=lambda w: w != workload):
        tracer = Tracer()
        with tracer.installed():
            ctx = wl.Context(seed, seconds / 2 if name == workload else 0, sizes,
                             tracer, str(out))
            sections[name] = (tracer, wl.WORKLOADS[name](ctx))
    base = untraced.metrics["op_cost_p50"][0]  # (value, unit, samples)
    traced = sections[workload][1].metrics["op_cost_p50"][0]
    overhead = 100.0 * (traced / base - 1.0)

    with open(out / f"{workload}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as fh:
        for name, (tracer, _) in sections.items():
            for index, span in enumerate(tracer.spans):
                fh.write(json.dumps({"workload": name, "id": index, "name": span.name,
                                     "start": span.start, "end": span.end,
                                     "parent": span.parent, "thread": span.thread}) + "\n")
    return {
        "outcomes": {f"{workload} (untraced)": untraced,
                     **{name: outcome for name, (_, outcome) in sections.items()}},
        "metrics": per_layer(sections, sizes, overhead),
        "self_time": {name: module_table(t.spans) for name, (t, _) in sections.items()},
    }


def _number(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "online", "cli_cycle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    outcomes = result["outcomes"]
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    metrics = {name: {"value": _number(m[0]), "unit": m[1]}
               for name, m in result["metrics"].items()}
    line = {"correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
            "attempted": attempted, "failed": failed, "metrics": metrics}

    info = machine()
    print("machine: " + json.dumps(info))
    for name, m in result["metrics"].items():
        count = f" samples={m[2]}" if len(m) > 2 and m[2] is not None else ""
        print(f"{name:40s} {m[0]!r:>24} {m[1]}{count}")
    for label, outcome in outcomes.items():
        print(f"-- {label}: failed_share {outcome.failed}/{outcome.attempted}")
        for name, fig in outcome.figures.items():
            extra = "".join(f" {k}={fig[k]}" for k in ("samples", "percentile") if k in fig)
            print(f"   {name:37s} {fig['value']!r:>24} {fig['unit']}{extra}")
        for note in outcome.notes[:20]:
            print(f"   FAILED {note}")
    for label, table in result.get("self_time", {}).items():
        print(f"-- self time by module ({label}, traced)")
        for module, row in table.items():
            print(f"   {module:12s} {row['self_s']:10.4f} s {100 * row['share']:6.2f} % "
                  f"{row['spans']} spans")

    detail = {"argv": vars(args), "machine": info, "result": line,
              "figures": {k: o.figures for k, o in outcomes.items()},
              "failed_share": {k: o.failed / max(o.attempted, 1) for k, o in outcomes.items()},
              "notes": {k: o.notes for k, o in outcomes.items()},
              "samples": {k: o.samples for k, o in outcomes.items()},
              "self_time": result.get("self_time")}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
