"""Tests of the benchmark itself: every workload at a tiny size, the traced
run, the self-time arithmetic, and the restoration of wrapped attributes.

    python3 -m pytest bench -q
"""

import importlib
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Sizes(n=8, num_layers=8, points=3, train_layers=2, batch_size=16, epochs=1,
                prep_epochs=1, cli_epochs=1, frames=2, setup_repeats=1)


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.WRAPPED}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name, tmp_path):
    # seconds > 0 makes cli_cycle run two cycles and compare their artifacts
    outcome = wl.WORKLOADS[name](wl.Context(3, 0.01, TINY, workdir=str(tmp_path)))
    assert outcome.failed == 0, outcome.notes
    assert outcome.attempted >= 1
    assert set(outcome.metrics) == set(run.END_TO_END)
    for value, _, _ in outcome.metrics.values():
        assert math.isfinite(value) and value > 0
    assert list(tmp_path.iterdir()) == []


def test_same_seed_gives_same_quality(tmp_path):
    first, second = (wl.run_train(wl.Context(5, 0, TINY, workdir=str(tmp_path)))
                     for _ in range(2))
    assert first.metrics["model_error"] == second.metrics["model_error"]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    before = _originals()
    result = run.run("online", 4, 0, True, TINY, tmp_path)
    assert _originals() == before
    assert all(o.failed == 0 for o in result["outcomes"].values())
    missing = [k for k, (v, _) in result["metrics"].items() if v is None]
    assert missing == []
    assert set(result["self_time"]["online"]) == set(spans.MODULES)
    assert (tmp_path / "online-seed4-spans.jsonl").stat().st_size > 0


def test_wrapped_attributes_are_restored_when_a_workload_raises(tmp_path, monkeypatch):
    def fail(sizes):
        raise RuntimeError("workload failed")

    monkeypatch.setattr(wl, "_train_layers", fail)
    before = _originals()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _originals() != before
            wl.run_train(wl.Context(1, 0, TINY, tracer, str(tmp_path)))
    assert _originals() == before
    assert [s.name for s in tracer.spans] == ["synthgen.generate_wall"]
    assert not math.isnan(tracer.spans[0].end)


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    trace = [
        _span("cli.generate", 0.0, 10.0),
        _span("synthgen.generate_wall", 1.0, 3.0, 0),
        _span("synthgen.generate_experiment_wall", 2.0, 5.0, 0),  # overlaps its sibling
        _span("cli.save_dataset", 9.0, 12.0, 0),  # runs past its parent
        _span("preprocess.resample", 2.5, 3.5, 2),  # grandchild: not the root's child
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 2.0, 3.0, 1.0])
    table = spans.module_table(trace)
    assert table["cli"]["self_s"] == pytest.approx(8.0)
    assert table["synthgen"]["self_s"] == pytest.approx(4.0)
    assert table["preprocess"]["spans"] == 1
    assert table["mapping"] == {"self_s": 0.0, "spans": 0, "share": 0.0}
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)


def test_worker_thread_spans_take_the_open_main_thread_span_as_parent():
    tracer = spans.Tracer()
    with tracer.installed():
        def work():
            with tracer.span("synthgen.generate_wall"):
                pass

        with tracer.span("cli.generate"):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    assert tracer.spans[1].parent == 0


@pytest.mark.parametrize("count, expected", [(19, None), (20, 50.0), (100, 90.0),
                                             (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert wl.tail([float(i) for i in range(count)])[0] == expected


def test_without_the_package_the_benchmark_fails_before_printing(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
