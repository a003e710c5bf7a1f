"""In-memory spans around the calls the benchmark makes into thermoseer.

A :class:`Tracer` replaces public module attributes of ``thermoseer`` with
timing wrappers while it is installed and puts the originals back when the
``installed()`` block ends, also when the block raises.  Only attributes that
callers look up at call time are wrapped (``pipeline.forward_many`` is how
``predict_next_layer`` reaches the mapping net, ``cli.save_checkpoint`` is
how every CLI command writes a checkpoint), so nothing under ``src/`` changes.

Each span records its name, start, end, parent and thread.  A span opened on
a worker thread with nothing open on that thread takes as parent the span
open on the thread that installed the tracer, since that span caused it
(``cli generate`` runs its walls on a thread pool).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass

# (module, attribute, span name); the span name is the layer that does the work
WRAPPED = (
    ("thermoseer.mapping", "train", "mapping.train"),
    ("thermoseer.mapping", "loss_gradients", "mapping.loss_gradients"),
    ("thermoseer.cli", "train", "mapping.train"),
    ("thermoseer.pipeline", "forward_many", "mapping.forward_many"),
    ("thermoseer.pipeline", "fit_layer", "reconstruct.fit_layer"),
    ("thermoseer.pipeline", "reconstruct_profile", "reconstruct.reconstruct_profile"),
    ("thermoseer.pipeline", "reconstruct_stacked", "reconstruct.reconstruct_stacked"),
    ("thermoseer.reconstruct", "pod_decompose", "reconstruct.pod_decompose"),
    ("thermoseer.reconstruct", "elm_train", "reconstruct.elm_train"),
    ("thermoseer.pipeline", "predict_next_layer", "pipeline.predict_next_layer"),
    ("thermoseer.pipeline", "predict_point", "pipeline.predict_point"),
    ("thermoseer.pipeline", "render_field", "pipeline.render_field"),
    ("thermoseer.pipeline", "extract_curve_pairs", "pipeline.extract_curve_pairs"),
    ("thermoseer.cli", "extract_curve_pairs", "pipeline.extract_curve_pairs"),
    ("thermoseer.cli", "predict_layer", "pipeline.predict_layer"),
    ("thermoseer.cli", "render_field", "pipeline.render_field"),
    ("thermoseer.cli", "evaluate", "pipeline.evaluate"),
    ("thermoseer.cli", "save_checkpoint", "cli.save_checkpoint"),
    ("thermoseer.cli", "load_checkpoint", "cli.load_checkpoint"),
    ("thermoseer.cli", "save_dataset", "cli.save_dataset"),
    ("thermoseer.cli", "load_dataset", "cli.load_dataset"),
    ("thermoseer.synthgen", "generate_wall", "synthgen.generate_wall"),
    ("thermoseer.cli", "generate_wall", "synthgen.generate_wall"),
    ("thermoseer.cli", "generate_experiment_wall", "synthgen.generate_experiment_wall"),
    ("thermoseer.preprocess", "split_experiment", "preprocess.split_experiment"),
    ("thermoseer.preprocess", "resample", "preprocess.resample"),
)

MODULES = ("mapping", "reconstruct", "pipeline", "cli", "synthgen", "preprocess")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts in memory; see the module docstring."""

    active = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._home: int | None = None

    def _open(self, name: str) -> int:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            parent = stack[-1] if stack else None
            if parent is None and self._home is not None and thread != self._home:
                home = self._stacks.get(self._home)
                parent = home[-1] if home else None
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, thread))
            stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index].end = end
            self._stacks[self.spans[index].thread].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every attribute in :data:`WRAPPED`; restore them on exit."""
        saved = []
        self._home = threading.get_ident()
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._home = None


class NullTracer:
    """Stand-in for untraced runs: spans and counts cost a method call."""

    active = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL = NullTracer()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that the union of
    its children's intervals covers."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def module_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self seconds, span count and share of the modules' self time per
    thermoseer module; the benchmark's own spans (``bench.*``) are left out."""
    table = {m: {"self_s": 0.0, "spans": 0} for m in MODULES}
    for span, own in zip(spans, self_times(spans)):
        row = table.get(span.name.split(".", 1)[0])
        if row is not None:
            row["self_s"] += own
            row["spans"] += 1
    total = sum(row["self_s"] for row in table.values()) or 1.0
    for row in table.values():
        row["share"] = row["self_s"] / total
    return table
