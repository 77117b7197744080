"""Outside-in tracing of one estimator call, from the benchmark's files only.

The library is not edited. ``installed`` swaps the ``levygrad.engine``
module attributes and the ``substream`` names imported by ``bismut`` and
``validate`` (both modules look these up at call time) for wrappers that
record a span around each call, and hands back a copy of the coefficient
field (via ``dataclasses.replace``) and an observable wrapped the same way.
The wrappers return every result unchanged, so a traced call must give
bit-identical estimates; the benchmark checks that on every traced run.

A span is (name, start, end, parent, thread) plus two work counts taken at
the same boundary (rows evaluated and computed output bytes for the
coefficients and the observable, jumps for ``sample_jump_batch``, workers
for ``map_batches``). Spans stay in memory and are written out once, after
the run. Each thread keeps its own parent stack; the worker function handed
to ``map_batches`` is wrapped so that spans in its pool threads hang off the
``map_batches`` span that started them.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

COEFFICIENTS = ("b", "grad_b", "sigma", "grad_sigma", "sigma_inv")

# Engine functions reached from bismut/validate through the module attribute.
ENGINE_FUNCTIONS = (
    "sample_jump_batch",
    "sample_mark_batch",
    "path_cumulatives",
    "first_passage_levels",
    "flow_batch",
    "weight_terms",
)

ROOT_SPANS = {
    "estimate_gradient": "bismut.estimate_gradient",
    "fd_gradient": "validate.fd_gradient",
}

# Every per-layer metric with its unit. Work and times are normalised per
# engine batch of BATCH_SIZE paths; ratios are plain numbers.
PER_LAYER_UNITS = {
    **{
        f"coefficients.{c}.{k}": u
        for c in COEFFICIENTS
        for k, u in (("calls", "count/batch"), ("rows", "count/batch"),
                     ("bytes", "B/batch"), ("s", "s/batch"))
    },
    "engine.flow_batch.s": "s/batch",
    "engine.flow_batch.self_s": "s/batch",
    "engine.flow_batch.rows_per_call": "rows/call",
    "engine.weight_terms.s": "s/batch",
    "engine.sample_jump_batch.s": "s/batch",
    "engine.jumps": "count/batch",
    "engine.sample_mark_batch.s": "s/batch",
    "engine.path_cumulatives.s": "s/batch",
    "engine.first_passage_levels.s": "s/batch",
    "engine.map_batches.util": "1",
    "engine.RunningStats.s": "s/batch",
    "streams.substream.s": "s/batch",
    "observable.s": "s/batch",
    "bismut.estimate_gradient.self_s": "s/batch",
    "validate.fd_gradient.self_s": "s/batch",
    "bismut.rejected_frac": "1",
    "bismut.capped_frac": "1",
    "trace.root_s": "s/batch",
    "trace.overhead": "1",
}

# Metrics that count work; they must repeat exactly for a seed.
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count/batch", "B/batch")
) + ("bismut.rejected_frac", "bismut.capped_frac", "engine.flow_batch.rows_per_call")


class Tracer:
    """In-memory span recorder; one per traced estimator call."""

    FIELDS = ("id", "name", "start", "end", "parent", "thread", "rows", "nbytes")

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record a span around the block; yields (span id, [rows, nbytes])
        for the block to fill in with the work it did."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        work = [0, 0]
        start = perf_counter()
        try:
            yield sid, work
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), *work))

    def wrap(self, name: str, fn, work=None):
        """Return fn recording a span per call; work(args, out) -> (rows, nbytes)."""

        def traced(*args, **kwargs):
            with self.span(name) as (_, counts):
                out = fn(*args, **kwargs)
                if work is not None:
                    counts[:] = work(args, out)
            return out

        return traced


def _rows_bytes(x, out):
    rows = int(np.shape(x)[0]) if np.ndim(x) >= 2 else 1
    return rows, int(np.asarray(out).nbytes)


def _coefficient_work(args, out):
    return _rows_bytes(args[1], out)  # evaluators take (t, x)


def _observable_work(args, out):
    return _rows_bytes(args[0], out)


def _jump_work(args, out):
    return int(out.total), 0


@contextmanager
def installed(tracer: Tracer, field, observable):
    """Install the wrappers; yield (traced field, traced observable).

    The original module attributes are restored on exit, also on error.
    """
    engine = importlib.import_module("levygrad.engine")
    saved = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    for name in ENGINE_FUNCTIONS:
        work = _jump_work if name == "sample_jump_batch" else None
        patch(engine, name, tracer.wrap(f"engine.{name}", getattr(engine, name), work))

    map_batches = engine.map_batches

    def traced_map_batches(n_total, workers, worker_fn):
        with tracer.span("engine.map_batches") as (sid, counts):
            counts[0] = int(workers)

            def traced_worker(bi, start, count):
                with tracer.span("engine.map_batches.worker", parent=sid):
                    return worker_fn(bi, start, count)

            return map_batches(n_total, workers, traced_worker)

    patch(engine, "map_batches", traced_map_batches)

    class TracedRunningStats(engine.RunningStats):
        def update(self, *args, **kwargs):
            with tracer.span("engine.RunningStats"):
                return super().update(*args, **kwargs)

        def finalize(self):
            with tracer.span("engine.RunningStats"):
                return super().finalize()

    patch(engine, "RunningStats", TracedRunningStats)

    for module_name in ("levygrad.bismut", "levygrad.validate"):
        module = importlib.import_module(module_name)
        patch(module, "substream", tracer.wrap("streams.substream", module.substream))

    traced_field = dataclasses.replace(
        field,
        **{c: tracer.wrap(f"coefficients.{c}", getattr(field, c), _coefficient_work)
           for c in COEFFICIENTS},
    )
    traced_observable = tracer.wrap("observable", observable, _observable_work)
    try:
        yield traced_field, traced_observable
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _self_time(span, children) -> float:
    """Span duration minus the part of it that its child spans cover."""
    start, end = span[2], span[3]
    covered = 0.0
    cursor = start
    for c in sorted(children, key=lambda c: c[2]):
        lo, hi = max(c[2], cursor), min(c[3], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def layer_metrics(spans, root_name: str, n_paths: int, batch_size: int, result) -> dict:
    """Per-layer metrics of one traced call, per batch of batch_size paths.

    ``trace.overhead`` needs the untraced time and is added by the caller.
    """
    per_batch = batch_size / n_paths
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
        by_name[s[1]].append(s)

    def total_s(name):
        return sum(s[3] - s[2] for s in by_name[name]) * per_batch

    m = {}
    for c in COEFFICIENTS:
        group = by_name[f"coefficients.{c}"]
        m[f"coefficients.{c}.calls"] = len(group) * per_batch
        m[f"coefficients.{c}.rows"] = sum(s[6] for s in group) * per_batch
        m[f"coefficients.{c}.bytes"] = sum(s[7] for s in group) * per_batch
        m[f"coefficients.{c}.s"] = total_s(f"coefficients.{c}")

    flows = by_name["engine.flow_batch"]
    m["engine.flow_batch.s"] = total_s("engine.flow_batch")
    m["engine.flow_batch.self_s"] = sum(_self_time(s, children[s[0]]) for s in flows) * per_batch
    inner = [c for s in flows for c in children[s[0]]]
    m["engine.flow_batch.rows_per_call"] = (
        sum(c[6] for c in inner) / len(inner) if inner else 0.0
    )
    for name in ("weight_terms", "sample_jump_batch", "sample_mark_batch",
                 "path_cumulatives", "first_passage_levels", "RunningStats"):
        m[f"engine.{name}.s"] = total_s(f"engine.{name}")
    m["engine.jumps"] = sum(s[6] for s in by_name["engine.sample_jump_batch"]) * per_batch

    busy = sum(s[3] - s[2] for s in by_name["engine.map_batches.worker"])
    offered = sum((s[3] - s[2]) * s[6] for s in by_name["engine.map_batches"])
    m["engine.map_batches.util"] = busy / offered if offered > 0 else 0.0

    m["streams.substream.s"] = total_s("streams.substream")
    m["observable.s"] = total_s("observable")

    (root,) = by_name[root_name]
    for name in ROOT_SPANS.values():
        m[f"{name}.self_s"] = (
            _self_time(root, children[root[0]]) * per_batch if name == root_name else 0.0
        )
    m["bismut.rejected_frac"] = result.n_rejected / result.n_samples
    m["bismut.capped_frac"] = float(result.diagnostics.get("cap_fraction", 0.0))
    m["trace.root_s"] = (root[3] - root[2]) * per_batch
    return m


def median_metrics(per_call: list[dict]) -> dict:
    """Median of each metric over the traced calls (counts are equal anyway)."""
    return {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}


def write_spans(path, tracers: list[Tracer]) -> None:
    """Write every recorded span once, times relative to the first span."""
    spans = [s for t in tracers for s in t.spans]
    t0 = min((s[2] for s in spans), default=0.0)
    threads = {}
    rows = []
    for call, tracer in enumerate(tracers):
        for sid, name, start, end, parent, thread, n_rows, nbytes in tracer.spans:
            tid = threads.setdefault(thread, len(threads))
            rows.append([call, sid, name, start - t0, end - t0, parent, tid, n_rows, nbytes])
    with open(path, "w") as fh:
        json.dump({"fields": ["call", *Tracer.FIELDS], "spans": rows}, fh)
