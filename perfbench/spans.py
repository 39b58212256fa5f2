"""In-memory span recording around the public calls of each layer.

Nothing here edits ``src/repro``: :func:`instrument` swaps wrappers in
for a fixed list of public functions and methods (and for every
``from x import f`` binding of them inside ``repro``), and the returned
callable puts the originals back.

Each wrapped call becomes a span — name, start, end, parent span,
request id — kept in memory by a :class:`Recorder` and written out when
the benchmark ends.  Calls that happen many times per operation (one
simulated slice, one uarch model evaluation) are folded into one
*aggregate* span per parent, so the record stays small while the time
they cover is still subtracted from the parent's self time.

Work that runs inside forked pool workers cannot reach the recorder.
There the same wrappers add ``bench.<span>.s`` / ``.n`` counters to the
open :mod:`repro.obs` span instead; those span trees already travel back
to the parent when tracing is on (see :func:`worker_totals`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro import obs


class Record:
    """One span (or one aggregate of many short calls under a parent)."""

    __slots__ = ("id", "parent", "name", "request", "start", "end",
                 "busy", "child", "calls", "counters")

    def __init__(self, sid, parent, name, request, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.request = request
        self.start = start
        self.end = start
        self.busy = 0.0     # time inside the call(s)
        self.child = 0.0    # part of ``busy`` covered by child spans
        self.calls = 0
        self.counters: dict[str, float] = {}

    @property
    def self_s(self) -> float:
        return self.busy - self.child

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "request": self.request, "start": self.start,
                "end": self.end, "busy_s": self.busy, "self_s": self.self_s,
                "calls": self.calls, "counters": self.counters}


class Recorder:
    """Thread-aware span store; spans nest per thread."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.records: list[Record] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._aggregates: dict[tuple, Record] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self):
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value) -> None:
        self._local.request = value

    def open(self, name: str, aggregate: bool = False) -> Record:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        now = time.perf_counter()
        if aggregate:
            key = (parent.id if parent else None, name, self.request)
            with self._lock:
                record = self._aggregates.get(key)
                if record is None:
                    record = self._new(parent, name, now)
                    self._aggregates[key] = record
        else:
            with self._lock:
                record = self._new(parent, name, now)
        stack.append((record, now))
        return record

    def _new(self, parent, name, now) -> Record:
        record = Record(next(self._ids), parent.id if parent else None,
                        name, self.request, now)
        self.records.append(record)
        return record

    def close(self) -> None:
        record, started = self._stack().pop()
        now = time.perf_counter()
        elapsed = now - started
        record.end = now
        record.busy += elapsed
        record.calls += 1
        stack = self._stack()
        if stack:
            stack[-1][0].child += elapsed

    @contextmanager
    def span(self, name: str):
        """One span around the benchmark's own call."""
        record = self.open(name)
        try:
            yield record
        finally:
            self.close()

    def clear(self) -> None:
        """Forget everything recorded so far (e.g. during a warm-up)."""
        with self._lock:
            self.records.clear()
            self._aggregates.clear()

    # -- aggregation -------------------------------------------------------
    def totals(self) -> dict:
        """``{name: {"busy_s", "self_s", "calls", counters...}}``."""
        out: dict[str, dict] = {}
        for record in self.records:
            entry = out.setdefault(record.name, {"busy_s": 0.0,
                                                 "self_s": 0.0, "calls": 0})
            entry["busy_s"] += record.busy
            entry["self_s"] += record.self_s
            entry["calls"] += record.calls
            for key, value in record.counters.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def root_busy_s(self) -> float:
        return sum(r.busy for r in self.records if r.parent is None)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_json(), sort_keys=True))
                handle.write("\n")


# -- worker-side accounting -------------------------------------------------

def _obs_span():
    tracer = obs.current_tracer()
    return tracer.current if tracer is not None else None


def _worker_add(name: str, seconds: float, calls: int = 1,
                **counters) -> None:
    target = _obs_span()
    if target is None:
        return
    target.inc(f"bench.{name}.s", seconds)
    target.inc(f"bench.{name}.n", calls)
    for key, value in counters.items():
        target.inc(f"bench.{name}.{key}", value)


def worker_totals(roots) -> dict:
    """Sum the ``bench.*`` counters found in merged obs span trees.

    Returns ``{name: {"busy_s", "calls", extra counters}}``.  Only the
    subtrees grafted back from pool workers carry these counters, so
    nothing the recorder saw in this process is counted twice.
    """
    out: dict[str, dict] = {}

    def visit(node: dict) -> None:
        for key, value in node.get("counters", {}).items():
            if not key.startswith("bench."):
                continue
            name, _, field = key[len("bench."):].rpartition(".")
            entry = out.setdefault(name, {"busy_s": 0.0, "calls": 0})
            if field == "s":
                entry["busy_s"] += value
            elif field == "n":
                entry["calls"] += value
            else:
                entry[field] = entry.get(field, 0) + value
        for child in node.get("children", ()):
            visit(child)

    for root in roots:
        visit(root)
    return out


# -- the wrappers -------------------------------------------------------------

def _nnz(dataset) -> int:
    matrix = dataset.matrix
    nnz = getattr(matrix, "nnz", None)
    return int(nnz) if nnz is not None else int(np.count_nonzero(matrix))


def _add(counters: dict, **values) -> None:
    for key, value in values.items():
        counters[key] = counters.get(key, 0) + value


def _wrap_call(fn, name: str, recorder: Recorder, count=None,
               aggregate: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != recorder.pid:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            extra = {"items": count(result)} if count else {}
            _worker_add(name, time.perf_counter() - start, **extra)
            return result
        record = recorder.open(name, aggregate=aggregate)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close()
        if count is not None:
            _add(record.counters, items=count(result))
        return result
    return wrapper


def _wrap_slices(fn, name: str, recorder: Recorder):
    """Time only the generator's own steps, not its consumer's work."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        gen = fn(self, *args, **kwargs)
        in_worker = os.getpid() != recorder.pid
        busy, steps, instructions, record = 0.0, 0, 0, None
        try:
            while True:
                start = time.perf_counter()
                if not in_worker:
                    record = recorder.open(name, aggregate=True)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if in_worker:
                        busy += time.perf_counter() - start
                    else:
                        recorder.close()
                steps += 1
                instructions += item.instructions
                yield item
        finally:
            gen.close()
            if in_worker:
                _worker_add(name, busy, 0, slices=steps,
                            instructions=instructions)
            elif record is not None:
                _add(record.counters, slices=steps,
                     instructions=instructions)
    return wrapper


def _targets():
    """(owner, attribute, span name, wrapper kind, counter) per call."""
    from repro.core import cross_validation, regression_tree
    from repro.runtime import graph
    from repro.trace import eipv, sampler
    from repro.uarch import cpu
    from repro.workloads import system

    return [
        (system.SimulatedSystem, "slices", "workloads.slices", "gen", None),
        (cpu.AnalyticalCPU, "component_cpis", "uarch.component_cpis",
         "agg", None),
        (sampler, "collect_trace", "trace.collect_trace", "call", len),
        (sampler.SamplingDriver, "collect_to_store",
         "trace.collect_to_store", "call", None),
        (eipv, "build_eipvs", "trace.build_eipvs", "call", _nnz),
        (eipv.EIPVDataset, "from_store", "trace.from_store", "classmethod",
         _nnz),
        (cross_validation, "relative_error_curve", "core.relative_error_curve",
         "call", None),
        (regression_tree.RegressionTreeSequence, "fit", "core.tree_fit",
         "call", None),
        (regression_tree.RegressionTreeSequence, "predict_all_k",
         "core.predict_all_k", "call", None),
        (graph, "submit_graph", "runtime.submit_graph", "call", None),
    ]


def instrument(recorder: Recorder):
    """Install the wrappers; returns a function that removes them."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for owner, attr, name, kind, count in _targets():
        raw = owner.__dict__[attr]
        if kind == "classmethod":
            wrapped = classmethod(_wrap_call(raw.__func__, name, recorder,
                                             count))
        elif kind == "gen":
            wrapped = _wrap_slices(raw, name, recorder)
        else:
            wrapped = _wrap_call(raw, name, recorder, count,
                                 aggregate=(kind == "agg"))
        patch(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        # Rebind every ``from module import fn`` copy inside repro.
        for module_name, module in sorted(sys.modules.items()):
            if (module is owner or module is None
                    or not module_name.startswith("repro")):
                continue
            if module.__dict__.get(attr) is raw:
                patch(module, attr, wrapped)

    def remove() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove
