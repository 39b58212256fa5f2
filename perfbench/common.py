"""Shared pieces of the benchmark: phases, percentiles, scratch dirs."""

from __future__ import annotations

import math
import os
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Phase:
    """What one timed phase of a workload did."""

    attempted: int = 0
    done: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    #: The shape of each operation, parallel to ``latencies_ms``; empty
    #: when every operation has the same shape.
    shapes: list = field(default_factory=list)
    #: Per-layer values the workload measured itself (counter deltas,
    #: client-side per-class latencies).
    layers: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.done / self.wall_s if self.wall_s > 0 else 0.0


def traced(recorder, name: str, request: str):
    """A span around one operation when tracing, else nothing."""
    if recorder is None:
        return nullcontext()
    recorder.request = request
    return recorder.span(name)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_ms(phase: Phase, q: float) -> float:
    """The ``q`` percentile of each operation shape's latencies, averaged
    over the shapes.

    A percentile taken over a mix of shapes with different costs falls
    on the edge between the costliest shapes, where a few samples more or
    less move it far; per shape it stays inside one cost distribution.
    """
    if not phase.shapes:
        return percentile(phase.latencies_ms, q)
    by_shape: dict = {}
    for shape, ms in zip(phase.shapes, phase.latencies_ms):
        by_shape.setdefault(shape, []).append(ms)
    return sum(percentile(v, q) for v in by_shape.values()) / len(by_shape)


def make_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_dir(path: Path | None) -> None:
    if path is not None and path.exists():
        shutil.rmtree(path)


def alive(pid: int) -> bool:
    """Whether process ``pid`` still runs (reaping it if it is our child)."""
    try:
        waited, _ = os.waitpid(pid, os.WNOHANG)
        return waited == 0
    except ChildProcessError:
        pass
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


RUNTIME_COUNTERS = {
    "runtime.artifact_hits": "artifact.hit",
    "runtime.artifact_misses": "artifact.miss",
    "runtime.artifact_stores": "artifact.store",
    "runtime.pool_spawns": "pool.spawns",
    "runtime.pool_warm_hits": "pool.warm_hits",
    "runtime.dispatch_parallel": "dispatch.parallel_chosen",
    "runtime.dispatch_serial": "dispatch.serial_chosen",
    "runtime.arena_published": "pool.arena_published",
}


def runtime_deltas(before: dict, after: dict) -> dict:
    """Per-layer runtime counters from two ``METRICS`` counter snapshots."""
    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    out = {metric: delta(name) for metric, name in RUNTIME_COUNTERS.items()}
    hits, misses = delta("cache.hit"), delta("cache.miss")
    out["runtime.cache_hit_ratio"] = (hits / (hits + misses)
                                      if hits + misses else 0.0)
    return out
