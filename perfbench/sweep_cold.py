"""``sweep-cold``: closed-loop batches of ``api.sweep``, cold caches.

Each operation is one ``api.sweep`` call over a 9-point space at tiny
scale with a fresh result/artifact cache and ``jobs`` pool workers, the
researcher's cold batch.  Simulation dominates, with pool/graph dispatch,
artifact writes and reuse, CART fitting and the sweep engine's own merge
on top.

A batch is three whole (workload, machine, seed) cells, each at the
three stock interval sizes, so the interval variants share one simulated
trace through the artifact tier, as they do in ``default_space()``.
Batches are stratified rather than drawn at random from that space: the
per-point cost of the 50 workloads spans 5x (SPEC ~25 ms, DSS/OLTP
80-370 ms serial), so a random subset's cost depends mostly on how many
server workloads it drew.  Batch ``j`` holds server workload ``j`` and
SPEC workloads ``2j, 2j+1`` (modulo their counts) on machine ``j``
(modulo 3); the seed picks the simulation seeds.  Every seed therefore
sees the same cost mix in the same order.
"""

from __future__ import annotations

import hashlib
import resource
import time

import numpy as np

from common import (Phase, alive, make_dir, remove_dir, runtime_deltas,
                    traced)

#: Batches whose report is re-derived serially by :meth:`verify`.
CHECKED_BATCHES = 3


class SweepCold:
    name = "sweep-cold"
    unit = "points"
    tail_q = 0.75   # >= 40 batches per run leaves >= 10 beyond p75

    def __init__(self, ctx) -> None:
        from repro import api
        from repro.runtime import pool
        from repro.runtime.cache import NullCache, ResultCache
        from repro.sweep import DEFAULT_INTERVALS, SweepSpace
        from repro.uarch.machine import MACHINES
        from repro.workloads.registry import workload_names

        self.api, self.pool = api, pool
        self.NullCache, self.ResultCache = NullCache, ResultCache
        self.SweepSpace = SweepSpace
        self.ctx = ctx
        names = workload_names()
        self.server = [n for n in names if not n.startswith("spec.")]
        self.spec = [n for n in names if n.startswith("spec.")]
        self.machines = sorted(MACHINES)
        self.intervals = DEFAULT_INTERVALS
        self.rng = np.random.default_rng(ctx.seed)
        self.batch_index = 0
        self.done: list[tuple] = []   # (space, report digest)
        self.dir = None
        self.workers_seen: set[int] = set()

    # -- inputs ------------------------------------------------------------
    def _space(self):
        j = self.batch_index
        self.batch_index += 1
        return self.SweepSpace(
            workloads=(self.server[j % len(self.server)],
                       self.spec[2 * j % len(self.spec)],
                       self.spec[(2 * j + 1) % len(self.spec)]),
            machines=(self.machines[j % len(self.machines)],),
            interval_instructions=self.intervals,
            seeds=(int(self.rng.integers(1, 2**31)),),
            scale="tiny")

    def _run(self, space, jobs, cache):
        work = make_dir(self.dir / "sweep")
        try:
            return self.api.sweep(space, work / "state", jobs=jobs,
                                  cache=cache(work / "cache"))
        finally:
            remove_dir(work)

    # -- lifecycle -----------------------------------------------------------
    def setup(self) -> None:
        self.dir = make_dir(self.ctx.tmp / "sweep-cold")
        # Fork the warm pool and import the pipeline in the workers.
        warm = self.SweepSpace(workloads=("spec.gzip", "spec.vpr"),
                               seeds=(1,), scale="tiny")
        self._run(warm, self.ctx.jobs, self.ResultCache)
        self.workers_seen.update(self.pool.default_pool().worker_pids())

    def reset(self) -> None:
        self.workers_seen.update(self.pool.default_pool().worker_pids())
        self.pool.shutdown_default()
        remove_dir(self.dir)

    def restart_workers(self) -> None:
        """Re-fork the pool so workers inherit freshly installed wrappers."""
        self.reset()
        self.setup()

    def measure(self, seconds: float, recorder=None) -> Phase:
        from repro.runtime.metrics import METRICS

        phase = Phase()
        before = METRICS.snapshot()["counters"]
        stage = {"collect_computed": 0, "eipv_computed": 0}
        executed = cached = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            space = self._space()
            with traced(recorder, "sweep.api_sweep",
                        f"batch-{self.batch_index}"):
                t0 = time.perf_counter()
                outcome = self._run(space, self.ctx.jobs, self.ResultCache)
            phase.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            phase.attempted += space.size
            ok = (outcome.n_points == space.size and outcome.n_cached == 0
                  and outcome.n_executed == space.size)
            if ok:
                phase.done += space.size
            else:
                phase.failed += space.size
            executed += outcome.n_executed
            cached += outcome.n_cached
            for key in stage:
                stage[key] += outcome.stage_stats.get("stages", {}).get(key, 0)
            self.done.append((space, _digest(outcome.report)))
        phase.wall_s = time.perf_counter() - start
        self.workers_seen.update(self.pool.default_pool().worker_pids())
        phase.layers = runtime_deltas(before, METRICS.snapshot()["counters"])
        phase.layers.update({
            "runtime.collect_computed": stage["collect_computed"],
            "runtime.eipv_computed": stage["eipv_computed"],
            "sweep.points_executed": executed,
            "sweep.points_cached": cached,
        })
        return phase

    def release(self) -> list[str]:
        """Stop the workers; report any that outlived the shutdown."""
        current = self.pool.default_pool()
        self.workers_seen.update(current.worker_pids())
        self.pool.shutdown_default()
        problems = [f"leaked pool worker {pid}"
                    for pid in current.leaked_workers()]
        problems += [f"pool worker {pid} still running"
                     for pid in sorted(self.workers_seen) if alive(pid)]
        return problems

    def peak_rss_mb(self) -> float:
        """This process plus its largest (joined) pool worker."""
        return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                ) / 1024

    def verify(self) -> int:
        """Re-run a spread of batches serially, monolithic, uncached."""
        if not self.done:
            return 0
        n = len(self.done)
        picks = sorted({round(i * (n - 1) / max(1, CHECKED_BATCHES - 1))
                        for i in range(CHECKED_BATCHES)})
        failed = 0
        for i in picks:
            space, digest = self.done[i]
            reference = self._run(space, 1, lambda _path: self.NullCache())
            if _digest(reference.report) != digest:
                failed += space.size
        return failed

    def cleanup(self) -> list[str]:
        remove_dir(self.dir)
        return [] if not self.dir.exists() else [f"{self.dir} not removed"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
