"""``refit``: re-fit stored traces with the paper's analysis knobs.

Set-up streams three default-scale traces to on-disk stores with
``api.collect_to_store`` — two SPEC programs and one DSS query, so the
EIPV width (``n_eips``) and ``k_opt`` differ between them.  The timed
loop then calls ``api.analyze_store`` (k_max=50, folds=10) in-process,
cycling stores and two interval sizes (100M and 50M instructions, so the
EIPV matrix shape changes), with a fresh seeded analysis seed each call.
EIPV building and CART fitting/cross-validation do nearly all the work;
nothing is simulated while timing.

The traces are a fixed corpus (simulation seed 11, the repo default):
fit cost moves ~15% with the simulated trace, and three traces per run
are too few to average that out, so ``--seed`` varies the analysis
seeds — the fold assignment of every fit — and not the traces.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from common import Phase, make_dir, remove_dir, runtime_deltas, traced

#: (workload, n_intervals at 100M instructions; None = class default).
TRACES = (("spec.gzip", None), ("spec.mcf", None), ("odbh.q3", 30))
TRACE_SEED = 11
INTERVALS = (100_000_000, 50_000_000)
#: Analyses re-derived by :meth:`verify`, spread over the run.
CHECKED = 12


class Refit:
    name = "refit"
    unit = "analyses"
    #: Per shape (trace x interval): ~30 analyses of each shape per run.
    tail_q = 0.90

    def __init__(self, ctx) -> None:
        from repro import api
        from repro.core.config import AnalysisConfig
        from repro.trace.eipv import EIPVDataset

        self.api, self.AnalysisConfig = api, AnalysisConfig
        self.EIPVDataset = EIPVDataset
        self.ctx = ctx
        self.rng = np.random.default_rng(ctx.seed)
        self.combos = [(t, interval) for interval in INTERVALS
                       for t in range(len(TRACES))]
        self.op_index = 0
        #: (trace, interval, analysis seed, RE curve bytes, k_opt) per call.
        self.results: list[tuple] = []
        self.stores = []
        self.dir = None

    def setup(self) -> None:
        self.dir = make_dir(self.ctx.tmp / "refit")
        self.stores = [
            self.api.collect_to_store(name, self.dir / f"store-{i}",
                                      n_intervals=n, seed=TRACE_SEED)
            for i, (name, n) in enumerate(TRACES)]

    def reset(self) -> None:
        self.stores = []
        remove_dir(self.dir)

    def restart_workers(self) -> None:
        pass   # in-process: nothing forked before the wrappers went in

    def _config(self, seed: int):
        return self.AnalysisConfig(seed=seed, k_max=50, folds=10)

    def measure(self, seconds: float, recorder=None) -> Phase:
        from repro.runtime.metrics import METRICS

        phase = Phase()
        before = METRICS.snapshot()["counters"]
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            i = self.op_index
            self.op_index += 1
            trace, interval = self.combos[i % len(self.combos)]
            seed = int(self.rng.integers(2**31))
            config = self._config(seed)
            with traced(recorder, "api.analyze_store", f"analysis-{i}"):
                t0 = time.perf_counter()
                result = self.api.analyze_store(
                    self.stores[trace], workload=TRACES[trace][0],
                    config=config, interval_instructions=interval, jobs=1)
            phase.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            phase.shapes.append((trace, interval))
            phase.attempted += 1
            phase.done += 1
            self.results.append((trace, interval, seed,
                                 result.curve.re.tobytes(), result.k_opt))
        phase.wall_s = time.perf_counter() - start
        phase.layers = runtime_deltas(before, METRICS.snapshot()["counters"])
        return phase

    def release(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def verify(self) -> int:
        """A spread of analyses must equal ``api.analyze_dataset`` of the
        same store, with the EIPVs built through the sparse (CSR) path."""
        n = len(self.results)
        picks = sorted({round(i * (n - 1) / max(1, CHECKED - 1))
                        for i in range(CHECKED)}) if n else []
        failed = 0
        for i in picks:
            trace, interval, seed, curve, k_opt = self.results[i]
            dataset = self.EIPVDataset.from_store(
                self.stores[trace], interval_instructions=interval,
                sparse=True)
            dataset.workload_name = TRACES[trace][0]
            reference = self.api.analyze_dataset(
                dataset, config=self._config(seed), jobs=1)
            if (reference.curve.re.tobytes(), reference.k_opt) != (curve,
                                                                  k_opt):
                failed += 1
        return failed

    def cleanup(self) -> list[str]:
        self.stores = []
        remove_dir(self.dir)
        return [] if not self.dir.exists() else [f"{self.dir} not removed"]
