"""The repo benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload refit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the pipeline is imported from ``src/``.
Every run sets the workload up ``SETUPS`` times (``setup_s`` is the
import time plus the median set-up), measures for ``--seconds``, then
stops its workers or daemon, checks the outputs, checks for leaked
processes, shared-memory segments and scratch directories, and prints
a metric table followed by the result as the last stdout line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures
the first half of the time untraced and the second half with spans
recorded around each layer's public calls (see ``spans.py``), reports
the per-layer metrics of the traced half, the tracing overhead between
the halves, and writes the spans to ``.perfbench/results/``.

Exit status: 0 when every output and leak check passed, 1 when one
failed (the result line still prints), 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 3

WORKLOADS = {
    "sweep-cold": ("sweep_cold", "SweepCold"),
    "refit": ("refit", "Refit"),
    "serve-mixed": ("serve_mixed", "ServeMixed"),
}

#: Per-layer metrics, in report order; layers off a workload's request
#: path report 0.
PER_LAYER = (
    "workloads.slices", "workloads.busy_s", "workloads.sim_instr_per_s",
    "uarch.component_cpis_calls", "uarch.busy_s",
    "trace.samples", "trace.sample_self_s", "trace.eipv_build_s",
    "trace.eipv_nnz",
    "core.fit_cv_s", "core.tree_fits", "core.tree_fit_s", "core.predict_s",
    "runtime.graph_wait_s", "runtime.cache_hit_ratio",
    "runtime.artifact_hits", "runtime.artifact_misses",
    "runtime.artifact_stores", "runtime.collect_computed",
    "runtime.eipv_computed", "runtime.pool_spawns",
    "runtime.pool_warm_hits", "runtime.dispatch_parallel",
    "runtime.dispatch_serial", "runtime.arena_published",
    "sweep.points_executed", "sweep.points_cached", "sweep.self_s",
    "serve.hot_p50_ms", "serve.refit_p50_ms", "serve.cold_p50_ms",
    "serve.generator_late_ms", "serve.warm_responses",
    "serve.cache_hit_rate", "serve.coalesce_followers",
    "serve.admission_shed", "serve.deadline_expired",
    "bench.attributed_share", "bench.tracing_overhead",
)

UNITS = {"_s": "s", "_ms": "ms", "_per_s": "1/s", "_share": "share",
         "_ratio": "share", "_rate": "share", "_overhead": "share"}

#: Layer of each recorded span name prefix, for the self-time table.
LAYERS = ("workloads", "uarch", "trace", "core", "runtime", "sweep",
          "serve", "api")


@dataclass
class Context:
    seed: int
    jobs: int
    src: Path
    tmp: Path


def unit_of(name: str) -> str:
    for suffix in sorted(UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return UNITS[suffix]
    return "count"


def environment(args, usable: int) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "jobs": args.jobs,
            "usable_cpus": usable, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def end_to_end(wl, phase, setup_s: float, rss_mb: float) -> dict:
    from common import percentile, tail_ms
    return {
        "setup_s": (setup_s, "s", SETUPS),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ops_per_s": (phase.rate, "1/s", phase.done),
        "p50_ms": (percentile(phase.latencies_ms, 0.5), "ms",
                   len(phase.latencies_ms)),
        "tail_ms": (tail_ms(phase, wl.tail_q), "ms",
                    len(phase.latencies_ms)),
    }


def per_layer(wl, plain, traced, recorder, roots) -> tuple[dict, dict]:
    """The per-layer metrics of the traced phase, and self time by layer."""
    from common import percentile
    from spans import worker_totals

    local, remote = recorder.totals(), worker_totals(roots)

    def get(name, field):
        return (local.get(name, {}).get(field, 0)
                + remote.get(name, {}).get(field, 0))

    slices_s = get("workloads.slices", "busy_s")
    sampling_s = (get("trace.collect_trace", "busy_s")
                  + get("trace.collect_to_store", "busy_s"))
    values = {
        "workloads.slices": get("workloads.slices", "slices"),
        "workloads.busy_s": slices_s,
        "workloads.sim_instr_per_s": (
            get("workloads.slices", "instructions") / slices_s
            if slices_s else 0.0),
        "uarch.component_cpis_calls": get("uarch.component_cpis", "calls"),
        "uarch.busy_s": get("uarch.component_cpis", "busy_s"),
        "trace.samples": get("trace.collect_trace", "items"),
        "trace.sample_self_s": max(0.0, sampling_s - slices_s),
        "trace.eipv_build_s": (get("trace.build_eipvs", "busy_s")
                               + get("trace.from_store", "busy_s")),
        "trace.eipv_nnz": (get("trace.build_eipvs", "items")
                           + get("trace.from_store", "items")),
        "core.fit_cv_s": get("core.relative_error_curve", "busy_s"),
        "core.tree_fits": get("core.tree_fit", "calls"),
        "core.tree_fit_s": get("core.tree_fit", "busy_s"),
        "core.predict_s": get("core.predict_all_k", "busy_s"),
        "runtime.graph_wait_s": local.get("runtime.submit_graph",
                                          {}).get("self_s", 0.0),
        "sweep.self_s": local.get("sweep.api_sweep", {}).get("self_s", 0.0),
    }
    values.update(traced.layers)
    values["bench.attributed_share"] = (
        recorder.root_busy_s() / traced.wall_s if traced.wall_s else 0.0)
    if getattr(wl, "open_loop", False):
        base = percentile(plain.latencies_ms, 0.5)
        values["bench.tracing_overhead"] = (
            percentile(traced.latencies_ms, 0.5) / base - 1 if base else 0.0)
    else:
        values["bench.tracing_overhead"] = (
            plain.rate / traced.rate - 1 if traced.rate else 0.0)

    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for record in recorder.records:
        layer = record.name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + record.self_s
    self_by_layer["(outside spans)"] = traced.wall_s - recorder.root_busy_s()
    return ({name: values.get(name, 0) for name in PER_LAYER},
            self_by_layer)


def run(args, usable: int) -> int:
    import importlib

    tmp = OUT / f"tmp-{os.getpid()}"
    ctx = Context(seed=args.seed, jobs=args.jobs, src=SRC, tmp=tmp)
    module_name, class_name = WORKLOADS[args.workload]

    started = time.perf_counter()
    import repro.api  # noqa: F401  (timed: part of set-up)
    wl = getattr(importlib.import_module(module_name), class_name)(ctx)
    import_s = time.perf_counter() - started
    env = environment(args, usable)

    problems: list[str] = []
    recorder = roots = None
    released = False
    try:
        setups = []
        for i in range(SETUPS):
            if i:
                wl.reset()
            started = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            from repro import obs
            from spans import Recorder, instrument

            plain = wl.measure(args.seconds / 2)
            recorder = Recorder()
            remove = instrument(recorder)
            try:
                wl.restart_workers()
                recorder.clear()
                with obs.capture() as tracer:
                    traced = wl.measure(args.seconds / 2, recorder)
                    roots = tracer.snapshot()
            finally:
                remove()
            phases = [plain, traced]
        else:
            phases = [wl.measure(args.seconds)]
        released = True
        problems += wl.release()
        rss_mb = wl.peak_rss_mb()
        check_failed = wl.verify()
    finally:
        problems += _teardown(wl, tmp, released)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + check_failed
    if args.trace:
        metrics, self_by_layer = per_layer(wl, plain, traced, recorder,
                                           roots)
        table = {name: (value, unit_of(name), traced.done)
                 for name, value in metrics.items()}
    else:
        table = end_to_end(wl, phases[0], setup_s, rss_mb)
        self_by_layer = None
    correct = failed == 0 and not problems

    env["setup"] = {"import_s": import_s, "setups_s": setups}
    _report(args, env, table, self_by_layer, problems, attempted, failed,
            recorder)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in table.items()},
    }))
    return 0 if correct else 1


def _teardown(wl, tmp: Path, released: bool) -> list[str]:
    """Stop everything and remove scratch; returns leak findings."""
    from common import remove_dir
    from repro.runtime.pool import shutdown_default
    from repro.runtime.shm import live_segments

    problems = []
    try:
        if not released:
            problems += wl.release()
        problems += wl.cleanup()
    except Exception:  # a broken teardown is a finding, not a crash
        problems.append("teardown failed:\n" + traceback.format_exc())
    shutdown_default()
    segments = live_segments()
    if segments:
        problems.append(f"live shared-memory segments: {list(segments)}")
    remove_dir(tmp)
    if tmp.exists():
        problems.append(f"scratch dir {tmp} not removed")
    return problems


def _report(args, env, table, self_by_layer, problems, attempted, failed,
            recorder) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print("env: " + json.dumps({k: v for k, v in env.items()
                                if k != "setup"}, sort_keys=True))
    print(f"{'metric':<28} {'value':>14} {'unit':<6} {'samples':>8}")
    for name, (value, unit, samples) in table.items():
        print(f"{name:<28} {value:>14.6g} {unit:<6} {samples:>8}")
    if self_by_layer is not None:
        print("self time by layer (traced half, s): " + ", ".join(
            f"{k}={v:.3f}" for k, v in self_by_layer.items()))
        recorder.write_jsonl(results / f"{stem}.spans.jsonl")
    print(f"attempted={attempted} failed={failed} "
          f"leaks={'ok' if not problems else 'FAILED'}")
    for problem in problems:
        print(f"check failed: {problem}")
    record = {"env": env, "attempted": attempted, "failed": failed,
              "problems": problems, "self_s_by_layer": self_by_layer,
              "metrics": {name: {"value": v, "unit": u, "samples": n}
                          for name, (v, u, n) in table.items()}}
    (results / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="pool workers for sweep-cold (default: the "
                             "usable CPUs; more than that is refused)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no pipeline sources under {SRC}",
              file=sys.stderr)
        return 2
    usable = len(os.sched_getaffinity(0))
    args.jobs = usable if args.jobs is None else args.jobs
    if not 1 <= args.jobs <= usable:
        print(f"perfbench: --jobs {args.jobs} refused: {usable} usable "
              "CPU(s); a parallel figure beyond them means nothing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args, usable)


if __name__ == "__main__":
    sys.exit(main())
