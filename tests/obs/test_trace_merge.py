"""Cross-process span merging and the JSONL trace file.

The acceptance bar: a ``--jobs 2`` profile run produces the same merged
stage structure as a serial one, and the JSONL trace round-trips.
"""

import pytest

from repro import api, obs
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    read_trace,
    trace_events,
    write_trace,
)
from repro.runtime.jobs import JobSpec
from repro.runtime.manifest import RunManifest
from repro.runtime.scheduler import run_jobs

CONFIG = api.AnalysisConfig(k_max=5, seed=7)
WORKLOADS = ["spec.gzip", "spec.art"]

#: Every stage path one pipeline job goes through, in breakdown order.
JOB_STAGES = (
    "job",
    "job/pipeline.collect",
    "job/pipeline.collect/trace.sample",
    "job/pipeline.collect/trace.build_eipvs",
    "job/analyze",
    "job/analyze/cv",
    "job/analyze/cv/fit.tree",
    "job/analyze/cv/cv.predict",
)


def _profile(jobs: int) -> api.ProfileResult:
    return api.profile(WORKLOADS, config=CONFIG, n_intervals=12,
                       scale="tiny", jobs=jobs)


class TestParallelMerge:
    def test_serial_covers_every_pipeline_stage(self):
        result = _profile(jobs=1)
        assert result.stage_names() == JOB_STAGES
        assert len(result.spans) == len(WORKLOADS)
        assert [root["attrs"]["workload"] for root in result.spans] == \
            WORKLOADS  # submission order survives
        assert result.total_wall_s > 0

    def test_two_workers_merge_to_same_structure(self):
        serial = _profile(jobs=1)
        parallel = _profile(jobs=2)
        assert parallel.stage_names() == serial.stage_names()
        assert [r["attrs"]["workload"] for r in parallel.spans] == \
            [r["attrs"]["workload"] for r in serial.spans]
        by_path = {s.path: s for s in parallel.stages}
        for s in serial.stages:
            assert by_path[s.path].calls == s.calls

    def test_profile_does_not_leak_tracing(self):
        assert not obs.tracing_enabled()
        _profile(jobs=1)
        assert not obs.tracing_enabled()

    def test_failed_job_raises_with_workload_named(self):
        with pytest.raises(RuntimeError, match="no.such.workload"):
            api.profile(["no.such.workload"], config=CONFIG,
                        n_intervals=12, scale="tiny")


class TestManifestSpans:
    SPECS = [JobSpec(workload=name, n_intervals=12, seed=7, scale="tiny",
                     k_max=5) for name in WORKLOADS]

    def test_span_roots_merge_in_submission_order(self):
        with obs.capture():
            outcomes = run_jobs(self.SPECS, jobs=2)
        manifest = RunManifest.from_outcomes(outcomes, command="census",
                                             jobs=2)
        roots = manifest.span_roots()
        assert [root["attrs"]["workload"] for root in roots] == WORKLOADS
        assert all(root["name"] == "job" for root in roots)

    def test_untraced_run_has_no_spans(self):
        outcomes = run_jobs([self.SPECS[0]])
        manifest = RunManifest.from_outcomes(outcomes)
        assert manifest.span_roots() == []

    def test_cached_payload_never_stores_spans(self, tmp_path):
        from repro.runtime.cache import ResultCache
        cache = ResultCache(tmp_path)
        with obs.capture():
            traced, = run_jobs([self.SPECS[0]], cache=cache)
        assert traced.result.spans  # the live outcome carries the trace...
        stored = cache.get(traced.key)
        assert "spans" not in stored  # ...but the cache entry never does
        warm, = run_jobs([self.SPECS[0]], cache=cache)
        assert warm.cache_hit and warm.result.spans == ()
        assert warm.result.re == traced.result.re


class TestJsonlTrace:
    FOREST = [{"name": "job", "wall_s": 0.5,
               "attrs": {"workload": "spec.gzip"},
               "children": [{"name": "analyze", "wall_s": 0.25,
                             "counters": {"points": 12}}]}]

    def test_events_depth_first_with_meta_header(self):
        events = trace_events(self.FOREST, meta={"command": "profile"})
        header, first, second = events
        assert header == {"type": "trace_meta",
                          "schema_version": TRACE_SCHEMA_VERSION,
                          "command": "profile"}
        assert (first["path"], first["depth"]) == ("job", 0)
        assert (second["path"], second["depth"]) == ("job/analyze", 1)
        assert second["counters"] == {"points": 12}

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "traces" / "run.jsonl"
        out = write_trace(path, self.FOREST, meta={"command": "profile"})
        assert out == path and path.exists()
        assert read_trace(path) == trace_events(self.FOREST,
                                                meta={"command": "profile"})

    def test_real_profile_trace_parses(self, tmp_path):
        result = api.profile("spec.gzip", config=CONFIG, n_intervals=12,
                             scale="tiny")
        path = write_trace(tmp_path / "profile.jsonl", list(result.spans))
        events = read_trace(path)
        assert events[0]["type"] == "trace_meta"
        spans = [e for e in events if e["type"] == "span"]
        assert {e["path"] for e in spans} == set(JOB_STAGES)
