"""``serve-mixed``: an open-loop request mix against ``repro serve``.

Set-up starts ``python -m repro serve --port 0`` as a subprocess with a
fresh cache directory and warms a few hot keys.  The timed phase replays
a seeded Poisson schedule at a fixed offered rate from two client
threads, each opening one connection per request (independent users, as
``urllib`` clients connect), so at most two connections are open at a
time.  Every request is timed from the moment it was due, so a stall
also charges the requests queued behind it:

* ~90% hot reads of the warmed keys (served from the result cache);
* ~7% refits: a warmed key with a new ``k_max``, so the daemon re-fits
  over stored trace/EIPV artifacts;
* ~3% cold requests: a new seed, so the daemon simulates and writes.
  They are sent as identical pairs due at the same instant, which
  exercises request coalescing.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import Phase, alive, make_dir, percentile, remove_dir, traced

RATE_PER_S = 40.0
CONNECTIONS = 2
HOT = ("spec.gzip", "spec.mcf", "spec.art", "odbh.q6")
#: Cold requests rotate over SPEC programs of similar cost (170-210 ms
#: cold in the daemon, against ~600 ms for a DSS query).
COLD = ("spec.crafty", "spec.parser", "spec.perlbmk", "spec.vortex",
        "spec.twolf", "spec.mesa")
PAIR_EVERY = 67        # one cold pair per 67 arrivals: ~3% of requests
REFIT_EVERY = 14       # one refit per 14 arrivals: ~7%
REFIT_K_MAX = range(6, 61)
REQUEST_TIMEOUT_S = 60.0


def _body(workload: str, seed: int, k_max: int = 5) -> dict:
    return {"workload": workload, "intervals": 12, "seed": seed,
            "scale": "tiny", "k_max": k_max}


class Daemon:
    """One ``repro serve`` subprocess and a client connection factory."""

    def __init__(self, src, cache_dir, log_path) -> None:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1",
                   REPRO_CACHE_DIR=str(cache_dir))
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir), "--max-inflight", "2",
             "--max-queue", "64"],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
            cwd=str(cache_dir.parent))
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> int | None:
        """SIGINT (the daemon's clean shutdown); returns its exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


def post(conn, body: dict):
    """``(status, payload)``; status None when the request errored."""
    data = json.dumps(body).encode("utf-8")
    try:
        conn.request("POST", "/v1/analyze", body=data,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    except (OSError, http.client.HTTPException, ValueError):
        conn.close()
        return None, None


class ServeMixed:
    name = "serve-mixed"
    unit = "requests"
    tail_q = 0.99   # >= 1000 requests per run leaves >= 10 beyond p99
    open_loop = True

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.rng = np.random.default_rng(ctx.seed)
        self.hot = [_body(name, int(self.rng.integers(1, 2**31)))
                    for name in HOT]
        refits = [(h, k) for h in range(len(HOT)) for k in REFIT_K_MAX]
        order = self.rng.permutation(len(refits))
        self.refits = [refits[i] for i in order]
        self.cold_seed = int(self.rng.integers(1, 2**30))
        self.cold_index = 0
        self.arrivals = 0
        self.daemon = None
        self.dir = None
        self.problems: list[str] = []
        self.digests: dict[str, set] = {}     # key -> report digests
        self.samples: dict[str, tuple] = {}   # class -> (body, report)
        self.pids: set[int] = set()

    # -- lifecycle -----------------------------------------------------------
    def setup(self) -> None:
        self.dir = make_dir(self.ctx.tmp / "serve-mixed")
        self.daemon = Daemon(self.ctx.src, make_dir(self.dir / "cache"),
                             self.dir / "daemon.log")
        self.pids.add(self.daemon.proc.pid)
        for body in self.hot + self.hot:   # compute, then served warm
            conn = self.daemon.connect()
            try:
                status, _ = post(conn, body)
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status}")

    def _stop_daemon(self) -> None:
        if self.daemon is None:
            return
        try:
            stats = self.daemon.get("/v1/stats")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.problems.append(f"daemon stats unreadable: {exc}")
            stats = {}
        segments = stats.get("shm", {}).get("live_segments", [])
        if segments:
            self.problems.append(f"daemon shm segments left: {segments}")
        self.pids.update(stats.get("pool", {}).get("workers", []))
        code = self.daemon.stop()
        if code != 0:
            self.problems.append(f"daemon exited with status {code}")
        self.daemon = None

    def reset(self) -> None:
        self._stop_daemon()
        remove_dir(self.dir)

    def restart_workers(self) -> None:
        pass   # the daemon is a separate process; spans are client-side

    # -- the schedule ----------------------------------------------------------
    def _schedule(self, seconds: float) -> list:
        """``[(due_s, class, body)]`` for one phase.

        Arrival times are Poisson and the keys are seeded; the class of
        each arrival follows a fixed pattern, so every seed offers the
        same mix and only the timing and the keys change.
        """
        items, due = [], 0.0
        while True:
            due += float(self.rng.exponential(1.0 / RATE_PER_S))
            if due >= seconds:
                return items
            n = self.arrivals
            self.arrivals += 1
            if n % PAIR_EVERY == PAIR_EVERY - 1:
                body = _body(COLD[self.cold_index % len(COLD)],
                             self.cold_seed + self.cold_index)
                self.cold_index += 1
                items += [(due, "cold", body), (due, "cold", body)]
            elif n % REFIT_EVERY == REFIT_EVERY // 2 and self.refits:
                hot, k_max = self.refits.pop()
                items.append((due, "refit", dict(self.hot[hot],
                                                 k_max=k_max)))
            else:
                hot = self.hot[int(self.rng.integers(len(self.hot)))]
                items.append((due, "hot", hot))

    def measure(self, seconds: float, recorder=None) -> Phase:
        schedule = self._schedule(seconds)
        results = [None] * len(schedule)
        lock = threading.Lock()
        cursor = [0]
        before = self.daemon.get("/v1/stats")
        start = time.perf_counter()

        def send(body):
            conn = self.daemon.connect()
            try:
                return post(conn, body)
            finally:
                conn.close()

        def client() -> None:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(schedule):
                    return
                due, cls, body = schedule[i]
                due += start
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                with traced(recorder, f"serve.{cls}", f"req-{i}"):
                    status, payload = send(body)
                results[i] = (due, sent, time.perf_counter(), status,
                              payload)

        threads = [threading.Thread(target=client)
                   for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = self.daemon.get("/v1/stats")

        phase = Phase(attempted=len(schedule))
        late, by_class = [], {"hot": [], "refit": [], "cold": []}
        last = start
        for (_, cls, body), (due, sent, done, status, payload) in zip(
                schedule, results):
            latency = (done - due) * 1e3
            phase.latencies_ms.append(latency)
            by_class[cls].append(latency)
            late.append((sent - due) * 1e3)
            last = max(last, done)
            report = payload.get("report") if payload else None
            if status != 200 or not isinstance(report, str):
                phase.failed += 1
                continue
            phase.done += 1
            self.digests.setdefault(payload.get("key"), set()).add(
                hashlib.sha256(report.encode("utf-8")).hexdigest())
            self.samples.setdefault(cls, (body, report))
        phase.wall_s = last - start
        phase.layers = self._layers(before, after)
        phase.layers.update({
            "serve.hot_p50_ms": percentile(by_class["hot"], 0.5),
            "serve.refit_p50_ms": percentile(by_class["refit"], 0.5),
            "serve.cold_p50_ms": percentile(by_class["cold"], 0.5),
            "serve.generator_late_ms": percentile(late, 0.99),
        })
        return phase

    @staticmethod
    def _layers(before: dict, after: dict) -> dict:
        def delta(*path):
            a, b = after, before
            for part in path:
                a, b = a.get(part, {}), b.get(part, {})
            return (a or 0) - (b or 0)

        hits, misses = delta("cache", "hit"), delta("cache", "miss")
        ratio = hits / (hits + misses) if hits + misses else 0.0
        return {
            "serve.warm_responses": delta("cache", "warm_responses"),
            "serve.cache_hit_rate": ratio,
            "serve.coalesce_followers": delta("coalesce", "followers"),
            "serve.admission_shed": delta("admission", "shed"),
            "serve.deadline_expired": delta("requests", "deadline_expired"),
            "runtime.cache_hit_ratio": ratio,
            "runtime.artifact_hits": delta("artifacts", "hits"),
            "runtime.artifact_misses": delta("artifacts", "misses"),
            "runtime.artifact_stores": delta("artifacts", "stores"),
            "runtime.collect_computed": delta("artifacts", "stages",
                                              "collect_computed"),
            "runtime.eipv_computed": delta("artifacts", "stages",
                                           "eipv_computed"),
            "runtime.pool_spawns": delta("pool", "spawns"),
            "runtime.pool_warm_hits": delta("pool", "warm_hits"),
            "runtime.dispatch_parallel": delta("dispatch", "parallel_chosen"),
            "runtime.dispatch_serial": delta("dispatch", "serial_chosen"),
            "runtime.arena_published": delta("pool", "arena_published"),
        }

    def release(self) -> list[str]:
        self._stop_daemon()
        self.problems += [f"daemon process {pid} still running"
                          for pid in sorted(self.pids) if alive(pid)]
        return self.problems

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon(s) — this process's only children."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def verify(self) -> int:
        """Same key, same report; one report per class equals the
        in-process ``repro.api`` rendering of the same request."""
        from repro import api
        from repro.cli import analysis_report_text
        from repro.core.config import AnalysisConfig

        failed = sum(len(d) - 1 for d in self.digests.values())
        for body, report in self.samples.values():
            result = api.analyze(
                body["workload"], n_intervals=body["intervals"],
                scale=body["scale"],
                config=AnalysisConfig(seed=body["seed"],
                                      k_max=body["k_max"]))
            expected = analysis_report_text(
                result, workload=body["workload"],
                n_intervals=body["intervals"], scale=body["scale"],
                seed=body["seed"])
            if report != expected:
                failed += 1
        return failed

    def cleanup(self) -> list[str]:
        remove_dir(self.dir)
        return [] if not self.dir.exists() else [f"{self.dir} not removed"]
