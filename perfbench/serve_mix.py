"""``serve_mix``: a ``repro serve`` subprocess under a seeded job mix.

The server runs with its default ``process`` isolation and an on-disk
state dir, so the ledger's fsync path runs.  One single-threaded
generator, on at most two connections and two tenants, drives three
phases: an open loop of Poisson arrivals at a fixed rate (about a quarter
of a 2-core host's capacity), a short closed loop that keeps two jobs
outstanding to measure capacity, and a SIGTERM that must drain and exit
0.  Admission, ledger, fair queue, supervisor, process isolation and
the shared run cache do the work; the fleet-scale loop and the audit
do not run.  In an open loop a stall shows as queueing delay, because
each job is timed from when it was due.
"""

from __future__ import annotations

import asyncio
import heapq
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass

from perfbench.common import (
    OUT, TRACE_OFF, Op, Spans, WorkloadRun, clock, median, repro_env, traces,
)

HOST = "127.0.0.1"
WORKERS = 2
#: Open-loop arrivals per second: about a quarter of the ~20 jobs/s this
#: mix reaches closed-loop on a 2-core host.  The host's own speed swings
#: by up to 2x within a minute; at higher load those swings push the
#: queue near saturation, and queueing, not the server, sets the spread.
RATE_PER_S = 5.0
#: The open loop lasts this share of the run; the closed loop then runs
#: a fixed number of jobs per run second, so every run of one seed
#: measures capacity on the same jobs however fast the host is.
OPEN_SHARE = 0.8
CLOSED_JOBS_PER_S = 2
#: A job is polled every eighth of its age, between these bounds, so
#: the detection delay stays a small share of any job's latency.
POLL_MIN_S, POLL_MAX_S = 0.005, 0.025
STATS_EVERY_S = 0.25
#: Goodput latency limit, above the slowest cold job kind here.
LIMIT_S = 2.0
JOB_TIMEOUT_S = 30.0
SETUP_REPEATS = 3
RECOMPUTE = 3
TENANTS = ("alice", "bob")
TERMINAL = ("done", "failed", "cancelled")

#: Kind counts per block of 20 submissions, and how many of the 20
#: repeat an earlier spec of their kind.  Fixed counts per block keep
#: every run's mix the same; fresh specs come from a space no run
#: exhausts, so the cache hit rate stays flat instead of climbing.
#: Two in five repeat, not one in two: with half the jobs served from
#: the cache the median would sit on the gap between hit and fresh
#: latencies and jump across it from run to run.
BLOCK = {"simulate": 14, "sweep": 3, "tune": 2, "faults": 1}
REPEATS_PER_BLOCK = 8
REPEAT_AGE = 5
SCHEMES = ("single", "dp-baseline", "pp-baseline", "harmony-dp", "harmony-pp",
           "harmony-tp", "pipedream-1f1b", "dapple")
#: Fresh specs keep every cold job between ~25 and ~250 ms on a 2-core
#: host, so no single slow kind decides the percentiles: only the two
#: smallest models simulate several iterations or sweep every scheme.
SIM_MODELS = ("lenet", "alexnet", "gnmt", "amoebanet", "bert-large")
SMALL_MODELS = ("lenet", "alexnet")
#: Result fields that report how a tune job used the cache, so they
#: legitimately differ between a spec's first and repeated runs.
TUNE_CACHE_FIELDS = ("cache_hits", "cache_misses")


class Deck:
    """Draws each item once per shuffled pass, so every run sees each
    value about equally often and the mix does not drift with the seed."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


class SpecStream:
    """The seeded sequence of ``(spec, tenant, repeat)`` submissions."""

    def __init__(self, seed: int):
        self.rng = rng = random.Random(seed)
        self.seen: dict = {kind: [] for kind in BLOCK}
        self.pending: list = []
        self.count = 0
        self.model = Deck(rng, SIM_MODELS)
        self.small_model = Deck(rng, SMALL_MODELS)
        self.scheme = Deck(rng, SCHEMES)
        self.gpus = Deck(rng, (2, 3, 4))
        self.microbatches = Deck(rng, range(1, 5))
        self.microbatch_size = Deck(rng, (1, 2))
        self.iterations = Deck(rng, (1, 1, 1, 1, 1, 1, 2, 3, 4))
        self.tenant = Deck(rng, TENANTS)

    def _block(self) -> list:
        kinds = [kind for kind, n in BLOCK.items() for _ in range(n)]
        repeats = [i < REPEATS_PER_BLOCK for i in range(len(kinds))]
        self.rng.shuffle(kinds)
        self.rng.shuffle(repeats)
        return list(zip(kinds, repeats))

    def fresh(self, kind: str) -> dict:
        if kind == "simulate":
            spec = {"kind": kind, "model": self.model.draw(), "gpus": self.gpus.draw(),
                    "microbatches": self.microbatches.draw(),
                    "microbatch_size": self.microbatch_size.draw(),
                    "scheme": self.scheme.draw()}
            iterations = self.iterations.draw()
            if iterations > 1 and spec["model"] in SMALL_MODELS:
                spec.update(iterations=iterations, steady_state="auto")
            return spec
        if kind in ("sweep", "tune"):
            return {"kind": kind, "model": self.small_model.draw(), "gpus": self.gpus.draw(),
                    "microbatches": self.microbatches.draw(),
                    "microbatch_size": self.microbatch_size.draw()}
        return {"kind": kind, "model": "lenet", "gpus": self.gpus.draw() + 1, "iterations": 3,
                "mttf": [4], "seed": self.rng.randrange(10**6)}

    def next(self) -> tuple[dict, str, bool]:
        """A repeat re-submits a spec at least :data:`REPEAT_AGE`
        submissions old, so its first run has most likely finished."""
        if not self.pending:
            self.pending = self._block()
        kind, repeat = self.pending.pop()
        self.count += 1
        old = [spec for index, spec in self.seen[kind] if index <= self.count - REPEAT_AGE]
        repeat = repeat and bool(old)
        if repeat:
            spec = self.rng.choice(old)
        else:
            spec = self.fresh(kind)
            self.seen[kind].append((self.count, spec))
        return dict(spec), self.tenant.draw(), repeat


def arrivals(seed: int, rate: float, duration: float) -> list[float]:
    """Poisson arrival offsets in ``[0, duration)``."""
    rng = random.Random(f"arrivals-{seed}")
    offsets, t = [], rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


@dataclass
class Job:
    spec: dict
    tenant: str
    due: float
    phase: str
    traced: bool = False
    sent: float = 0.0
    admitted: float = 0.0
    end: float = 0.0
    id: str = ""
    doc: dict | None = None
    error: str = ""

    @property
    def latency_s(self) -> float:
        """From the due time, so generator lateness and queueing count."""
        return self.end - self.due

    @property
    def late_s(self) -> float:
        return self.sent - self.due

    @property
    def hit(self) -> bool:
        """Served wholly from the cache: the supervisor executed nothing."""
        return bool(self.doc) and self.doc.get("supervisor", {}).get("executed", 1) == 0


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


async def request(port, method, path, body=None, tenant=None) -> tuple[int, dict]:
    """One HTTP exchange on a fresh connection (the server closes each);
    status 0 on a connection error."""
    data = json.dumps(body).encode() if body is not None else b""
    head = [f"{method} {path} HTTP/1.1", f"Host: {HOST}", f"Content-Length: {len(data)}",
            "Connection: close"]
    if tenant:
        head.append(f"X-Tenant: {tenant}")
    try:
        reader, writer = await asyncio.open_connection(HOST, port)
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
    except OSError:
        return 0, {}
    header, _, payload = raw.partition(b"\r\n\r\n")
    try:
        return int(header.split(None, 2)[1]), json.loads(payload or b"null")
    except (IndexError, ValueError):
        return 0, {}


class Slots:
    """At most ``n`` connections open at once; a waiting submission is
    served before a waiting poll, so polling never delays a due job."""

    SUBMIT, POLL = 0, 1

    def __init__(self, n: int):
        self.free = n
        self.waiters: list = []
        self.seq = 0

    @asynccontextmanager
    async def hold(self, priority: int):
        if self.free and not self.waiters:
            self.free -= 1
        else:
            self.seq += 1
            turn = asyncio.get_running_loop().create_future()
            heapq.heappush(self.waiters, (priority, self.seq, turn))
            await turn
        try:
            yield
        finally:
            if self.waiters:
                heapq.heappop(self.waiters)[2].set_result(None)
            else:
                self.free += 1


class Load:
    """The single-threaded generator, on at most ``nproc`` (and at most
    two) connections."""

    def __init__(self, port: int, spans: Spans):
        self.port = port
        self.spans = spans
        self.slots = Slots(min(2, os.cpu_count() or 1))
        self.jobs: list[Job] = []
        self.queue_depths: list[int] = []
        self.capacity = 0.0

    async def job(self, spec, tenant, due, phase, traced) -> Job:
        job = Job(spec, tenant, due, phase, traced)
        self.jobs.append(job)
        spans = self.spans if traced else Spans(False)
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        span = spans.begin("serve.job", start=due)
        async with self.slots.hold(Slots.SUBMIT):
            job.sent = clock()
            status, doc = await request(self.port, "POST", "/jobs", spec, tenant)
            job.admitted = clock()
        spans.add("loadgen.late", due, job.sent, span)
        spans.add("serve.admit", job.sent, job.admitted, span)
        job.end = job.admitted
        if status != 202:
            job.error = f"refused with HTTP {status}"
        else:
            job.id = doc["id"]
            while not job.doc:
                if clock() - job.sent > JOB_TIMEOUT_S:
                    job.error = "timed out"
                    break
                await asyncio.sleep(min(POLL_MAX_S, max(POLL_MIN_S, (clock() - due) / 8)))
                async with self.slots.hold(Slots.POLL):
                    t0 = clock()
                    status, doc = await request(self.port, "GET", f"/jobs/{job.id}")
                    job.end = clock()
                spans.add("serve.poll", t0, job.end, span, job.id)
                if status == 200 and doc.get("status") in TERMINAL:
                    job.doc = doc
        spans.finish(span, job.end, request=job.id or None)
        return job

    async def sample_stats(self, stop: asyncio.Event) -> None:
        while not stop.is_set():
            async with self.slots.hold(Slots.POLL):
                status, doc = await request(self.port, "GET", "/stats")
            if status == 200:
                self.queue_depths.append(doc["queue"]["depth"])
            try:
                await asyncio.wait_for(stop.wait(), STATS_EVERY_S)
            except asyncio.TimeoutError:
                pass

    async def main(self, seed: int, seconds: float, trace: str) -> None:
        stream = SpecStream(seed)
        counter = iter(range(1 << 30))

        def trace_next() -> bool:
            return traces(trace, next(counter))

        stop = asyncio.Event()
        sampler = asyncio.create_task(self.sample_stats(stop))
        start = clock() + 0.05
        await asyncio.gather(*[
            self.job(*stream.next()[:2], start + offset, "open", trace_next())
            for offset in arrivals(seed, RATE_PER_S, OPEN_SHARE * seconds)
        ])
        closed_start = clock()
        backlog = [stream.next()[:2] for _ in range(max(2, round(CLOSED_JOBS_PER_S * seconds)))]
        backlog.reverse()

        async def client() -> None:
            while backlog:
                spec, tenant = backlog.pop()
                await self.job(spec, tenant, clock(), "closed", trace_next())

        await asyncio.gather(client(), client())
        closed = [j for j in self.jobs if j.phase == "closed"]
        wall = max(j.end for j in closed) - closed_start
        self.capacity = sum(not j.error for j in closed) / wall
        stop.set()
        await sampler


def get(port: int, path: str, timeout: float = 5.0) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def spawn(state_dir) -> tuple[subprocess.Popen, int, float]:
    """Start a server; returns it, its port, and the seconds from spawn
    to the first 200 from ``/readyz``."""
    start = clock()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", str(WORKERS),
         "--state-dir", str(state_dir)],
        cwd=state_dir, env=repro_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    endpoint = state_dir / "endpoint"
    while clock() - start < 60.0:
        if proc.poll() is not None:
            raise RuntimeError(f"repro serve exited with code {proc.returncode}")
        text = endpoint.read_text() if endpoint.exists() else ""
        if text.endswith("\n"):
            port = int(text.strip().rsplit(":", 1)[1])
            try:
                if get(port, "/readyz")[0] == 200:
                    return proc, port, clock() - start
            except OSError:
                pass
        time.sleep(0.005)
    proc.kill()
    proc.wait()
    raise RuntimeError("repro serve was not ready within 60 s")


def stop(proc: subprocess.Popen) -> Op:
    """SIGTERM; the server must drain and exit 0."""
    start = clock()
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return Op("drain", clock() - start, False, reason="no exit within 60 s of SIGTERM")
    return Op("drain", clock() - start, code == 0, reason=f"exit code {code}")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def check_results(jobs: list[Job]) -> None:
    """Mark each wrong job: not done, a failed run inside it, or a
    result that differs from the first completion of the same spec."""
    first: dict = {}
    for job in sorted(jobs, key=lambda j: j.end):
        if job.error:
            continue
        if job.doc.get("status") != "done":
            job.error = f"job {job.doc.get('status')}: {job.doc.get('error')}"
            continue
        result = job.doc.get("result") or {}
        rows = result.get("runs") or ([result["run"]] if "run" in result else [])
        failed = [row for row in rows if not row.get("ok")]
        if failed:
            job.error = f"run {failed[0].get('label')} failed: {failed[0].get('error')}"
            continue
        if job.spec["kind"] == "tune":
            result = {k: v for k, v in result.items() if k not in TUNE_CACHE_FIELDS}
        blob = canonical(result)
        if first.setdefault(canonical(job.spec), blob) != blob:
            job.error = "result differs from the first completion of its spec"


def recompute(spec: dict) -> dict:
    """A ``simulate`` job's run, recomputed in process."""
    from repro import BatchConfig, HarmonyConfig, HarmonySession
    from repro.hardware import presets
    from repro.models import zoo

    config = HarmonyConfig(
        spec["scheme"],
        batch=BatchConfig(spec["microbatch_size"], spec["microbatches"]),
        iterations=spec.get("iterations", 1),
        steady_state=spec.get("steady_state"),
    )
    result = HarmonySession(zoo.build(spec["model"]),
                            presets.gtx1080ti_server(num_gpus=spec["gpus"]), config).run()
    return {"makespan": result.makespan, "samples": result.samples,
            "throughput": result.throughput, "events": result.events_processed,
            "num_tasks": result.num_tasks}


def check_recomputed(jobs: list[Job], seed: int) -> None:
    """Recompute a seeded sample of ``simulate`` results and mark every
    job of a spec whose served result differs."""
    served = {canonical(j.spec): j for j in jobs if j.spec["kind"] == "simulate" and not j.error}
    keys = sorted(served)
    for key in random.Random(seed).sample(keys, min(RECOMPUTE, len(keys))):
        row = served[key].doc["result"]["run"]
        want = recompute(served[key].spec)
        if any(row[name] != value for name, value in want.items()):
            for job in jobs:
                if canonical(job.spec) == key:
                    job.error = "served result differs from the in-process recomputation"


def run(seed: int, seconds: float, spans: Spans, trace: str) -> WorkloadRun:
    out = WorkloadRun("serve_mix", goodput_limit_s=LIMIT_S)
    work = OUT / f"serve_mix-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    procs = []
    try:
        for i in range(SETUP_REPEATS):
            state = work / f"state{i}"
            state.mkdir(parents=True)
            proc, port, ready_s = spawn(state)
            procs.append(proc)
            out.setup_s.append(ready_s)
            if i < SETUP_REPEATS - 1:
                out.checks.append(stop(proc))
        load = Load(port, spans)
        asyncio.run(load.main(seed, seconds, trace))
        final = get(port, "/stats")[1]
        out.peak_rss_mb = peak_rss_mb(proc.pid)
        drain = stop(proc)
        out.checks.append(drain)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    jobs = load.jobs
    check_results(jobs)
    check_recomputed(jobs, seed)
    for job in jobs:
        op = Op(job.spec["kind"], job.latency_s, not job.error, job.traced, job.error)
        (out.ops if job.phase == "open" else out.checks).append(op)
    out.capacity_jobs_per_s = load.capacity
    if trace != TRACE_OFF:
        # Job latencies are measured the same way with spans off, so the
        # per-kind figures use every job and each kind has samples.
        sample = [j for j in jobs if not j.error]
        layers = out.layers
        layers["serve.admit_ms"] = 1000.0 * median(spans.durations("serve.admit"))
        layers["serve.poll_ms"] = 1000.0 * median(spans.durations("serve.poll"))
        layers["serve.hit_ms"] = 1000.0 * median(j.latency_s for j in sample if j.hit)
        layers["serve.fresh_ms"] = 1000.0 * median(j.latency_s for j in sample if not j.hit)
        for kind in BLOCK:
            layers[f"serve.{kind}_ms"] = 1000.0 * median(
                j.latency_s for j in sample if j.spec["kind"] == kind)
        layers["serve.queue_depth_max"] = max(load.queue_depths, default=0)
        layers["serve.rejections"] = sum(j.error.startswith("refused") for j in jobs)
        layers["serve.drain_ms"] = 1000.0 * drain.latency_s
        cache = final.get("cache", {})
        layers["perf.cache.hit_rate"] = cache.get("hit_rate", 0.0)
        layers["perf.cache.hits"] = cache.get("hits", 0)
        layers["perf.cache.misses"] = cache.get("misses", 0)
        sup = final.get("supervisor", {})
        for name in ("executed", "retries", "respawns", "failures"):
            layers[f"supervisor.{name}"] = sup.get(name, 0)
        late = [j.late_s for j in jobs if j.phase == "open"]
        layers["loadgen.late_p50_ms"] = 1000.0 * median(late)
        layers["loadgen.late_max_ms"] = 1000.0 * max(late, default=0.0)
    return out
