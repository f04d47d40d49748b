"""Tests for the benchmark's own logic: percentiles, spans, due-time
accounting, output checks and seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import cli_cold, fleet_audit, run, serve_mix
from perfbench.common import ROOT, Op, Spans, WorkloadRun, clock, covered, end_to_end, tail


class TestTail:
    def test_too_few_samples_give_no_tail(self):
        assert tail(range(10)) is None
        assert tail([]) is None

    def test_eleven_samples_take_the_smallest(self):
        assert tail(range(1, 12)) == (1, pytest.approx(100 / 11), 11)

    def test_ten_samples_lie_beyond_the_tail(self):
        values = list(range(100, 0, -1))
        value, percentile, n = tail(values)
        assert (value, percentile, n) == (90, 90.0, 100)
        assert sum(v > value for v in values) == 10


class TestSpans:
    def test_self_time_subtracts_the_union_of_children(self):
        spans = Spans(True)
        parent = spans.add("op", 0.0, 10.0)
        for start, end in ((1.0, 3.0), (2.0, 5.0), (7.0, 8.0)):
            spans.add("child", start, end, parent)
        assert spans.self_time(parent) == pytest.approx(5.0)
        assert spans.child_coverage(parent) == pytest.approx(0.5)

    def test_children_are_clipped_to_the_parent(self):
        assert covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
        assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0

    def test_nested_context_managers_link_parent_and_request(self):
        spans = Spans(True)
        with spans.span("op", request="r1") as op:
            with spans.span("child", op, "r1") as child:
                pass
        assert spans.spans[child].parent == op
        assert spans.spans[child].request == "r1"
        assert spans.spans[op].end >= spans.spans[child].end

    def test_disabled_recorder_records_nothing(self):
        spans = Spans(False)
        with spans.span("op") as op:
            spans.add("child", 0.0, 1.0, op)
        assert op is None and spans.spans == []

    def test_written_once_with_self_times(self, tmp_path):
        spans = Spans(True)
        parent = spans.add("op", 0.0, 4.0, request="job-1")
        spans.add("child", 1.0, 2.0, parent, "job-1")
        spans.write(tmp_path / "spans.json")
        doc = json.loads((tmp_path / "spans.json").read_text())
        assert [s["self"] for s in doc] == [pytest.approx(3.0), pytest.approx(1.0)]
        assert doc[1]["parent"] == doc[0]["id"] and doc[1]["request"] == "job-1"


def _fake_server(refuse: bool):
    """A stand-in for ``repro serve``: admits (or refuses with 429) and
    reports every job done from the cache at once."""

    async def handle(reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(next((line.split(b":")[1] for line in head.split(b"\r\n")
                           if line.lower().startswith(b"content-length")), b"0"))
        await reader.readexactly(length)
        if head.startswith(b"POST"):
            status, body = (429, {"error": "quota_exceeded"}) if refuse else (202, {"id": "j1"})
        else:
            status, body = 200, {"status": "done", "result": {"kind": "simulate"},
                                 "supervisor": {"executed": 0}}
        data = json.dumps(body).encode()
        writer.write(f"HTTP/1.1 {status} X\r\nContent-Length: {len(data)}\r\n\r\n".encode()
                     + data)
        await writer.drain()
        writer.close()

    return handle


def _one_job(refuse: bool, late_by: float) -> serve_mix.Job:
    async def main():
        server = await asyncio.start_server(_fake_server(refuse), "127.0.0.1", 0)
        async with server:
            load = serve_mix.Load(server.sockets[0].getsockname()[1], Spans(True))
            return await load.job({"kind": "simulate"}, "alice", clock() - late_by, "open",
                                  True)

    return asyncio.run(main())


class TestDueTimeAccounting:
    def test_latency_runs_from_the_due_time(self):
        job = _one_job(refuse=False, late_by=0.2)
        assert not job.error and job.hit
        assert job.late_s >= 0.2
        assert job.latency_s >= job.late_s + serve_mix.POLL_MIN_S
        assert job.latency_s == pytest.approx(job.end - job.due)

    def test_refusal_fails_and_misses_the_limit(self):
        refused = _one_job(refuse=True, late_by=0.0)
        assert refused.error.startswith("refused with HTTP 429")
        run_ = WorkloadRun("serve_mix", goodput_limit_s=1.0, ops=[
            Op("simulate", 0.5, True),
            Op("simulate", 1.5, True),
            Op("simulate", refused.latency_s, not refused.error),
        ])
        figures = end_to_end(run_)
        assert figures["goodput_share"] == pytest.approx(1 / 3)
        assert figures["failed_share"] == pytest.approx(1 / 3)
        assert figures["p50_ms"] == pytest.approx(1000.0)


class TestCorruptedOutputIsCounted:
    STDOUT = "scheme table\nrun cache: 8 hits / 0 misses (100%), 8 entries, disk=/t/c\n"

    def test_cli_output_that_differs_from_its_first_run_fails(self):
        first: dict = {}
        assert cli_cold.check_command("compare_read", 0, self.STDOUT, "/t", first)[0] == ""
        moved = self.STDOUT.replace("/t/", "/u/")
        assert cli_cold.check_command("compare_read", 0, moved, "/u", first)[0] == ""
        corrupted = self.STDOUT.replace("scheme", "schema")
        reason, _ = cli_cold.check_command("compare_read", 0, corrupted, "/t", first)
        assert "differs" in reason
        run_ = WorkloadRun("cli_cold", ops=[Op("compare_read", 0.4, True),
                                            Op("compare_read", 0.4, not reason)])
        assert end_to_end(run_)["failed_share"] == 0.5

    def test_cli_read_pass_must_hit_the_disk_cache(self):
        cold = self.STDOUT.replace("8 hits / 0 misses", "0 hits / 8 misses")
        assert "missed" in cli_cold.check_command("compare_read", 0, cold, "/t", {})[0]
        assert cli_cold.check_command("faults", 1, "", "/t", {})[0] == "exit code 1"

    def test_serve_repeat_with_a_different_result_fails(self):
        spec = {"kind": "simulate", "model": "lenet"}
        jobs = []
        for end, makespan in ((1.0, 2.5), (2.0, 2.5), (3.0, 2.6)):
            job = serve_mix.Job(dict(spec), "alice", 0.0, "open", end=end)
            job.doc = {"status": "done",
                       "result": {"kind": "simulate", "run": {"ok": True, "makespan": makespan}}}
            jobs.append(job)
        serve_mix.check_results(jobs)
        assert [bool(j.error) for j in jobs] == [False, False, True]

    def test_fleet_violation_or_drift_fails(self):
        ref = {"violations": 0, "passed": True, "makespan": 5.0, "events": 10, "tasks": 3,
               "swap_bytes": 1.0}
        assert fleet_audit.check(dict(ref), ref) == ""
        assert "violation" in fleet_audit.check({**ref, "violations": 2, "passed": False}, ref)
        assert "makespan" in fleet_audit.check({**ref, "makespan": 5.1}, ref)


class TestSeededInputs:
    def test_same_seed_same_serve_stream(self):
        def draw(seed):
            stream = serve_mix.SpecStream(seed)
            return [stream.next() for _ in range(200)], serve_mix.arrivals(seed, 6.0, 30.0)

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)

    def test_serve_mix_holds_its_proportions(self):
        stream = serve_mix.SpecStream(3)
        draws = [stream.next() for _ in range(200)]
        kinds = [spec["kind"] for spec, _, _ in draws]
        for kind, per_block in serve_mix.BLOCK.items():
            assert kinds.count(kind) == 10 * per_block
        assert 0.3 <= sum(repeat for _, _, repeat in draws) / len(draws) <= 0.4

    def test_same_seed_same_cli_order_and_fleet_sizes(self):
        assert cli_cold.cycle_order(5) == cli_cold.cycle_order(5)
        order = cli_cold.cycle_order(5)
        assert order.index("compare_write") + 1 == order.index("compare_read")
        assert sorted(order) == sorted(cli_cold.COMMANDS)
        assert fleet_audit.sizes(5) == fleet_audit.sizes(5) != fleet_audit.sizes(6)


class TestContract:
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        assert listed == list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] == list(run.LISTED)
        assert set(run.LISTED) <= set(run.WORKLOADS)

    def test_refuses_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_cold",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert "correct" not in done.stdout
