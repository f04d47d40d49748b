"""The durable-storage primitives (``repro.util.durable``) and the
on-disk formats of the four schemas built on them.

Each primitive rule is tested once here — the journal, jobs ledger,
run cache and checkpoint store inherit it.  The format tests pin the
exact bytes and paths each schema writes, so files written by earlier
versions keep loading.
"""

from __future__ import annotations

import base64
import os
import pickle
import warnings

import pytest

from repro.perf.cache import RunCache
from repro.perf.incremental import CheckpointStore, Snapshot
from repro.serve.state import JobLedger, load_ledger
from repro.supervisor.journal import DONE, JournalWriter, load_journal
from repro.util.durable import MISS, AppendLog, BlobStore, load_log


def _records(path) -> tuple[list[dict], int, int]:
    seen: list[dict] = []
    records, torn = load_log(path, seen.append)
    return seen, records, torn


class TestAppendLog:
    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with AppendLog(path) as log:
            log.append({"type": "a", "n": 1})
        with open(path, "ab") as fh:
            fh.write(b'{"type": "a", "n"')  # a crash mid-append
        seen, records, torn = _records(path)
        assert seen == [{"type": "a", "n": 1}]
        assert (records, torn) == (1, 1)

    def test_untyped_lines_are_torn(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'[1, 2]\n{"n": 1}\n{"type": "a"}\n')
        seen, records, torn = _records(path)
        assert seen == [{"type": "a"}]
        assert (records, torn) == (1, 2)

    def test_reopen_newline_terminates_a_torn_fragment(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"type": "a"}\n{"type": "b", "tor')
        with AppendLog(path) as log:
            assert not log.fresh
            log.append({"type": "c"})
        assert path.read_bytes() == (
            b'{"type": "a"}\n{"type": "b", "tor\n{"type": "c"}\n'
        )
        seen, records, torn = _records(path)
        assert [r["type"] for r in seen] == ["a", "c"]
        assert (records, torn) == (2, 1)

    def test_fresh_only_for_a_new_or_empty_file(self, tmp_path):
        path = tmp_path / "sub" / "log.jsonl"
        with AppendLog(path) as log:
            assert log.fresh
        with AppendLog(path) as log:
            assert log.fresh  # still empty
            log.append({"type": "a"})
        with AppendLog(path) as log:
            assert not log.fresh

    def test_missing_file_is_an_empty_log(self, tmp_path):
        assert _records(tmp_path / "absent.jsonl") == ([], 0, 0)

    def test_duplicates_reach_the_fold_in_order(self, tmp_path):
        # First-outcome-wins is a schema rule: the primitive hands the
        # fold every record, and the journal's fold keeps the first.
        path = tmp_path / "log.jsonl"
        with JournalWriter(path) as w:
            w.outcome("k", DONE, 1, "first")
            w.outcome("k", DONE, 1, "second")
        seen, _, _ = _records(path)
        assert [r["key"] for r in seen] == ["k", "k"]
        assert load_journal(path).outcomes["k"].payload() == "first"


class TestBlobStore:
    def test_hit_is_a_fresh_object(self, tmp_path):
        for store in (BlobStore(), BlobStore(tmp_path)):
            store.put("k", {"mutable": []})
            first = store.get("k")
            first["mutable"].append(1)
            assert store.get("k") == {"mutable": []}
            assert store.get("k") is not store.get("k")

    def test_disk_hit_is_promoted_and_counted(self, tmp_path):
        BlobStore(tmp_path).put("k", 7)
        store = BlobStore(tmp_path)
        assert store.get("k") == 7
        assert len(store) == 1
        assert store.get("absent", None) is None
        counts = store.counters()
        assert (counts["hits"], counts["misses"]) == (1, 1)

    def test_torn_blob_is_invalidated(self, tmp_path):
        store = BlobStore(tmp_path)
        store.put("k", 1)
        path = store.path("k")
        with open(path, "wb") as fh:
            fh.write(b"torn")
        store.clear()
        assert store.get("k") is MISS
        assert not os.path.exists(path)
        counts = store.counters()
        assert (counts["invalidations"], counts["misses"]) == (1, 1)

    def test_untallied_lookup_leaves_hits_and_misses(self, tmp_path):
        store = BlobStore(tmp_path)
        store.put("k", 1)
        store.get("k", tally=False)
        store.get("absent", tally=False)
        counts = store.counters()
        assert (counts["hits"], counts["misses"]) == (0, 0)

    def test_write_error_warns_once(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = BlobStore(tmp_path / "blobs", name="test store")
        store.directory = str(blocker / "blobs")
        with pytest.warns(RuntimeWarning, match="test store: disk write"):
            store.put("a", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.put("b", 2)
        assert store.counters()["write_errors"] == 2
        assert (store.get("a"), store.get("b")) == (1, 2)  # memory kept both

    def test_keys_lists_both_tiers(self, tmp_path):
        BlobStore(tmp_path).put("base/1", 1)
        store = BlobStore(tmp_path)
        store.put("base/2", 2)
        store.put("other/3", 3)
        assert store.keys("base") == {"base/1", "base/2"}
        assert store.has("base/1") and not store.has("base/9")


def _files(root) -> dict[str, bytes]:
    out = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestFileFormats:
    """Byte-for-byte: what each schema writes, and where."""

    def test_journal_bytes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as w:
            w.header(["compare", "lenet"])
            w.attempt("k", 1)
            w.outcome("k", DONE, 1, {"v": 1})
        b64 = base64.b64encode(pickle.dumps({"v": 1}))
        assert path.read_bytes() == (
            b'{"command": ["compare", "lenet"], "schema": 1, '
            b'"type": "header"}\n'
            b'{"attempt": 1, "key": "k", "type": "attempt"}\n'
            b'{"attempts": 1, "key": "k", "payload": "' + b64
            + b'", "status": "done", "type": "outcome"}\n'
        )
        state = load_journal(path)
        assert state.command == ["compare", "lenet"]
        assert state.outcomes["k"].payload() == {"v": 1}

    def test_jobs_ledger_bytes(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobLedger(path) as ledger:
            ledger.job("j1", "alice", 1, {"kind": "simulate"})
            ledger.outcome("j1", "done", result={"x": 1})
        assert path.read_bytes() == (
            b'{"id": "j1", "schema": 1, "seq": 1, "spec": {"kind": '
            b'"simulate"}, "tenant": "alice", "type": "job"}\n'
            b'{"error": null, "id": "j1", "result": {"x": 1}, '
            b'"status": "done", "type": "outcome"}\n'
        )
        job = load_ledger(path).jobs["j1"]
        assert (job.status, job.result) == ("done", {"x": 1})

    def test_cache_dir_layout(self, tmp_path):
        RunCache(tmp_path).put("result:abcd", {"v": 1})
        assert _files(tmp_path) == {
            os.path.join("re", "result:abcd.pkl"): pickle.dumps({"v": 1})
        }
        assert RunCache(tmp_path).get("result:abcd") == {"v": 1}

    def test_checkpoint_dir_layout(self, tmp_path):
        snap = Snapshot(
            iteration=4, epoch=0.0, samples=0, events_processed=0,
            trace_events=(), busy=(), runtimes=(), home=(), use_seq=0,
            pools=(), usage_log=(), activation_resident=(),
            activation_peak=(), stats_volume=(), stats_events=(),
            stats_retried=(), stats_retry_events=(), prev_fp=None,
            fp=None, ledger=None, detecting=False,
        )
        CheckpointStore(tmp_path).put("ab12", snap)
        assert _files(tmp_path) == {
            os.path.join("ab", "ab12", "4.pkl"): pickle.dumps(snap)
        }
        assert CheckpointStore(tmp_path).best("ab12", 9) == snap
