"""The two durable-storage primitives every host-side store is built on.

* :class:`AppendLog` — an append-only JSONL file.  Each record is one
  JSON line, flushed and ``fsync``'d before ``append`` returns, so a
  crash tears at most the final line.  Reopening a log whose tail is
  torn newline-terminates the fragment before appending, and
  :func:`load_log` skips (and counts) unparseable lines, handing every
  parsed record to a per-schema fold.  The sweep journal
  (:mod:`repro.supervisor.journal`) and the server's jobs ledger
  (:mod:`repro.serve.state`) are record schemas over this.
* :class:`BlobStore` — pickled payloads by string key: an always-on
  memory tier plus an optional disk tier at
  ``<directory>/<key[:2]>/<key>.pkl`` (``/`` in a key nests
  directories).  Disk writes go to a temp file and ``os.replace`` into
  place, so a concurrent reader never sees a torn blob; a blob that
  fails to load anyway (truncated, incompatible Python) is deleted and
  counted as an invalidation.  A failed disk write is counted and warns
  once; the memory tier keeps serving.  Every hit is a fresh
  ``pickle.loads`` of the stored bytes, never a shared object an
  earlier caller may have mutated.  The run cache
  (:mod:`repro.perf.cache`) and the prefix-checkpoint store
  (:mod:`repro.perf.incremental`) are key schemas over this.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import threading
import warnings
from typing import IO, Any, Callable

#: Distinguished miss marker: ``get(key, MISS)`` tells a miss apart
#: from a legitimately stored falsy payload (``None``, ``0``, ``[]``).
MISS = object()


class AppendLog:
    """An fsync'd append-only JSONL file.

    ``fresh`` is true when this handle created the file (or found it
    empty) — schemas that write a one-time header check it.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        existed = (
            os.path.exists(self.path) and os.path.getsize(self.path) > 0
        )
        self._fh: IO[bytes] = open(self.path, "ab")
        self.fresh = not existed
        if existed:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    self._write(b"\n")

    def _write(self, data: bytes) -> None:
        self._fh.write(data)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, record: dict) -> None:
        """Write ``record`` as one line; durable when this returns."""
        self._write(json.dumps(record, sort_keys=True).encode() + b"\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def load_log(
    path: str | os.PathLike, fold: Callable[[dict], None]
) -> tuple[int, int]:
    """Feed every parseable record of the log at ``path`` to ``fold``,
    in file order; returns ``(records, torn)``.

    A record is a JSON object with a ``type`` field; any other line is
    torn (a crash mid-``append``, or a fragment a reopen terminated)
    and is skipped.  A missing file is an empty log.  Duplicate or
    unknown records are the fold's business.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return 0, 0
    records = torn = 0
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            record["type"]
        except (ValueError, KeyError, TypeError):
            torn += 1
            continue
        records += 1
        fold(record)
    return records, torn


class BlobStore:
    """Pickled payloads in memory, optionally mirrored to a directory.

    ``name`` prefixes the one-time disk-write warning.  The counters
    (``hits``, ``misses``, ``stores``, ``invalidations``,
    ``write_errors``, plus any a schema adds through :meth:`count`)
    are guarded by one lock, so a store may be shared across threads.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        name: str = "blob store",
    ):
        self._lock = threading.RLock()
        self.memory: dict[str, bytes] = {}
        self.directory = (
            os.fspath(directory) if directory is not None else None
        )
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
        self.name = name
        self.counts = dict.fromkeys(
            ("hits", "misses", "stores", "invalidations", "write_errors"), 0
        )
        self._warned = False

    def path(self, key: str) -> str:
        return self._location(key) + ".pkl"

    def _location(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], *key.split("/"))

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)

    def put(self, key: str, payload: Any) -> None:
        """Pickle ``payload`` into every enabled tier."""
        blob = pickle.dumps(payload)
        with self._lock:
            self.memory[key] = blob
            self.counts["stores"] += 1
        if self.directory is not None:
            self._write(key, blob)

    def get(self, key: str, default: Any = MISS, tally: bool = True) -> Any:
        """A fresh unpickling of ``key``'s payload, or ``default``.

        A disk hit is promoted to the memory tier.  ``tally=False``
        leaves the hit/miss counters to the caller (a schema whose
        lookup probes several keys counts once per lookup).
        """
        with self._lock:
            blob = self.memory.get(key)
        payload = MISS
        if blob is not None:
            payload = pickle.loads(blob)
        elif self.directory is not None:
            blob = self._read(key)
            if blob is not None:
                try:
                    payload = pickle.loads(blob)
                except Exception:
                    self._invalidate(key)
                else:
                    with self._lock:
                        self.memory[key] = blob
        if tally:
            self.count("misses" if payload is MISS else "hits")
        return default if payload is MISS else payload

    def has(self, key: str) -> bool:
        """Existence probe; touches no counter."""
        with self._lock:
            if key in self.memory:
                return True
        return self.directory is not None and os.path.exists(self.path(key))

    def keys(self, prefix: str) -> set[str]:
        """Every stored key of the form ``prefix/<name>``, either tier."""
        start = prefix + "/"
        with self._lock:
            found = {k for k in self.memory if k.startswith(start)}
        if self.directory is not None:
            try:
                names = os.listdir(self._location(prefix))
            except OSError:
                names = []
            found.update(start + n[:-4] for n in names if n.endswith(".pkl"))
        return found

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left in place)."""
        with self._lock:
            self.memory.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.memory)

    def _read(self, key: str) -> bytes | None:
        try:
            with open(self.path(key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def _invalidate(self, key: str) -> None:
        try:
            os.unlink(self.path(key))
        except OSError:
            pass
        self.count("invalidations")

    def _write(self, key: str, blob: bytes) -> None:
        path = self.path(key)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError as exc:
            with self._lock:
                self.counts["write_errors"] += 1
                warn_now = not self._warned
                self._warned = True
            if warn_now:
                warnings.warn(
                    f"{self.name}: disk write to {self.directory} failed "
                    f"({exc}); continuing in memory only, further failures "
                    "are counted in counters()['write_errors']",
                    RuntimeWarning,
                    stacklevel=3,
                )
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass


class BlobSchema:
    """Base for key schemas over a :class:`BlobStore` (``self._blobs``):
    the shared reporting and memory-tier controls.  Counters also read
    as attributes (``store.hits``)."""

    _blobs: BlobStore

    def __getattr__(self, name: str) -> int:
        if name != "_blobs":
            counts = self._blobs.counters()
            if name in counts:
                return counts[name]
        raise AttributeError(name)

    def counters(self) -> dict[str, int]:
        return self._blobs.counters()

    @property
    def hit_rate(self) -> float:
        counts = self._blobs.counters()
        total = counts["hits"] + counts["misses"]
        return counts["hits"] / total if total else 0.0

    def _hit_summary(self) -> str:
        counts = self._blobs.counters()
        return (
            f"{counts['hits']} hits / {counts['misses']} misses "
            f"({100 * self.hit_rate:.0f}%)"
        )

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left in place)."""
        self._blobs.clear()

    def __len__(self) -> int:
        return len(self._blobs)
