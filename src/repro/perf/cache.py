"""The content-addressed run cache.

:class:`RunCache` maps fingerprints (see
:mod:`repro.perf.fingerprint`) to serialized run payloads — usually
:class:`~repro.sim.result.RunResult`, but any picklable value (the
tuner caches :class:`~repro.tuner.profiler.ProfilePoint`).  It is a key
schema over :class:`~repro.util.durable.BlobStore`, whose rules it
inherits: an always-on memory tier plus an optional disk tier (the
CLI's ``--cache-dir``, conventionally ``~/.cache/repro``) written
atomically, torn entries deleted and counted as ``invalidations``,
failed disk writes counted in ``write_errors`` with one warning, and
every hit a fresh deserialization — which is what makes the
byte-identical guarantee testable: a hit is never a shared mutable
object an earlier caller may have decorated (e.g. attached an audit
report to).

One cache instance may be shared by concurrent callers (the job
server hands a single instance to every tenant's supervisor): the
counters and memory tier are lock-guarded, and ``get_or_run`` holds no
lock around ``compute`` — two racing misses on the same key both
compute, and the byte-identical guarantee makes the double store
harmless (last write wins with an equal value).

Invalidation is by construction: the fingerprint already contains the
scheduler version salt, so semantics changes miss instead of serving
stale entries.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.util.durable import MISS as _MISS
from repro.util.durable import BlobSchema, BlobStore


class RunCache(BlobSchema):
    """In-memory (+ optional on-disk) fingerprint -> payload cache.

    A key schema over :class:`~repro.util.durable.BlobStore`: one blob
    per fingerprint at ``<cache_dir>/<key[:2]>/<key>.pkl``.
    """

    #: Sentinel returned by ``get(key, default=RunCache.MISS)`` so
    #: callers can cache falsy payloads without re-computing them.
    MISS = _MISS

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self._blobs = BlobStore(cache_dir, name="run cache")

    @property
    def cache_dir(self) -> str | None:
        return self._blobs.directory

    @cache_dir.setter
    def cache_dir(self, value: str | None) -> None:
        self._blobs.directory = value

    # -- public ----------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """The cached payload for ``key``, freshly deserialized, or
        ``default`` on a miss.  Counts one hit or one miss.

        Pass ``default=RunCache.MISS`` when a cached payload may itself
        be falsy — the sentinel is the only value ``get`` never returns
        for a hit, so ``result is RunCache.MISS`` is an unambiguous
        miss test.
        """
        return self._blobs.get(key, default)

    def put(self, key: str, payload: Any) -> None:
        """Serialize and store ``payload`` in every enabled tier."""
        self._blobs.put(key, payload)

    def get_or_run(self, key: str, compute: Callable[[], Any]) -> Any:
        """``get(key)``, falling back to ``compute()`` + ``put``.

        The returned value on a miss is a cache round-trip of the
        computed payload, so hit and miss callers observe identical
        (deserialized) objects.  The lookup uses the :data:`MISS`
        sentinel, so a legitimately cached falsy payload (``None``,
        ``0``, ``[]``) is a hit, not an eternal recompute.
        """
        cached = self.get(key, _MISS)
        if cached is not _MISS:
            return cached
        self.put(key, compute())
        return self._blobs.get(key, tally=False)

    def describe(self) -> str:
        write_errors = self.write_errors
        tier = f", disk={self.cache_dir}" if self.cache_dir else ""
        errors = (
            f", {write_errors} disk write error(s)" if write_errors else ""
        )
        return (
            f"run cache: {self._hit_summary()}, {len(self)} entries"
            f"{tier}{errors}"
        )
