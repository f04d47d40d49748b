"""Swap-volume accounting, broken down the way the paper reasons.

The analytical comparison in §3 talks about per-tensor-kind volumes
("here we focus on model weights W"); Fig. 2(a) plots *global swap-out
volume*; Fig. 2(c) needs per-device views.  :class:`SwapStats` records
every byte moved, keyed by (device, tensor kind, direction), so all
three views — and the exact weight-only cross-check against the
closed-form model — fall out of one ledger.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.tensors.tensor import TensorKind
from repro.units import GB
from repro.util.enums import FastEnum


class Direction(FastEnum):
    SWAP_IN = "swap_in"        # host -> device over the host link
    SWAP_OUT = "swap_out"      # device -> host over the host link
    P2P_IN = "p2p_in"          # device -> device (receiving side)
    P2P_OUT = "p2p_out"        # device -> device (sending side)
    DROP = "drop"              # clean eviction, no traffic

    def __str__(self) -> str:
        return self.value


_HOST_DIRECTIONS = (Direction.SWAP_IN, Direction.SWAP_OUT)


_Key = tuple[str, TensorKind, Direction]


@dataclass
class SwapStats:
    """Ledger of all data movement in one simulated run.

    Each ledger is a flat ``(device, kind, direction)``-keyed dict plus a
    per-device index of its keys in first-insertion order.  A per-device
    query walks only that device's keys, which are exactly the flat
    dict's keys for the device in the flat dict's order, so its sum adds
    the same values in the same order as a filtered scan of the whole
    ledger — bitwise equal, at O(keys of one device) instead of
    O(ledger).  Keys are never deleted; only :meth:`record` and
    :meth:`restore` add them, and both maintain the index.
    """

    _volume: dict[_Key, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    _events: dict[_Key, int] = field(default_factory=lambda: defaultdict(int))
    #: Bytes re-sent after transient transfer failures, ledgered
    #: separately: a retried attempt occupies the wire (and therefore
    #: *also* lands in ``_volume``, keeping trace<->ledger conservation
    #: exact), but this ledger isolates the waste for the fault report.
    _retried: dict[_Key, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    _retry_events: dict[_Key, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: device -> its ``_volume``/``_events`` keys, first-insertion order.
    _keys: dict[str, list[_Key]] = field(default_factory=dict, repr=False)
    #: device -> its ``_retried``/``_retry_events`` keys, likewise.
    _retry_keys: dict[str, list[_Key]] = field(default_factory=dict, repr=False)
    #: When set (a list), every record also appends ``(key, nbytes)`` —
    #: the per-iteration delta capture behind steady-state fast-forward
    #: (see :mod:`repro.steady.cycle`), which must replay the exact
    #: per-key record *sequence* rather than a per-key total to stay
    #: bitwise-faithful.  ``None`` (the default) costs one branch.
    _journal: list | None = field(default=None, repr=False)

    def record(
        self, device: str, kind: TensorKind, direction: Direction, nbytes: float
    ) -> None:
        key = (device, kind, direction)
        if key not in self._volume:
            self._keys.setdefault(device, []).append(key)
        self._volume[key] += nbytes
        self._events[key] += 1
        if self._journal is not None:
            self._journal.append((key, nbytes))

    def record_retry(
        self, device: str, kind: TensorKind, direction: Direction, nbytes: float
    ) -> None:
        """Ledger one failed transfer attempt whose bytes must move
        again: counted in the main volume ledger (the wire really was
        occupied) *and* in the separate retry ledger."""
        self.record(device, kind, direction, nbytes)
        key = (device, kind, direction)
        if key not in self._retried:
            self._retry_keys.setdefault(device, []).append(key)
        self._retried[key] += nbytes
        self._retry_events[key] += 1

    def ledgers(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The four ledgers as item tuples in recording order — volume,
        events, retried, retry events — for :meth:`restore`."""
        return (
            tuple(self._volume.items()),
            tuple(self._events.items()),
            tuple(self._retried.items()),
            tuple(self._retry_events.items()),
        )

    def restore(
        self, volume: tuple, events: tuple, retried: tuple, retry_events: tuple
    ) -> None:
        """Replace every ledger with :meth:`ledgers` output (a prefix
        checkpoint's) and rebuild the per-device indexes from it."""
        for ledger, index, items in (
            (self._volume, self._keys, volume),
            (self._retried, self._retry_keys, retried),
        ):
            ledger.clear()
            ledger.update(items)
            index.clear()
            for key in ledger:
                index.setdefault(key[0], []).append(key)
        self._events.clear()
        self._events.update(events)
        self._retry_events.clear()
        self._retry_events.update(retry_events)

    # -- aggregated views --------------------------------------------------

    def volume(
        self,
        device: str | None = None,
        kind: TensorKind | None = None,
        direction: Direction | None = None,
    ) -> float:
        """Total bytes matching the given filters (None = any)."""
        return sum(_matching(self._volume, self._keys, device, kind, direction))

    def events(
        self,
        device: str | None = None,
        kind: TensorKind | None = None,
        direction: Direction | None = None,
    ) -> int:
        return sum(_matching(self._events, self._keys, device, kind, direction))

    def host_traffic(self, device: str | None = None) -> float:
        """Bytes crossing the device<->host boundary (both directions) —
        the traffic that rides the oversubscribed uplink."""
        return sum(self.volume(device, None, d) for d in _HOST_DIRECTIONS)

    def swap_out_volume(self, device: str | None = None) -> float:
        """The paper's Fig. 2(a) metric: global swap-out volume."""
        return self.volume(device, None, Direction.SWAP_OUT)

    def swap_in_volume(self, device: str | None = None) -> float:
        return self.volume(device, None, Direction.SWAP_IN)

    def p2p_volume(self) -> float:
        """Bytes moved device-to-device (counted once, receiver side)."""
        return self.volume(None, None, Direction.P2P_IN)

    def kind_swap_volume(self, kind: TensorKind) -> float:
        """Host-crossing volume for one tensor kind (e.g. weights only —
        the quantity in the paper's (4m+2)N|W| analysis)."""
        return self.volume(None, kind, Direction.SWAP_IN) + self.volume(
            None, kind, Direction.SWAP_OUT
        )

    def direction_volumes(self, device: str | None = None) -> dict[Direction, float]:
        """Per-direction byte totals, optionally for one device — the
        breakdown the audit layer reconciles against the trace."""
        out: dict[Direction, float] = {d: 0.0 for d in Direction}
        for (_, _, dr), v in _items(self._volume, self._keys, device):
            out[dr] += v
        return out

    def retried_volume(
        self,
        device: str | None = None,
        kind: TensorKind | None = None,
        direction: Direction | None = None,
    ) -> float:
        """Bytes wasted on failed transfer attempts (subset of
        :meth:`volume` — conservation checks include them)."""
        return sum(
            _matching(self._retried, self._retry_keys, device, kind, direction)
        )

    def retry_events(
        self,
        device: str | None = None,
        kind: TensorKind | None = None,
        direction: Direction | None = None,
    ) -> int:
        return sum(
            _matching(self._retry_events, self._retry_keys, device, kind, direction)
        )

    def total_volume(self) -> float:
        """Every byte the ledger saw move (all devices, all directions,
        including clean drops) — a cheap conservation checksum."""
        return sum(self._volume.values())

    def devices(self) -> list[str]:
        """Sorted roster of devices that moved any bytes — the keys of
        the per-device index, not a ledger scan."""
        return sorted(self._keys)

    def summary(self) -> str:
        lines = ["swap stats (GB):"]
        for device in self.devices():
            per_dir = self.direction_volumes(device)
            parts = [
                f"{direction.value}={per_dir[direction] / GB:.2f}"
                for direction in Direction
                if per_dir[direction]
            ]
            retried = self.retried_volume(device)
            if retried:
                parts.append(f"retried={retried / GB:.2f}")
            lines.append(f"  {device}: " + (", ".join(parts) or "none"))
        return "\n".join(lines)


def _items(ledger: dict, index: dict[str, list[_Key]], device: str | None):
    """``ledger``'s items in recording order: all of them, or through
    the per-device index only ``device``'s."""
    if device is None:
        return ledger.items()
    return ((key, ledger[key]) for key in index.get(device, ()))


def _matching(
    ledger: dict,
    index: dict[str, list[_Key]],
    device: str | None,
    kind: TensorKind | None,
    direction: Direction | None,
):
    """Values of ``ledger`` matching the filters (None = any), in
    recording order."""
    return (
        v
        for (_, k, dr), v in _items(ledger, index, device)
        if (kind is None or k == kind) and (direction is None or dr == direction)
    )
