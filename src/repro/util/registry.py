"""Name -> implementation registries (schedulers, recovery policies,
failure detectors) share one lookup and one unknown-name message."""

from __future__ import annotations

from typing import Mapping, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")


def lookup(registry: Mapping[str, T], name: str, noun: str) -> T:
    """``registry[name]``, or a :class:`ConfigError` naming every valid
    entry: ``unknown <noun> 'x'; valid <plural>: a, b``.  The plural is
    the noun's last word ("recovery policy" lists "valid policies")."""
    try:
        return registry[name]
    except KeyError:
        last = noun.split()[-1]
        plural = last[:-1] + "ies" if last.endswith("y") else last + "s"
        raise ConfigError(
            f"unknown {noun} {name!r}; valid {plural}: " + ", ".join(registry)
        ) from None
