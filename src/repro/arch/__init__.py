"""Pluggable microarchitecture backends (``GPUConfig.arch``).

One :class:`~repro.arch.base.ArchBackend` per machine family:

* ``gpumech2014`` — the paper's core (default; bitwise-identical to the
  pre-backend code path): one scheduler per core, stack reconvergence.
* ``subcore`` — a modern core: ``n_schedulers`` sub-core issue slots
  with static warp partitions, independent-thread-scheduling-style
  reconvergence.

The registry is keyed by name and cross-checked against
``repro.config.KNOWN_ARCHES`` (the config layer validates arch strings
without importing this package).
"""

from __future__ import annotations

from typing import Dict

from repro.arch.base import ArchBackend, schedulers_for
from repro.arch.gpumech2014 import GpuMech2014
from repro.arch.subcore import SubCore
from repro.config import KNOWN_ARCHES

_REGISTRY: Dict[str, ArchBackend] = {
    backend.name: backend for backend in (GpuMech2014(), SubCore())
}

#: Registered backend names, sorted (= ``config.KNOWN_ARCHES`` content).
ARCH_NAMES = tuple(sorted(_REGISTRY))

if set(ARCH_NAMES) != set(KNOWN_ARCHES):  # pragma: no cover - import guard
    raise ImportError(
        "arch registry %r disagrees with config.KNOWN_ARCHES %r"
        % (ARCH_NAMES, KNOWN_ARCHES)
    )


def get_arch(name: str) -> ArchBackend:
    """Look up a backend by its ``GPUConfig.arch`` name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown arch %r; known architecture backends: %s"
            % (name, ", ".join(ARCH_NAMES))
        ) from None


__all__ = [
    "ArchBackend",
    "ARCH_NAMES",
    "GpuMech2014",
    "SubCore",
    "get_arch",
    "schedulers_for",
]
