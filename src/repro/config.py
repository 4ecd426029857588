"""Machine configuration for GPUMech and the timing oracle.

This module encodes Table I of the paper (the simulated machine) as a
validated dataclass.  The same :class:`GPUConfig` instance drives

* the functional cache simulator (``repro.memory.cache_simulator``),
* the detailed timing simulator (``repro.timing``), and
* the GPUMech analytical model (``repro.core``),

so that model and oracle always describe the same machine.

All latencies are in core cycles at ``core_clock_ghz``.  The DRAM service
time of one cache line on the bus is ``line_size / dram_bandwidth`` seconds,
i.e. ``core_clock_ghz * line_size_bytes / dram_bandwidth_gbps`` cycles
(Eq. 22 of the paper).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Optional


class ConfigError(ValueError):
    """Raised when a :class:`GPUConfig` fails validation."""


#: Registered microarchitecture backends (see ``repro.arch``).  Defined
#: here rather than imported so the config layer stays import-cycle-free;
#: ``repro.arch`` cross-checks its registry against this tuple at import.
KNOWN_ARCHES = ("gpumech2014", "subcore")


#: Fields the *functional emulator* reads: they determine the dynamic
#: trace (lane count, coalescing granularity, bank-conflict degrees
#: — and, via the architecture backend's reconvergence policy, the
#: divergence serialisation order).  Changing any other field leaves the
#: trace artifact valid — the invariant behind the paper's Sec. VI-D
#: cost argument and the staged pipeline's invalidation rules
#: (``repro.pipeline``).  ``arch`` is here because independent-thread-
#: scheduling reconvergence reorders divergent warps' dynamic streams.
#: ``simt_width`` is absent: validation pins it to ``warp_size``, so the emulator
#: never reads it and keying on it would only double-count warp width
#: (a fact ``repro.depcheck`` verifies statically and at runtime).
TRACE_FIELDS: FrozenSet[str] = frozenset(
    {"warp_size", "line_size", "smem_banks", "arch"}
)


#: Instruction latencies (cycles) per operation class, following Table I
#: ("instruction latencies are modeled according to the CUDA manual (normal
#: FP instructions are 25 cycles)").  Integer ALU operations are cheaper;
#: SFU transcendentals are more expensive.
DEFAULT_OP_LATENCIES: Dict[str, int] = {
    "ialu": 4,
    "falu": 25,
    "sfu": 40,
}


@dataclass(frozen=True)
class GPUConfig:
    """Parameters of the modeled GPU (Table I of the paper).

    The defaults reproduce the paper's baseline configuration except for
    ``n_cores``: the paper simulates 16 homogeneous cores, which is
    prohibitively slow for a pure-Python cycle-level oracle, so the library
    default is 4 cores (see DESIGN.md, substitution 4).  Use
    :meth:`paper_baseline` for the literal Table I machine.
    """

    # Core organisation ----------------------------------------------------
    n_cores: int = 4
    core_clock_ghz: float = 1.0
    simt_width: int = 32
    warp_size: int = 32
    max_threads_per_core: int = 1024
    issue_width: int = 1  # warp-instructions per cycle

    # Scheduling -----------------------------------------------------------
    scheduler: str = "rr"  # "rr" (round-robin) or "gto" (greedy-then-oldest)

    # On-chip memory -------------------------------------------------------
    line_size: int = 128  # bytes
    l1_size: int = 32 * 1024
    l1_assoc: int = 8
    l1_latency: int = 25
    l2_size: int = 768 * 1024
    l2_assoc: int = 8
    l2_latency: int = 120  # includes NoC latency, per the paper
    n_mshrs: int = 32  # per-core MSHR entries

    # DRAM -----------------------------------------------------------------
    dram_latency: int = 300  # access latency without queuing
    dram_bandwidth_gbps: float = 192.0
    #: Memory channels the aggregate bandwidth is interleaved over
    #: (extension; the paper models a single queue, the default).
    n_dram_channels: int = 1

    # Software-managed (shared) memory ---------------------------------------
    #: Scratchpad size per core (Table I: "16 KB software managed cache").
    smem_size: int = 16 * 1024
    #: Scratchpad access latency in cycles (conflict-free).
    smem_latency: int = 30
    #: Scratchpad banks; lanes hitting the same bank (different words)
    #: serialise into that many accesses.
    smem_banks: int = 32

    # Special function units ------------------------------------------------
    #: SFU lanes per core.  The paper assumes a balanced design where
    #: "the resources used for normal operations are sufficient for each
    #: warp" and leaves SFU contention as future work (Sec. IV-B1); the
    #: default (= warp_size) reproduces that assumption.  Setting fewer
    #: lanes makes an SFU warp-instruction occupy the unit for
    #: ``warp_size / n_sfu_units`` cycles, creating the structural hazard
    #: that the extension model in ``core.contention`` predicts.
    n_sfu_units: int = 32

    # Instruction latencies ------------------------------------------------
    op_latencies: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_OP_LATENCIES)
    )

    # Microarchitecture backend --------------------------------------------
    #: Which machine family the model and oracle describe (``repro.arch``):
    #: ``"gpumech2014"`` — the paper's 2014-era core (one scheduler,
    #: stack-based reconvergence); ``"subcore"`` — a modern core with
    #: ``n_schedulers`` sub-core issue slots and independent-thread-
    #: scheduling-style reconvergence.  The architecture changes the
    #: *answer*, so this field is part of ``fingerprint()`` and keys the
    #: artifact store.
    arch: str = "gpumech2014"
    #: Sub-core schedulers (issue slots) per core; each owns a static
    #: partition of the resident warps.  Read only by backends with
    #: sub-core dispatch (``arch="subcore"``); gpumech2014 always runs
    #: one scheduler per core.
    n_schedulers: int = 4

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` unless every field is coherent.

        Called automatically on construction (``with_()`` round-trips
        re-validate too); public so callers holding a config from an
        untrusted source can re-assert the invariants explicitly.
        """
        if self.n_cores < 1:
            raise ConfigError("n_cores must be >= 1")
        if self.warp_size < 1:
            raise ConfigError("warp_size must be >= 1")
        if self.simt_width != self.warp_size:
            raise ConfigError(
                "this model assumes simt_width == warp_size (a warp issues "
                "in one cycle); got simt_width=%d warp_size=%d"
                % (self.simt_width, self.warp_size)
            )
        if self.max_threads_per_core % self.warp_size != 0:
            raise ConfigError("max_threads_per_core must be a multiple of warp_size")
        if self.scheduler not in ("rr", "gto"):
            raise ConfigError("scheduler must be 'rr' or 'gto'")
        if self.issue_width != 1:
            raise ConfigError("only issue_width == 1 is supported (Table I)")
        for cache_name, (size, assoc) in {
            "l1": (self.l1_size, self.l1_assoc),
            "l2": (self.l2_size, self.l2_assoc),
        }.items():
            if size % (self.line_size * assoc) != 0:
                raise ConfigError(
                    "%s cache size %d is not divisible by line_size*assoc"
                    % (cache_name, size)
                )
        if self.n_mshrs < 1:
            raise ConfigError("n_mshrs must be >= 1")
        if self.dram_bandwidth_gbps <= 0:
            raise ConfigError("dram_bandwidth_gbps must be positive")
        if self.core_clock_ghz <= 0:
            raise ConfigError("core_clock_ghz must be positive")
        missing = {"ialu", "falu", "sfu"} - set(self.op_latencies)
        if missing:
            raise ConfigError("op_latencies missing classes: %s" % sorted(missing))
        if not (1 <= self.n_sfu_units <= self.warp_size):
            raise ConfigError(
                "n_sfu_units must be in [1, warp_size]; got %d"
                % self.n_sfu_units
            )
        if self.n_dram_channels < 1:
            raise ConfigError("n_dram_channels must be >= 1")
        if self.smem_size < 0 or self.smem_latency < 1:
            raise ConfigError("invalid shared-memory parameters")
        if self.smem_banks < 1:
            raise ConfigError("smem_banks must be >= 1")
        if self.arch not in KNOWN_ARCHES:
            raise ConfigError(
                "unknown arch %r; known architecture backends: %s"
                % (self.arch, ", ".join(KNOWN_ARCHES))
            )
        if self.n_schedulers < 1:
            raise ConfigError("n_schedulers must be >= 1")
        if (
            self.arch == "subcore"
            and self.max_warps_per_core % self.n_schedulers != 0
        ):
            raise ConfigError(
                "n_schedulers=%d must divide warps_per_core=%d under "
                "arch='subcore' (warps are statically partitioned across "
                "the sub-core schedulers)"
                % (self.n_schedulers, self.max_warps_per_core)
            )

    # Derived quantities ---------------------------------------------------

    @property
    def max_warps_per_core(self) -> int:
        """Maximum resident warps on one core (Table I: 1024/32 = 32)."""
        return self.max_threads_per_core // self.warp_size

    @property
    def issue_rate(self) -> float:
        """Sustained issue rate in warp-instructions per cycle."""
        return float(self.issue_width)

    @property
    def dram_service_cycles(self) -> float:
        """Core cycles to transmit one cache line on the DRAM bus (Eq. 22).

        ``s = freq_core * L / B`` with L in bytes and B in bytes/second.
        """
        bandwidth_bytes_per_ns = self.dram_bandwidth_gbps  # GB/s == bytes/ns
        cycles_per_ns = self.core_clock_ghz
        return cycles_per_ns * self.line_size / bandwidth_bytes_per_ns

    @property
    def sfu_service_cycles(self) -> float:
        """Issue slots an SFU warp-instruction occupies on the SFU pipe."""
        return self.warp_size / self.n_sfu_units

    @property
    def l2_miss_latency(self) -> int:
        """Total latency of an access that misses in both caches."""
        return self.l2_latency + self.dram_latency

    def miss_event_latency(self, event: str) -> int:
        """Latency (cycles) of a memory access classified by miss event.

        ``event`` is one of ``"l1_hit"``, ``"l2_hit"``, ``"l2_miss"``.
        Latencies are end-to-end: an L2 hit costs the full L2 access
        latency (which subsumes the NoC), an L2 miss additionally pays the
        DRAM access latency.
        """
        if event == "l1_hit":
            return self.l1_latency
        if event == "l2_hit":
            return self.l2_latency
        if event == "l2_miss":
            return self.l2_miss_latency
        raise ConfigError("unknown miss event %r" % (event,))

    def with_(self, **overrides) -> "GPUConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **overrides)

    # Fingerprints -----------------------------------------------------------

    def fingerprint(self, fields: Optional[Iterable[str]] = None) -> str:
        """Stable content hash of (a subset of) the configuration.

        Two configs with equal values for ``fields`` share a fingerprint
        regardless of how they were constructed (``with_()`` round-trips,
        dict insertion order in ``op_latencies``, ...).  This is the cache
        key primitive of ``repro.pipeline``: artifacts are addressed by
        the fingerprint of exactly the fields their stage reads, so a
        hardware-only override never invalidates the trace.
        """
        names = sorted(fields) if fields is not None else sorted(ALL_FIELDS)
        items = []
        for name in names:
            value = getattr(self, name)
            if isinstance(value, dict):
                value = tuple(sorted(value.items()))
            items.append((name, value))
        digest = hashlib.sha256(repr(items).encode("utf-8"))
        return digest.hexdigest()[:16]

    def trace_fingerprint(self) -> str:
        """Fingerprint of the trace-affecting fields only."""
        return self.fingerprint(TRACE_FIELDS)

    def hardware_fingerprint(self) -> str:
        """Fingerprint of the hardware-only (trace-preserving) fields."""
        return self.fingerprint(HARDWARE_FIELDS)

    # Presets ----------------------------------------------------------------

    @classmethod
    def paper_baseline(cls) -> "GPUConfig":
        """The literal Table I machine: 16 cores, 32 warps/core, 32 MSHRs,
        192 GB/s DRAM."""
        return cls(n_cores=16)

    @classmethod
    def small(cls, n_cores: int = 2, warps_per_core: int = 16) -> "GPUConfig":
        """A scaled-down machine for fast tests and examples."""
        return cls(
            n_cores=n_cores,
            max_threads_per_core=warps_per_core * 32,
        )


#: Every :class:`GPUConfig` field name.
ALL_FIELDS: FrozenSet[str] = frozenset(
    f.name for f in dataclasses.fields(GPUConfig)
)

#: Fields that do *not* change the functional trace: caches, latencies,
#: MSHRs, DRAM, scheduling, core count.  A sweep over these re-runs only
#: the cache-simulation-and-later pipeline stages.
HARDWARE_FIELDS: FrozenSet[str] = ALL_FIELDS - TRACE_FIELDS
