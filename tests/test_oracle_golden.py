"""Bitwise golden digest of the timing oracle over the whole suite.

Every non-timeline ``SimStats`` field (per-core counters included) of
all 40 suite kernels x {rr, gto} x {gpumech2014, subcore} is hashed into
one SHA-256 digest.  Floats enter as ``float.hex`` so a change in the
last bit of any cycle count, queue delay or utilisation changes the
digest.  Any oracle optimisation must leave this digest unchanged; a
deliberate change of the oracle's semantics regenerates it with::

    PYTHONPATH=src python -m tests.test_oracle_golden
"""

import dataclasses
import hashlib

from repro.config import GPUConfig
from repro.timing import TimingSimulator
from repro.trace import emulate
from repro.workloads import Scale
from repro.workloads.suite import SUITE, kernel_names

#: Digest of the oracle's statistics at the settings below.
GOLDEN_DIGEST = (
    "b4ff33d7a798a9213f86adc6d35df3951372245387eeae412a97a46e67796c40"
)

ARCHES = ("gpumech2014", "subcore")
SCHEDULERS = ("rr", "gto")


def _canon(value):
    """A deterministic, bit-exact text form of one stats value."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return "{%s}" % ",".join(
            "%s=%s" % (f.name, _canon(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, list):
        return "[%s]" % ",".join(_canon(v) for v in value)
    return repr(value)


def stats_record(stats) -> str:
    """Every ``SimStats`` field except the (optional) timeline."""
    return ";".join(
        "%s=%s" % (f.name, _canon(getattr(stats, f.name)))
        for f in dataclasses.fields(stats)
        if f.name != "timeline"
    )


def oracle_digest() -> str:
    """SHA-256 over the suite x schedulers x architectures oracle runs."""
    base = GPUConfig.small(n_cores=2, warps_per_core=16)
    scale = Scale.tiny()
    digest = hashlib.sha256()
    for name in kernel_names():
        kernel, memory = SUITE[name].build(scale)
        for arch in ARCHES:
            config = base.with_(arch=arch)
            trace = emulate(kernel, config, memory=memory)
            for scheduler in SCHEDULERS:
                stats = TimingSimulator(
                    config.with_(scheduler=scheduler)
                ).run(trace)
                digest.update(
                    ("%s|%s|%s|%s\n" % (name, arch, scheduler,
                                        stats_record(stats))).encode()
                )
    return digest.hexdigest()


def test_suite_has_forty_kernels():
    assert len(kernel_names()) == 40


def test_oracle_stats_bitwise_golden():
    assert oracle_digest() == GOLDEN_DIGEST


if __name__ == "__main__":
    print(oracle_digest())
