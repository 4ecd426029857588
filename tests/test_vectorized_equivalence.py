"""Golden equivalence of the batched hot-path stages and their references.

The vectorized emulator / interval builder / cache replay are only
admissible because they are *bitwise* interchangeable with the
reference loops they replaced (``emulate_reference``,
``simulate_caches_reference``, ``build_interval_profiles_reference``):
same trace columns, same interval profiles, same cache-sim counters,
same CPI stacks — and therefore the same content-addressed store
fingerprints.  This module pins that contract over the entire workload
suite; pickle-bytes equality is the strongest practical form (the
artifact store pickles artifacts wholesale, so pickle equality *is*
store-fingerprint equality).
"""

import pickle

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.core.interval import (
    build_interval_profiles,
    build_interval_profiles_reference,
)
from repro.core.latency import build_latency_table
from repro.core.model import GPUMech, ModelInputs
from repro.core.representative import select_representative
from repro.memory.cache_simulator import (
    simulate_caches,
    simulate_caches_reference,
)
from repro.pipeline import Pipeline
from repro.pipeline.stages import trace_digest
from repro.trace.emulator import emulate, emulate_reference
from repro.workloads.generators import Scale
from repro.workloads.suite import SUITE, kernel_names

CONFIG = GPUConfig.small(n_cores=2, warps_per_core=8)

#: Trace columns that must match bitwise, dtype and shape included.
COLUMNS = (
    "pcs", "ops", "deps", "active", "req_offsets", "req_lines", "conflict",
)


def _artifacts(name, reference, config=CONFIG, scale=None):
    """trace → cache sim → latency table → profiles, built either by the
    production functions or by the reference ones."""
    kernel, memory = SUITE[name].build(scale or Scale.tiny())
    if reference:
        trace = emulate_reference(kernel, config, memory=memory)
        cache = simulate_caches_reference(trace, config)
        table = build_latency_table(trace, cache, config)
        profiles = build_interval_profiles_reference(
            trace.warps, table, config.issue_rate
        )
    else:
        trace = emulate(kernel, config, memory=memory)
        cache = simulate_caches(trace, config)
        table = build_latency_table(trace, cache, config)
        profiles = build_interval_profiles(
            trace.warps, table, config.issue_rate
        )
    return trace, cache, table, profiles


def reference_prediction(name, config=CONFIG, scale=None):
    """The default GPUMech prediction of a suite kernel, built from the
    reference functions alone (no pipeline, no store)."""
    trace, cache, table, profiles = _artifacts(
        name, reference=True, config=config, scale=scale
    )
    inputs = ModelInputs(
        trace=trace,
        cache_result=cache,
        latency_table=table,
        profiles=profiles,
        selection=select_representative(profiles, "clustering"),
        avg_miss_latency=cache.avg_miss_latency(config),
    )
    return GPUMech(config).predict(inputs)


class TestSuiteEquivalence:
    @pytest.mark.parametrize("name", kernel_names())
    def test_artifacts_bitwise_identical(self, name):
        strace, scache, _, sprofiles = _artifacts(name, reference=True)
        vtrace, vcache, _, vprofiles = _artifacts(name, reference=False)

        # Trace columns: bitwise values, exact dtypes, exact shapes.
        assert len(vtrace.warps) == len(strace.warps)
        for sw, vw in zip(strace.warps, vtrace.warps):
            assert vw.warp_id == sw.warp_id
            assert vw.block_id == sw.block_id
            for column in COLUMNS:
                a, b = getattr(sw, column), getattr(vw, column)
                assert b.dtype == a.dtype, (name, column)
                assert b.shape == a.shape, (name, column)
                assert np.array_equal(b, a), (name, column)
        # Same content hash → same store fingerprints downstream.
        assert trace_digest(vtrace) == trace_digest(strace)

        # Cache-sim counters and interval profiles: pickle equality is
        # store-fingerprint equality (the store pickles wholesale).
        assert pickle.dumps(vcache) == pickle.dumps(scache)
        assert pickle.dumps(vprofiles) == pickle.dumps(sprofiles)


class TestCpiStackEquivalence:
    @pytest.mark.parametrize("name", kernel_names())
    def test_predictions_identical(self, name):
        pipeline = Pipeline(CONFIG, scale=Scale.tiny())
        assert pickle.dumps(pipeline.predict(name)) == pickle.dumps(
            reference_prediction(name)
        )
