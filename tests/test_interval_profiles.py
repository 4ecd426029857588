"""The launch-level interval-profile table (``IntervalProfiles``).

The ``interval_profiles`` artifact keeps every warp's intervals as one
column per :class:`Interval` field.  These tests pin that the table is a
faithful stand-in for the per-warp object lists it replaced: each warp
it hands out equals the per-warp builder's profile field for field, the
clustering features computed from its columns are bitwise those of the
per-profile properties, chunked builds concatenate to the serial one,
and the clustering artifact carries one warp, not the launch.
"""

import functools
import pickle

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.core.interval import (
    COLUMN_DTYPES,
    Interval,
    IntervalProfile,
    IntervalProfiles,
    build_interval_profile,
    build_interval_profiles,
    build_interval_profiles_reference,
)
from repro.core.latency import build_latency_table
from repro.core.representative import feature_vectors, select_representative
from repro.memory.cache_simulator import simulate_caches
from repro.pipeline import Pipeline
from repro.trace.emulator import emulate
from repro.trace.trace_types import MAX_DEPS, WarpTrace
from repro.workloads.generators import Scale
from repro.workloads.suite import SUITE, kernel_names

CONFIG = GPUConfig.small(n_cores=2, warps_per_core=8)


@functools.lru_cache(maxsize=None)
def _built(name):
    """(warps, latency table, production table) of a suite kernel."""
    kernel, memory = SUITE[name].build(Scale.tiny())
    trace = emulate(kernel, CONFIG, memory=memory)
    table = build_latency_table(trace, simulate_caches(trace, CONFIG), CONFIG)
    profiles = build_interval_profiles(trace.warps, table, CONFIG.issue_rate)
    return trace.warps, table, profiles


def _empty_warp(warp_id):
    return WarpTrace(
        warp_id=warp_id,
        block_id=0,
        pcs=np.zeros(0, dtype=np.int32),
        ops=np.zeros(0, dtype=np.int8),
        deps=np.zeros((0, MAX_DEPS), dtype=np.int32),
        active=np.zeros(0, dtype=np.int16),
        req_offsets=np.zeros(1, dtype=np.int64),
        req_lines=np.zeros(0, dtype=np.int64),
    )


def _fields(interval):
    return [(name, type(getattr(interval, name)), getattr(interval, name))
            for name in COLUMN_DTYPES]


class TestAgainstPerWarpBuilder:
    @pytest.mark.parametrize("name", kernel_names())
    def test_each_warp_equals_its_own_profile(self, name):
        warps, table, profiles = _built(name)
        assert len(profiles) == len(warps)
        for i, warp in enumerate(warps):
            expected = build_interval_profile(warp, table, CONFIG.issue_rate)
            got = profiles[i]
            assert got.warp_id == expected.warp_id
            assert got.issue_rate == expected.issue_rate
            assert [_fields(x) for x in got.intervals] == [
                _fields(x) for x in expected.intervals
            ], (name, i)

    @pytest.mark.parametrize("name", kernel_names())
    def test_feature_vectors_bitwise(self, name):
        profiles = _built(name)[2]
        perf = np.array([p.warp_perf for p in profiles], dtype=np.float64)
        insts = np.array([p.n_insts for p in profiles], dtype=np.float64)
        expected = np.column_stack([perf / perf.mean(), insts / insts.mean()])
        got = feature_vectors(profiles)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert feature_vectors(list(profiles)).tobytes() == got.tobytes()


class TestChunking:
    def test_parallel_build_equals_serial(self):
        name = "kmeans_invert_mapping"
        serial = Pipeline(CONFIG, scale=Scale.tiny()).model_inputs(name)
        chunked = Pipeline(CONFIG, scale=Scale.tiny(), jobs=2).model_inputs(
            name
        )
        assert len(serial.profiles) >= 8  # the pool path is taken
        assert pickle.dumps(chunked.profiles) == pickle.dumps(serial.profiles)

    def test_concat_of_chunks_equals_whole(self):
        warps, table, whole = _built("bfs_parboil")
        cut = len(warps) // 3
        parts = [
            build_interval_profiles(chunk, table, CONFIG.issue_rate)
            for chunk in (warps[:cut], warps[cut:2 * cut], warps[2 * cut:])
        ]
        joined = IntervalProfiles.concat(parts)
        assert pickle.dumps(joined) == pickle.dumps(whole)

    def test_empty_warps_keep_their_slot(self):
        warps, table, _ = _built("vectoradd")
        mixed = [_empty_warp(100), warps[0], _empty_warp(101), warps[1]]
        got = build_interval_profiles(mixed, table, CONFIG.issue_rate)
        ref = build_interval_profiles_reference(mixed, table, CONFIG.issue_rate)
        assert pickle.dumps(got) == pickle.dumps(ref)
        assert [p.warp_id for p in got] == [100, warps[0].warp_id, 101,
                                            warps[1].warp_id]
        assert got[0].intervals == [] and got[2].intervals == []
        assert got.warp_n_insts().tolist()[0] == 0
        assert got.warp_perf().tolist()[0] == 0.0


class TestContainer:
    def test_indexing_and_iteration(self):
        profiles = _built("strided_deg8")[2]
        n = len(profiles)
        assert [p.warp_id for p in profiles] == profiles.warp_ids.tolist()
        assert profiles[-1] == profiles[n - 1]
        with pytest.raises(IndexError):
            profiles[n]
        with pytest.raises(IndexError):
            profiles[-n - 1]

    def test_round_trips_through_per_warp_profiles(self):
        profiles = _built("mri_gridding")[2]
        rebuilt = IntervalProfiles.from_profiles(list(profiles))
        assert pickle.dumps(rebuilt) == pickle.dumps(profiles)

    def test_pickle_carries_only_arrays(self):
        profiles = _built("mri_gridding")[2]
        assert set(vars(profiles)) == {
            "columns", "warp_offsets", "warp_ids", "issue_rate"
        }
        loaded = pickle.loads(pickle.dumps(profiles))
        for name, dtype in COLUMN_DTYPES.items():
            assert loaded.columns[name].dtype == dtype
            assert np.array_equal(loaded.columns[name],
                                  profiles.columns[name])

    def test_one_table_has_one_issue_rate(self):
        a = IntervalProfile(0, [Interval(n_insts=1)], issue_rate=1.0)
        b = IntervalProfile(1, [Interval(n_insts=1)], issue_rate=2.0)
        with pytest.raises(ValueError):
            IntervalProfiles.from_profiles([a, b])

    def test_inconsistent_columns_rejected(self):
        columns = {name: [0] for name in COLUMN_DTYPES}
        with pytest.raises(ValueError):
            IntervalProfiles(columns, [0, 2], [0])


class TestSelectionArtifact:
    def test_selection_pickles_one_warp(self):
        profiles = _built("bfs_parboil")[2]
        selection = select_representative(profiles, "clustering")
        assert selection.profile == profiles[selection.index]
        assert len(pickle.dumps(selection)) < len(pickle.dumps(profiles))
        loaded = pickle.loads(pickle.dumps(selection))
        assert isinstance(loaded.profile, IntervalProfile)
        assert loaded.profile.intervals == profiles[selection.index].intervals
