"""Unit and property tests for the set-associative cache."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.cache import Cache


def small_cache(assoc=2, n_sets=4, line=128):
    return Cache(size=assoc * n_sets * line, assoc=assoc, line_size=line)


class TestGeometry:
    def test_set_count(self):
        cache = Cache(size=32 * 1024, assoc=8, line_size=128)
        assert cache.n_sets == 32

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            Cache(size=1024, assoc=2, line_size=100)

    def test_size_must_divide(self):
        with pytest.raises(ValueError):
            Cache(size=1000, assoc=2, line_size=128)

    def test_repr_mentions_geometry(self):
        assert "8-way" in repr(Cache(size=32 * 1024, assoc=8, line_size=128))


class TestBehaviour:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0) is False
        assert cache.access(0) is True

    def test_same_line_different_bytes_hit(self):
        cache = small_cache()
        cache.access(0)
        assert cache.access(127) is True
        assert cache.access(128) is False

    def test_lru_eviction(self):
        cache = small_cache(assoc=2, n_sets=1)
        a, b, c = 0, 128, 256  # all map to the single set
        cache.access(a)
        cache.access(b)
        cache.access(c)  # evicts a (LRU)
        assert cache.access(b) is True
        assert cache.access(a) is False

    def test_access_refreshes_recency(self):
        cache = small_cache(assoc=2, n_sets=1)
        a, b, c = 0, 128, 256
        cache.access(a)
        cache.access(b)
        cache.access(a)  # refresh a; b is now LRU
        cache.access(c)  # evicts b
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_sets_are_independent(self):
        cache = small_cache(assoc=1, n_sets=2, line=128)
        cache.access(0)  # set 0
        cache.access(128)  # set 1
        assert cache.access(0) is True
        assert cache.access(128) is True

    def test_write_no_allocate(self):
        cache = small_cache()
        assert cache.access(0, is_write=True) is False
        assert cache.access(0) is False  # store did not install

    def test_write_hits_refresh(self):
        cache = small_cache(assoc=2, n_sets=1)
        a, b, c = 0, 128, 256
        cache.access(a)
        cache.access(b)
        cache.access(a, is_write=True)  # refresh a via store hit
        cache.access(c)  # evicts b
        assert cache.access(a) is True

    def test_write_allocate_mode(self):
        cache = Cache(size=1024, assoc=2, line_size=128,
                      allocate_on_write=True)
        cache.access(0, is_write=True)
        assert cache.access(0) is True

    def test_probe_does_not_mutate(self):
        cache = small_cache(assoc=2, n_sets=1)
        a, b, c = 0, 128, 256
        cache.access(a)
        cache.access(b)
        assert cache.probe(a) is True
        assert cache.probe(c) is False
        accesses = cache.n_accesses
        cache.probe(a)
        assert cache.n_accesses == accesses

    def test_flush(self):
        cache = small_cache()
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)
        assert Cache(1024, 2, 128).miss_rate == 0.0


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 20), min_size=1,
                    max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = small_cache(assoc=2, n_sets=4)
        for addr in addrs:
            cache.access(addr * 64)
        total = sum(len(s) for s in cache._sets)
        assert total <= cache.assoc * cache.n_sets
        assert all(len(s) <= cache.assoc for s in cache._sets)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=300))
    def test_working_set_within_capacity_never_misses_twice(self, addrs):
        # 64 lines of capacity, fully-associative equivalent per set is not
        # guaranteed, so use a single-set fully-associative cache.
        cache = Cache(size=64 * 128, assoc=64, line_size=128)
        misses = 0
        for addr in addrs:
            if not cache.access(addr * 128):
                misses += 1
        assert misses == len(set(addrs))

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 20), min_size=1,
                    max_size=200))
    def test_counters_consistent(self, addrs):
        cache = small_cache()
        for addr in addrs:
            cache.access(addr)
        assert cache.n_accesses == len(addrs)
        assert 0 <= cache.n_misses <= cache.n_accesses


def _cache_state(cache):
    """Every set's tags in LRU order, plus the counters."""
    return ([list(ways) for ways in cache._sets], cache.n_accesses,
            cache.n_misses)


def _random_lines(rng, n, span=48, line=128):
    """``n`` byte addresses over ``span`` lines; collisions and repeats
    are likely, and addresses fall anywhere inside their line."""
    return [rng.randrange(span) * line + rng.randrange(line)
            for _ in range(n)]


class TestBatchMethods:
    """The whole-instruction batches equal their per-line loops."""

    @pytest.mark.parametrize("allocate_on_write", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_batches_match_per_line_loops(self, allocate_on_write, seed):
        rng = random.Random(seed)
        batched = Cache(size=2 * 4 * 128, assoc=2, line_size=128,
                        allocate_on_write=allocate_on_write)
        looped = Cache(size=2 * 4 * 128, assoc=2, line_size=128,
                       allocate_on_write=allocate_on_write)
        for _ in range(60):
            lines = _random_lines(rng, rng.randrange(0, 12))
            kind = rng.choice(("absent", "access", "write"))
            if kind == "absent":
                inflight = set(_random_lines(rng, 6))
                expected = sum(
                    1 for line in lines
                    if not looped.probe(line) and line not in inflight
                )
                assert batched.count_absent(lines, inflight) == expected
            elif kind == "access":
                for line in lines:
                    assert batched.access(line) == looped.access(line)
            else:
                for line in lines:
                    looped.access(line, is_write=True)
                assert batched.write_many(lines) is None
            assert _cache_state(batched) == _cache_state(looped)

    def test_count_absent_counts_each_request(self):
        cache = small_cache()
        cache.access(0)
        # 0 is resident, 128 is in flight, 256 twice and 384 are absent.
        assert cache.count_absent([0, 128, 256, 256, 384], {128}) == 3
        assert cache.n_accesses == 1  # a pure query, like probe

    def test_write_many_respects_no_write_allocate(self):
        cache = small_cache()
        cache.write_many([0, 128])
        assert (cache.n_accesses, cache.n_misses) == (2, 2)
        assert not cache.probe(0) and not cache.probe(128)

    def test_write_many_allocates_when_configured(self):
        cache = Cache(size=1024, assoc=2, line_size=128,
                      allocate_on_write=True)
        cache.write_many([0, 0])
        assert (cache.n_accesses, cache.n_misses) == (2, 1)
        assert cache.probe(0)
