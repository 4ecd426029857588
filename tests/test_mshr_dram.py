"""Unit tests for the MSHR file and the DRAM bandwidth queue."""

import heapq
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.cache import Cache
from repro.memory.dram import DRAMQueue, DRAMSystem
from repro.memory.mshr import MSHRError, MSHRFile


class TestMSHR:
    def test_allocate_and_release(self):
        mshr = MSHRFile(2)
        mshr.allocate(0x100, completion=50.0)
        assert len(mshr) == 1
        assert mshr.lookup(0x100) == 50.0
        assert mshr.release_completed(49.0) == 0
        assert mshr.release_completed(50.0) == 1
        assert len(mshr) == 0

    def test_merge_returns_original_completion(self):
        mshr = MSHRFile(2)
        mshr.allocate(0x100, completion=50.0)
        merged = mshr.allocate(0x100, completion=99.0)
        assert merged == 50.0
        assert len(mshr) == 1
        assert mshr.n_merges == 1

    def test_full_file_raises(self):
        mshr = MSHRFile(1)
        mshr.allocate(0x100, 10.0)
        with pytest.raises(MSHRError):
            mshr.allocate(0x200, 10.0)
        assert mshr.stalled_allocation_attempts == 1

    def test_count_absent_skips_inflight_lines(self):
        mshr = MSHRFile(4)
        mshr.allocate(0x100, 10.0)
        l1 = Cache(size=1024, assoc=2, line_size=128)
        assert l1.count_absent([0x100, 0x200, 0x300], mshr.inflight) == 2

    def test_count_absent_within_free_entries(self):
        mshr = MSHRFile(2)
        mshr.allocate(0x100, 10.0)
        l1 = Cache(size=1024, assoc=2, line_size=128)
        assert (l1.count_absent([0x100, 0x200], mshr.inflight)
                <= mshr.free_entries)
        assert (l1.count_absent([0x200, 0x300], mshr.inflight)
                > mshr.free_entries)

    def test_inflight_is_a_live_read_only_view(self):
        mshr = MSHRFile(2)
        view = mshr.inflight
        mshr.allocate(0x100, 10.0)
        assert dict(view) == {0x100: 10.0}
        with pytest.raises(TypeError):
            view[0x200] = 5.0
        mshr.release_completed(10.0)
        assert not view

    def test_next_completion(self):
        mshr = MSHRFile(4)
        assert mshr.next_completion() is None
        mshr.allocate(1, 30.0)
        mshr.allocate(2, 10.0)
        assert mshr.next_completion() == 10.0

    def test_kth_completion(self):
        mshr = MSHRFile(4)
        mshr.allocate(1, 30.0)
        mshr.allocate(2, 10.0)
        mshr.allocate(3, 20.0)
        assert mshr.kth_completion(1) == 10.0
        assert mshr.kth_completion(2) == 20.0
        assert mshr.kth_completion(3) == 30.0
        assert mshr.kth_completion(4) is None
        assert mshr.kth_completion(0) == 10.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    @given(st.lists(st.tuples(st.integers(0, 10), st.floats(1, 100)),
                    min_size=1, max_size=50))
    def test_occupancy_bounded(self, ops):
        mshr = MSHRFile(4)
        for line, completion in ops:
            if mshr.lookup(line) is None and not mshr.free_entries:
                mshr.release_completed(completion)
                if not mshr.free_entries:
                    continue
            mshr.allocate(line, completion)
            assert len(mshr) <= 4


class _ReferenceMSHR:
    """The completion queries by scanning the whole file."""

    def __init__(self, n_entries):
        self.n_entries = n_entries
        self.inflight = {}

    def allocate(self, line, completion):
        if line in self.inflight:
            return self.inflight[line]
        if len(self.inflight) >= self.n_entries:
            raise MSHRError("MSHR file full")
        self.inflight[line] = completion
        return completion

    def release_completed(self, now):
        done = [line for line, t in self.inflight.items() if t <= now]
        for line in done:
            del self.inflight[line]
        return len(done)

    def kth_completion(self, k):
        values = self.inflight.values()
        if not values or len(values) < max(k, 1):
            return None
        return heapq.nsmallest(max(k, 1), values)[-1]


class TestCompletionIndex:
    """The sorted completion index equals a dict scan plus nsmallest."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequence_matches_reference(self, seed):
        rng = random.Random(seed)
        n_entries = rng.choice((1, 3, 8))
        mshr = MSHRFile(n_entries)
        ref = _ReferenceMSHR(n_entries)
        now = 0.0
        for _ in range(400):
            action = rng.random()
            if action < 0.55:
                line = rng.randrange(12) * 128
                # Few distinct times, so completions tie; some fractional.
                completion = now + rng.choice((1.0, 2.0, 2.0, 2.5, 0.75,
                                               rng.random() * 6))
                try:
                    expected = ref.allocate(line, completion)
                except MSHRError:
                    with pytest.raises(MSHRError):
                        mshr.allocate(line, completion)
                else:
                    assert mshr.allocate(line, completion) == expected
            elif action < 0.8:
                now += rng.choice((0.0, 0.5, 1.0, 2.0))
                assert (mshr.release_completed(now)
                        == ref.release_completed(now))
            for k in range(0, n_entries + 2):
                assert mshr.kth_completion(k) == ref.kth_completion(k)
            assert mshr.next_completion() == ref.kth_completion(1)
            assert dict(mshr.inflight) == ref.inflight
            assert mshr.free_entries == n_entries - len(ref.inflight)

    def test_release_with_tied_completions(self):
        mshr = MSHRFile(4)
        for line in (3, 1, 2):
            mshr.allocate(line, 5.0)
        mshr.allocate(4, 5.5)
        assert mshr.kth_completion(3) == 5.0
        assert mshr.release_completed(5.0) == 3
        assert dict(mshr.inflight) == {4: 5.5}
        assert mshr.next_completion() == 5.5


def _queue_state(queue):
    return (queue.free_at, queue.total_queue_delay, queue.busy_cycles,
            queue.n_requests)


class TestDRAMBatch:
    """``enqueue_many`` equals a loop of ``enqueue``, bit for bit."""

    @pytest.mark.parametrize("n_channels", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_enqueue_many_matches_loop(self, n_channels, seed):
        rng = random.Random(seed)
        # A service time that is not a binary fraction, so a closed form
        # ``start + i * service`` would round differently.
        batched = DRAMSystem(2.0 / 3.0, n_channels, 128)
        looped = DRAMSystem(2.0 / 3.0, n_channels, 128)
        arrival = 0.0
        for _ in range(50):
            arrival += rng.choice((0.0, 0.1, 1.0, 7.3, 40.0))
            lines = [rng.randrange(64) * 128
                     for _ in range(rng.randrange(0, 33))]
            for line in lines:
                looped.enqueue(arrival, line)
            assert batched.enqueue_many(arrival, lines) is None
            for ours, theirs in zip(batched.channels, looped.channels):
                assert _queue_state(ours) == _queue_state(theirs)

    def test_enqueue_burst_matches_loop(self):
        batched = DRAMQueue(0.1)
        looped = DRAMQueue(0.1)
        for arrival, count in ((0.0, 7), (0.3, 0), (0.35, 11), (9.0, 3)):
            batched.enqueue_burst(arrival, count)
            for _ in range(count):
                looped.enqueue(arrival)
            assert _queue_state(batched) == _queue_state(looped)


class TestDRAMQueue:
    def test_idle_queue_no_wait(self):
        queue = DRAMQueue(2.0)
        assert queue.enqueue(10.0) == 12.0
        assert queue.total_queue_delay == 0.0

    def test_back_to_back_serialise(self):
        queue = DRAMQueue(2.0)
        queue.enqueue(0.0)
        assert queue.enqueue(0.0) == 4.0
        assert queue.enqueue(0.0) == 6.0
        assert queue.total_queue_delay == 2.0 + 4.0

    def test_gap_lets_queue_drain(self):
        queue = DRAMQueue(2.0)
        queue.enqueue(0.0)
        assert queue.enqueue(100.0) == 102.0

    def test_fcfs_ordering(self):
        queue = DRAMQueue(1.0)
        first = queue.enqueue(0.0)
        second = queue.enqueue(0.5)
        assert second > first

    def test_utilization(self):
        queue = DRAMQueue(2.0)
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        assert queue.utilization(8.0) == pytest.approx(0.5)
        assert queue.utilization(0.0) == 0.0

    def test_mean_queue_delay(self):
        queue = DRAMQueue(2.0)
        assert queue.mean_queue_delay == 0.0
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        assert queue.mean_queue_delay == pytest.approx(1.0)

    def test_invalid_service_time(self):
        with pytest.raises(ValueError):
            DRAMQueue(0.0)

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1,
                    max_size=100))
    def test_completions_monotone_and_spaced(self, arrivals):
        queue = DRAMQueue(1.5)
        completions = [queue.enqueue(a) for a in sorted(arrivals)]
        for earlier, later in zip(completions, completions[1:]):
            assert later >= earlier + 1.5
        for arrival, completion in zip(sorted(arrivals), completions):
            assert completion >= arrival + 1.5
