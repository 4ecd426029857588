"""Stdlib sampling profiler with collapsed-stack flamegraph export.

:class:`SamplingProfiler` interrupts nothing: a daemon thread wakes at
a fixed period, grabs every live thread's current Python frame via
``sys._current_frames()``, and folds each walk from innermost frame to
root into a counter of *collapsed stacks* — the ``root;caller;callee N``
text format every flamegraph renderer understands (flamegraph.pl,
speedscope, Firefox Profiler's importer).  Because sampling reads
frames instead of instrumenting calls, the profiled code runs
unmodified and the overhead is bounded by the sampling period, not by
call volume — which is what makes it safe to leave on for a whole
sweep (``repro profile --sample``).

Span attribution: when a :class:`~repro.obs.tracer.Tracer` is supplied,
every sample taken on a thread that currently has open spans is
prefixed with those span names (``stage:trace;...``), so hot frames
map directly to the pipeline stage that was executing them — the
flamegraph and the stage-timing table tell one story.

Worker processes are out of scope by design: the sampler sees the
process it runs in (the pool fans work out to *other* processes), so
profile serially (``--jobs 1``, the default) when a whole-run
flamegraph is wanted.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer

#: Default sampling period in seconds (~97 Hz; a prime-ish rate avoids
#: resonating with timer-driven work the way a round 100 Hz can).
DEFAULT_INTERVAL = 0.0103


def _frame_label(frame) -> str:
    """One collapsed-stack frame: ``module:function``."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return "%s:%s" % (module, code.co_name)


class SamplingProfiler:
    """Periodic whole-process stack sampler (start/stop or ``with``)."""

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        tracer: Optional[Tracer] = None,
        span_prefix: str = "stage:",
    ):
        if interval <= 0:
            raise ValueError("sampling interval must be positive; got %r"
                             % (interval,))
        self.interval = float(interval)
        #: Tracer whose open-span names attribute samples to stages.
        self.tracer = tracer
        self.span_prefix = span_prefix
        self.n_samples = 0
        #: collapsed stack tuple → number of samples observed there.
        self._stacks: Counter = Counter()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: pid that called start(); a mismatch means we inherited a
        #: started profiler across fork and its thread is not ours.
        self._pid: Optional[int] = None
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def _forked(self) -> bool:
        """True in a forked child holding the parent's sampler state.

        The caller holds ``_lock``.
        """
        return self._pid is not None and self._pid != os.getpid()

    def start(self) -> "SamplingProfiler":
        with self._lock:
            if self._forked():
                # The inherited handle's OS thread exists only in the
                # parent; drop it so we start a fresh one here.
                self._thread = None
                self._pid = None
            if self._thread is not None:
                return self
            self._stop.clear()
            thread = threading.Thread(
                target=self._run, name="repro-sampler", daemon=True
            )
            self._thread = thread
            self._pid = os.getpid()
        thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
            forked = self._forked()
            self._pid = None
        if thread is not None and not forked:
            self._stop.set()
            thread.join(timeout=5.0)

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """True while this process's own sampler thread is running
        (False in a forked child that merely inherited the handle)."""
        with self._lock:
            return self._thread is not None and not self._forked()

    # -- sampling -----------------------------------------------------------

    def _run(self) -> None:
        own_ident = threading.get_ident()
        while not self._stop.wait(self.interval):
            self.sample_once(skip={own_ident})

    def sample_once(self, skip: Optional[set] = None) -> None:
        """Take one sample of every live thread (the timer tick)."""
        skip = skip or set()
        frames = sys._current_frames()
        try:
            for tid, frame in frames.items():
                if tid in skip:
                    continue
                stack: List[str] = []
                while frame is not None:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                stack.reverse()  # root first, collapsed-stack order
                if self.tracer is not None:
                    spans = self.tracer.open_span_names(tid)
                    if spans:
                        stack = [
                            self.span_prefix + name for name in spans
                        ] + stack
                # Taken after the tracer lock is released: the sampler
                # lock stays a leaf in the lock-order graph.
                with self._lock:
                    self._stacks[tuple(stack)] += 1
                    self.n_samples += 1
        finally:
            del frames  # frame objects pin locals; drop them promptly

    # -- output -------------------------------------------------------------

    def stacks(self) -> Dict[Tuple[str, ...], int]:
        """Snapshot of the collapsed-stack counter."""
        with self._lock:
            return dict(self._stacks)

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``frame;frame;... count``), sorted by
        descending count then lexicographically — feed to flamegraph.pl
        or paste into speedscope."""
        return [
            "%s %d" % (";".join(stack), count)
            for stack, count in sorted(
                self.stacks().items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]

    def write_collapsed(self, path: str) -> None:
        """Write the collapsed-stack profile to a file."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.collapsed():
                handle.write(line + "\n")

    def hot_frames(self, top: int = 10) -> List[Tuple[str, int]]:
        """The ``top`` most-sampled leaf frames (inclusive of span
        prefixes is wrong for leaves, so prefixes are skipped)."""
        leaves: Counter = Counter()
        for stack, count in self.stacks().items():
            if stack:
                leaves[stack[-1]] += count
        return leaves.most_common(top)

    def by_span(self) -> Dict[str, int]:
        """Samples grouped by innermost attributed span (stage)."""
        spans: Counter = Counter()
        for stack, count in self.stacks().items():
            innermost = None
            for frame in stack:
                if frame.startswith(self.span_prefix):
                    innermost = frame[len(self.span_prefix):]
                else:
                    break
            spans[innermost or "(no span)"] += count
        return dict(spans)


def profile_call(fn, *args, interval: float = DEFAULT_INTERVAL,
                 tracer: Optional[Tracer] = None, **kwargs):
    """Run ``fn(*args, **kwargs)`` under a sampler; returns
    ``(result, profiler)`` — the one-shot convenience wrapper."""
    profiler = SamplingProfiler(interval=interval, tracer=tracer)
    with profiler:
        result = fn(*args, **kwargs)
    return result, profiler


def wait_for_samples(profiler: SamplingProfiler, n: int,
                     timeout: float = 5.0) -> bool:
    """Block until the profiler has at least ``n`` samples (tests)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if profiler.n_samples >= n:
            return True
        time.sleep(profiler.interval)
    return profiler.n_samples >= n
