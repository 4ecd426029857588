"""Observability layer: span tracing, metrics, timeline sampling.

``tracer``
    Hierarchical span tracer (context-manager API, thread/process-safe,
    no-op when disabled) with JSONL and Chrome-trace/Perfetto export.
``metrics``
    Registry of counters/gauges/fixed-bucket histograms that snapshots,
    diffs and merges — how pool workers ship their stage counters back
    to the parent.
``timeline``
    Per-interval occupancy/issue/stall samples of the timing oracle,
    rendered as Perfetto counter tracks alongside the spans.
``schema``
    Checked-in JSON schemas for every exported format plus a
    dependency-free validator (also a CLI: ``python -m repro.obs.schema``).
``sampler``
    Stdlib sampling profiler (collapsed-stack flamegraph export,
    span-attributed; CLI face ``repro profile --sample``).
``ledger``
    Append-only JSONL prediction ledger and the accuracy-regression
    watchdog over it (``repro watchdog``).
"""

from repro.obs.ledger import (
    DEFAULT_MODEL,
    PredictionLedger,
    WatchdogReport,
    WatchdogRow,
    build_record,
    compare_ledgers,
    read_ledger,
    read_ledgers,
)
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    RATIO_BUCKETS,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    diff_snapshots,
    escape_label_value,
    render_key,
    unescape_label_value,
)
from repro.obs.sampler import SamplingProfiler
from repro.obs.timeline import Timeline, TimelineSample
from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "CounterMetric",
    "DEFAULT_MODEL",
    "DEFAULT_MS_BUCKETS",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "NULL_TRACER",
    "PredictionLedger",
    "RATIO_BUCKETS",
    "SamplingProfiler",
    "Timeline",
    "TimelineSample",
    "Tracer",
    "WatchdogReport",
    "WatchdogRow",
    "build_record",
    "compare_ledgers",
    "diff_snapshots",
    "escape_label_value",
    "get_tracer",
    "read_ledger",
    "read_ledgers",
    "render_key",
    "set_tracer",
    "unescape_label_value",
    "write_chrome_trace",
    "write_jsonl",
]
