"""Telemetry stack: label escaping, snapshot merge/diff, the sampling
profiler, and the prediction ledger and its watchdog."""

import json
import math
import os
import pickle
import threading

import pytest

from repro.config import GPUConfig
from repro.obs import (
    MetricsRegistry,
    PredictionLedger,
    SamplingProfiler,
    Tracer,
    compare_ledgers,
    diff_snapshots,
    escape_label_value,
    read_ledger,
    render_key,
)
from repro.obs.ledger import per_kernel_errors
from repro.obs.sampler import profile_call, wait_for_samples
from repro.obs.schema import load_schema, validate
from repro.pipeline import Pipeline
from repro.workloads import Scale


@pytest.fixture
def config():
    return GPUConfig.small(n_cores=2, warps_per_core=8)


# ---------------------------------------------------------------------------
# Satellites: label escaping, histogram edge cases
# ---------------------------------------------------------------------------


class TestLabelEscaping:
    @pytest.mark.parametrize("value", [
        "plain", 'with"quote', "back\\slash", "line\nfeed",
        'all\\of"them\ntogether', "", "\\\\", '""',
    ])
    def test_escape_round_trips(self, value):
        # The three OpenMetrics escapes are a subset of Python's string
        # escapes, so the standard decoder inverts them exactly.
        escaped = escape_label_value(value)
        assert "\n" not in escaped
        assert escaped.encode("ascii").decode("unicode_escape") == value

    def test_escape_is_openmetrics_three(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_render_key_bare_when_safe(self):
        assert render_key("n", (("a", "1"), ("b", "2"))) == "n{a=1,b=2}"

    def test_render_key_quotes_unsafe_values(self):
        key = render_key("n", (("path", 'a"b'),))
        assert key == 'n{path="a\\"b"}'

    def test_render_key_quotes_newline_and_comma(self):
        assert render_key("n", (("a", "x\ny"),)) == 'n{a="x\\ny"}'
        assert render_key("n", (("a", "x,y"),)) == 'n{a="x,y"}'

    def test_distinct_values_stay_distinct(self):
        # The raison d'etre: these collided under naive rendering.
        a = render_key("n", (("k", 'v",x="1'),))
        b = render_key("n", (("k", "v"), ("x", "1")))
        assert a != b


class TestHistogramEdgeCases:
    def test_empty_percentile_is_nan(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("h", buckets=(1, 2, 4))
        assert math.isnan(histogram.percentile(50))
        assert math.isnan(histogram.percentile(0))
        assert math.isnan(histogram.percentile(100))

    def test_sum_is_exact_not_bucket_midpoints(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("h", buckets=(1, 10, 100))
        for value in (0.25, 3.5, 42.0, 1000.0):
            histogram.observe(value)
        assert histogram.sum == 0.25 + 3.5 + 42.0 + 1000.0
        assert histogram.count == 4
        assert histogram.max == 1000.0

    def test_nonempty_percentiles_still_defined(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("h", buckets=(1, 2, 4))
        histogram.observe(1.5)
        assert histogram.percentile(50) == 1.5


# ---------------------------------------------------------------------------
# Satellites: diff/merge across worker round-trips
# ---------------------------------------------------------------------------


def _worker_round_trip(registry, mutate, protocol=pickle.HIGHEST_PROTOCOL):
    """Simulate one pool-worker round trip: the registry is pickled into
    the worker (as spawn does; fork shares then copies-on-write, which
    pickle over-approximates), mutated there, and the activity *delta*
    is shipped back — exactly what the pipeline's worker path does."""
    worker = pickle.loads(pickle.dumps(registry, protocol=protocol))
    baseline = worker.snapshot()
    mutate(worker)
    return diff_snapshots(worker.snapshot(), baseline)


class TestSnapshotMergeDiff:
    def _seed(self):
        registry = MetricsRegistry()
        registry.counter("stage.runs", stage="trace").inc(3)
        registry.histogram("stage.ms", buckets=(1, 10, 100),
                           stage="trace").observe(5.0)
        registry.histogram("stage.ms", buckets=(1, 10, 100),
                           stage="oracle").observe(50.0)
        return registry

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    def test_overlapping_labeled_histograms_merge_exactly(self, protocol):
        parent = self._seed()

        def work_a(worker):
            worker.histogram("stage.ms", buckets=(1, 10, 100),
                             stage="trace").observe(0.5)
            worker.counter("stage.runs", stage="trace").inc()

        def work_b(worker):
            worker.histogram("stage.ms", buckets=(1, 10, 100),
                             stage="trace").observe(200.0)
            worker.histogram("stage.ms", buckets=(1, 10, 100),
                             stage="cache_sim").observe(2.0)

        for delta in (
            _worker_round_trip(parent, work_a, protocol),
            _worker_round_trip(parent, work_b, protocol),
        ):
            parent.merge(delta)

        trace = parent.histogram("stage.ms", buckets=(1, 10, 100),
                                 stage="trace")
        assert trace.count == 3  # seed + worker A + worker B
        assert trace.sum == pytest.approx(5.0 + 0.5 + 200.0)
        assert trace.max == 200.0
        assert parent.counter_value("stage.runs", stage="trace") == 4
        new = parent.histogram("stage.ms", buckets=(1, 10, 100),
                               stage="cache_sim")
        assert new.count == 1 and new.sum == 2.0

    def test_delta_excludes_preexisting_activity(self):
        parent = self._seed()
        delta = _worker_round_trip(parent, lambda w: None)
        assert delta["counters"] == []
        assert delta["histograms"] == []

    def test_merged_registry_survives_second_round_trip(self):
        # fork-then-spawn in sequence: merge a delta, pickle the merged
        # parent again, mutate, merge again — totals stay exact.
        parent = self._seed()
        parent.merge(_worker_round_trip(
            parent,
            lambda w: w.histogram("stage.ms", buckets=(1, 10, 100),
                                  stage="trace").observe(7.0),
        ))
        parent.merge(_worker_round_trip(
            parent,
            lambda w: w.histogram("stage.ms", buckets=(1, 10, 100),
                                  stage="trace").observe(9.0),
        ))
        trace = parent.histogram("stage.ms", buckets=(1, 10, 100),
                                 stage="trace")
        assert trace.count == 3
        assert trace.sum == pytest.approx(5.0 + 7.0 + 9.0)

    def test_merge_rejects_mismatched_bounds(self):
        parent = self._seed()
        foreign = MetricsRegistry()
        foreign.histogram("stage.ms", buckets=(1, 2), stage="trace").observe(1)
        with pytest.raises(ValueError):
            parent.merge(foreign.snapshot())


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


def _spin(deadline_event):
    while not deadline_event.is_set():
        sum(i * i for i in range(500))


class TestSampler:
    def test_samples_running_code(self):
        stop = threading.Event()
        worker = threading.Thread(target=_spin, args=(stop,), daemon=True)
        worker.start()
        profiler = SamplingProfiler(interval=0.002)
        with profiler:
            assert wait_for_samples(profiler, 5)
        stop.set()
        worker.join()
        assert profiler.n_samples >= 5
        assert any("_spin" in frame for stack in profiler.stacks()
                   for frame in stack)

    def test_collapsed_format(self):
        profiler = SamplingProfiler(interval=0.002)
        profiler._stacks[("a:f", "b:g")] = 3
        profiler._stacks[("a:f",)] = 1
        lines = profiler.collapsed()
        assert lines == ["a:f;b:g 3", "a:f 1"]

    def test_write_collapsed(self, tmp_path):
        profiler = SamplingProfiler()
        profiler._stacks[("m:f",)] = 2
        out = tmp_path / "stacks.txt"
        profiler.write_collapsed(str(out))
        assert out.read_text() == "m:f 2\n"

    def test_span_attribution(self):
        tracer = Tracer(enabled=True)
        profiler = SamplingProfiler(interval=0.001, tracer=tracer)
        seen = threading.Event()
        stop = threading.Event()

        def staged():
            with tracer.span("trace"):
                seen.set()
                _spin(stop)

        worker = threading.Thread(target=staged, daemon=True)
        worker.start()
        seen.wait(5.0)
        for _ in range(20):
            profiler.sample_once()
        stop.set()
        worker.join()
        spans = profiler.by_span()
        assert spans.get("trace", 0) > 0
        assert any(stack[0] == "stage:trace"
                   for stack in profiler.stacks())

    def test_hot_frames_are_leaves(self):
        profiler = SamplingProfiler()
        profiler._stacks[("root:r", "leaf:a")] = 5
        profiler._stacks[("root:r", "leaf:b")] = 2
        assert profiler.hot_frames(top=1) == [("leaf:a", 5)]

    def test_by_span_without_tracer(self):
        profiler = SamplingProfiler()
        profiler._stacks[("m:f",)] = 4
        assert profiler.by_span() == {"(no span)": 4}

    def test_profile_call(self):
        result, profiler = profile_call(lambda: 42, interval=0.001)
        assert result == 42
        assert not profiler.running

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_sampler_drops_simulated_stale_handle(self):
        sampler = SamplingProfiler(interval=0.005)
        sampler.start()
        try:
            assert sampler.running
            # Stop the sampling thread, then claim another pid started
            # it: exactly the state a forked child inherits.
            sampler._stop.set()
            sampler._thread.join(timeout=5.0)
            sampler._pid += 1
            assert not sampler.running
            sampler.start()  # must drop the stale handle and restart
            assert sampler.running
            assert sampler._pid == os.getpid()
        finally:
            sampler.stop()
        assert not sampler.running


class TestTracerOpenSpans:
    def test_open_span_names_nesting(self):
        tracer = Tracer(enabled=True)
        assert tracer.open_span_names() == ()
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.open_span_names() == ("outer", "inner")
            assert tracer.open_span_names() == ("outer",)
        assert tracer.open_span_names() == ()

    def test_open_span_names_cross_thread(self):
        tracer = Tracer(enabled=True)
        inside = threading.Event()
        release = threading.Event()
        tid_holder = []

        def work():
            tid_holder.append(threading.get_ident())
            with tracer.span("worker-stage"):
                inside.set()
                release.wait(5.0)

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        inside.wait(5.0)
        assert tracer.open_span_names(tid_holder[0]) == ("worker-stage",)
        release.set()
        thread.join()
        assert tracer.open_span_names(tid_holder[0]) == ()

    def test_pickled_tracer_has_no_open_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            clone = pickle.loads(pickle.dumps(tracer))
        assert clone.open_span_names() == ()


# ---------------------------------------------------------------------------
# Prediction ledger
# ---------------------------------------------------------------------------


class TestLedger:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = PredictionLedger(str(path))
        ledger.append({"kernel": "k", "value": 1.0})
        ledger.append({"kernel": "k2", "value": float("nan")})
        records = read_ledger(str(path))
        assert len(records) == 2
        assert records[0]["run_id"] == ledger.run_id
        assert records[0]["ts"] > 0
        assert records[1]["value"] is None  # NaN sanitized, not 0.0

    def test_ledger_is_picklable(self, tmp_path):
        ledger = PredictionLedger(str(tmp_path / "l.jsonl"))
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.path == ledger.path
        assert clone.run_id == ledger.run_id
        clone.append({"kernel": "from-worker"})
        assert read_ledger(ledger.path)[0]["kernel"] == "from-worker"

    def test_per_kernel_errors_takes_last(self):
        records = [
            {"kernel": "k", "ts": 1, "errors": {"mt_mshr_band": 0.5}},
            {"kernel": "k", "ts": 2, "errors": {"mt_mshr_band": 0.1}},
        ]
        assert per_kernel_errors(records) == {"k": 0.1}

    def test_pipeline_record_validates_against_schema(
        self, config, tmp_path
    ):
        path = tmp_path / "ledger.jsonl"
        pipeline = Pipeline(config, scale=Scale.tiny(),
                            ledger=PredictionLedger(str(path)))
        pipeline.evaluate("vectoradd", warps_per_core=4)
        records = read_ledger(str(path))
        assert len(records) == 1
        record = records[0]
        schema = load_schema("ledger")
        assert validate(record, schema) == []
        assert record["kernel"] == "vectoradd"
        assert record["fingerprint"]
        assert record["arch"] == config.arch
        assert set(record["model_cpis"]) == {
            "naive", "markov", "mt", "mt_mshr", "mt_mshr_band"
        }
        assert "BASE" in record["cpi_stack"]
        assert 0.0 <= record["cache"]["l1_miss_rate"] <= 1.0
        assert record["stage_seconds"]  # fresh run: stages executed
        assert record["duration_s"] > 0
        assert pipeline.metrics.counter_value("ledger.records") == 1

    def test_parallel_workers_append_all_records(self, config, tmp_path):
        path = tmp_path / "ledger.jsonl"
        pipeline = Pipeline(config, scale=Scale.tiny(), jobs=2,
                            ledger=PredictionLedger(str(path)))
        kernels = ("vectoradd", "strided_deg8", "transpose_naive")
        pipeline.evaluate_many(
            [{"kernel": k, "warps_per_core": 4} for k in kernels]
        )
        records = read_ledger(str(path))
        assert sorted(r["kernel"] for r in records) == sorted(kernels)
        assert {r["run_id"] for r in records} == {pipeline.ledger.run_id}

    def test_cached_reevaluation_still_appends(self, config, tmp_path):
        # Accuracy history wants one record per *evaluation*, even when
        # every artifact comes from the store.
        path = tmp_path / "ledger.jsonl"
        pipeline = Pipeline(config, scale=Scale.tiny(),
                            ledger=PredictionLedger(str(path)))
        pipeline.evaluate("vectoradd", warps_per_core=4)
        pipeline.evaluate("vectoradd", warps_per_core=4)
        assert len(read_ledger(str(path))) == 2


# ---------------------------------------------------------------------------
# Accuracy watchdog
# ---------------------------------------------------------------------------


def _record(kernel, error, run_id="r1", ts=1.0):
    return {
        "kernel": kernel, "run_id": run_id, "ts": ts,
        "errors": {"mt_mshr_band": error},
    }


class TestWatchdog:
    def test_self_compare_is_clean(self):
        records = [_record("a", 0.05), _record("b", 0.10)]
        report = compare_ledgers(records, records)
        assert not report.has_regressions
        assert len(report.rows) == 2

    def test_fault_injection_trips_the_gate(self):
        """The CI-gate demonstration: inflate one kernel's error beyond
        tolerance and the watchdog must fail."""
        baseline = [_record("a", 0.05), _record("b", 0.10)]
        current = [_record("a", 0.05), _record("b", 0.10 + 0.03)]
        report = compare_ledgers(baseline, current, tolerance=0.02)
        assert report.has_regressions
        assert [r.kernel for r in report.regressions] == ["b"]
        assert report.regressions[0].delta == pytest.approx(0.03)

    def test_within_tolerance_passes(self):
        baseline = [_record("a", 0.05)]
        current = [_record("a", 0.06)]
        assert not compare_ledgers(
            baseline, current, tolerance=0.02
        ).has_regressions

    def test_rel_tolerance_adds_budget(self):
        baseline = [_record("a", 0.10)]
        current = [_record("a", 0.145)]
        assert compare_ledgers(baseline, current, tolerance=0.02,
                               rel_tolerance=0.0).has_regressions
        assert not compare_ledgers(baseline, current, tolerance=0.02,
                                   rel_tolerance=0.5).has_regressions

    def test_missing_kernel_is_coverage_loss(self):
        baseline = [_record("a", 0.05), _record("b", 0.05)]
        current = [_record("a", 0.05)]
        report = compare_ledgers(baseline, current)
        assert report.has_regressions
        assert report.regressions[0].note == "missing from current"
        assert not compare_ledgers(
            baseline, current, allow_missing=True
        ).has_regressions

    def test_new_kernel_is_informational(self):
        report = compare_ledgers([_record("a", 0.05)],
                                 [_record("a", 0.05), _record("new", 0.9)])
        assert not report.has_regressions
        notes = {r.kernel: r.note for r in report.rows}
        assert "new" in notes["new"]

    def test_becoming_degenerate_regresses(self):
        baseline = [_record("a", 0.05)]
        current = [_record("a", None)]
        report = compare_ledgers(baseline, current)
        assert report.has_regressions
        assert report.regressions[0].note == "degenerate oracle"

    def test_latest_record_wins_within_a_ledger(self):
        baseline = [_record("a", 0.05)]
        current = [_record("a", 0.50, ts=1.0), _record("a", 0.05, ts=2.0)]
        assert not compare_ledgers(baseline, current).has_regressions

    def test_report_render_and_dict(self):
        report = compare_ledgers([_record("a", 0.05)],
                                 [_record("a", 0.20)])
        text = report.render_text()
        assert "REGRESSED" in text and "a" in text
        payload = report.to_dict()
        assert payload["n_regressions"] == 1
        assert payload["rows"][0]["regressed"] is True


# ---------------------------------------------------------------------------
# CLI faces
# ---------------------------------------------------------------------------


class TestTelemetryCLI:
    def _seed_ledgers(self, tmp_path, drift=0.0):
        from repro.cli import main

        baseline = tmp_path / "baseline.jsonl"
        for kernel, error in (("a", 0.05), ("b", 0.10)):
            PredictionLedger(str(baseline), run_id="base").append(
                _record(kernel, error)
            )
        current = tmp_path / "current.jsonl"
        for kernel, error in (("a", 0.05), ("b", 0.10 + drift)):
            PredictionLedger(str(current), run_id="cur").append(
                _record(kernel, error)
            )
        return main, str(baseline), str(current)

    def test_watchdog_exit_zero_when_clean(self, tmp_path, capsys):
        main, baseline, current = self._seed_ledgers(tmp_path)
        assert main(["watchdog", "--baseline", baseline,
                     "--current", current]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_watchdog_exit_nonzero_on_regression(self, tmp_path, capsys):
        main, baseline, current = self._seed_ledgers(tmp_path, drift=0.05)
        assert main(["watchdog", "--baseline", baseline,
                     "--current", current]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_watchdog_json_format(self, tmp_path, capsys):
        main, baseline, current = self._seed_ledgers(tmp_path, drift=0.05)
        assert main(["watchdog", "--baseline", baseline, "--current",
                     current, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_regressions"] == 1

    def test_validate_with_ledger_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        assert main(["--ledger", str(path), "validate", "vectoradd",
                     "--scale", "tiny", "--warps", "4", "-q"]) == 0
        records = read_ledger(str(path))
        assert len(records) == 1
        assert validate(records[0], load_schema("ledger")) == []

    def test_profile_sample_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["profile", "--sample", "--sample-out", "x.txt",
             "--sample-interval", "0.005", "--scale", "tiny"]
        )
        assert args.sample and args.sample_out == "x.txt"
        assert args.sample_interval == 0.005
