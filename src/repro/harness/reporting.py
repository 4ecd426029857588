"""Plain-text rendering of experiment results + report/diagnostic logging.

The paper reports bar charts and line series; a terminal reproduction
renders the same data as fixed-width tables so diffs against
EXPERIMENTS.md stay reviewable.

Output discipline: human-facing reports go through :func:`emit` (the
``repro.out`` logger, plain messages on stdout, silenced by ``-q``);
diagnostics go through ordinary module loggers under ``repro`` (stderr,
enabled by ``-v``); machine-readable output (JSON) bypasses logging and
prints directly so it stays pipeable regardless of verbosity.
:func:`configure_logging` is called once per CLI invocation and is
idempotent — library users who never call it get standard
logging-library behaviour (everything silent by default).
"""

from __future__ import annotations

import logging
import sys
from typing import Iterable, List, Mapping, Optional, Sequence

#: Logger carrying primary human-readable output (tables, summaries).
OUTPUT_LOGGER = "repro.out"


def emit(text: str) -> None:
    """Report one block of human-readable output (stdout via logging)."""
    logging.getLogger(OUTPUT_LOGGER).info("%s", text)


def configure_logging(
    verbose: int = 0,
    quiet: bool = False,
    stdout=None,
    stderr=None,
) -> None:
    """Route ``repro.out`` to stdout and diagnostics to stderr.

    ``verbose`` raises the diagnostic level (1: INFO, 2+: DEBUG);
    ``quiet`` silences reports and keeps only errors.  Handlers are
    replaced, not stacked, so repeated calls (tests invoking ``main``
    many times) never duplicate output, and streams are rebound to the
    *current* ``sys.stdout``/``sys.stderr`` on every call.
    """
    out = logging.getLogger(OUTPUT_LOGGER)
    for handler in list(out.handlers):
        out.removeHandler(handler)
    out_handler = logging.StreamHandler(stdout if stdout is not None
                                        else sys.stdout)
    out_handler.setFormatter(logging.Formatter("%(message)s"))
    out.addHandler(out_handler)
    out.propagate = False
    out.setLevel(logging.WARNING if quiet else logging.INFO)

    diag = logging.getLogger("repro")
    for handler in list(diag.handlers):
        diag.removeHandler(handler)
    diag_handler = logging.StreamHandler(stderr if stderr is not None
                                         else sys.stderr)
    diag_handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    diag.addHandler(diag_handler)
    if quiet:
        diag.setLevel(logging.ERROR)
    elif verbose >= 2:
        diag.setLevel(logging.DEBUG)
    elif verbose == 1:
        diag.setLevel(logging.INFO)
    else:
        diag.setLevel(logging.WARNING)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as a fixed-width table with a rule under the header."""
    materialised: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    percent: bool = False,
) -> str:
    """Render one row per series across sweep points (a line chart)."""
    headers = [x_label] + [_fmt(x) for x in x_values]
    rows = []
    for name, values in series.items():
        cells: List[object] = [name]
        for value in values:
            cells.append("%.1f%%" % (100.0 * value) if percent else value)
        rows.append(cells)
    return render_table(headers, rows, title=title)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return "%.3f" % cell
    return str(cell)


def render_stage_table(metrics, title: str = "pipeline stages") -> Optional[str]:
    """Stage-timing table from a pipeline's metrics registry.

    One row per executed stage, in DAG order: runs, cache hits, total
    wall time, mean and p95 per-run latency.  ``None`` when the registry
    has recorded no stage executions (nothing ran), so callers can skip
    the section entirely.
    """
    from repro.pipeline.stages import STAGES

    runs = metrics.labeled_values("pipeline.stage_executions", "stage")
    hits = metrics.labeled_values("pipeline.stage_hits", "stage")
    seconds = metrics.labeled_values("pipeline.stage_seconds", "stage")
    stages = [s for s in STAGES if runs.get(s) or hits.get(s)]
    stages += sorted((set(runs) | set(hits)) - set(stages))
    if not stages:
        return None
    rows = []
    for stage in stages:
        n = int(runs.get(stage, 0))
        histogram = metrics.histogram("pipeline.stage_ms", stage=stage)
        rows.append(
            [
                stage,
                n,
                int(hits.get(stage, 0)),
                "%.3f" % seconds.get(stage, 0.0),
                "%.2f" % histogram.mean if n else "-",
                "%.2f" % histogram.percentile(95.0) if n else "-",
            ]
        )
    return render_table(
        ["stage", "runs", "hits", "total s", "mean ms", "p95 ms"],
        rows,
        title=title,
    )
