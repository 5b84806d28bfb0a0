"""Observability for the EnCore pipeline, dependency-free.

One telemetry scope, four instruments.  :mod:`repro.obs.telemetry`
holds a :class:`Telemetry` — the metrics registry, span tracer, flight
recorder and health monitor — behind one process default and one
context-variable override (:func:`current` reads it, :func:`scope`
pushes one for a ``with`` block).  Every pipeline stage
records into ``current()``; the instruments themselves are:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters /
  gauges / histograms; mergeable, JSON- and Prometheus-serialisable;
* :mod:`repro.obs.tracing` — hierarchical :func:`span` timing with an
  optional :class:`Tracer` retaining the tree for JSON export;
* :mod:`repro.obs.profile` — per-stage resource profiling
  (:class:`StageProfiler`: a tracer whose spans also carry CPU time,
  RSS and allocation peaks; the profile document is folded from its
  span tree, worker forests included) with JSON, Chrome
  ``trace_event`` and text exports;
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, always-on bounded
  rings of recent spans / logs / errors / incidents, the black box
  ``repro doctor`` bundles and ``GET /flightz`` serves;
* :mod:`repro.obs.health` — :class:`HealthMonitor`, the sampler +
  alert evaluator the serve daemon and long CLI runs share.

Around them:

* :mod:`repro.obs.logging` — structured (key=value or JSON-lines)
  loggers behind one :func:`configure` entry point;
* :mod:`repro.obs.model` — model observability: :class:`Provenance`
  (the evidence record behind every learned rule) and
  :class:`DriftMonitor` (checked-fleet vs. training-corpus
  distribution drift, PSI/KL per attribute);
* :mod:`repro.obs.timeline` — bounded ring-buffer time-series of
  registry samples (:class:`Timeline` + :class:`TimelineSampler`) with
  windowed rate / delta / percentile queries;
* :mod:`repro.obs.alerts` — declarative alert rules
  (``.encore/alerts.toml``) evaluated against the timeline by
  :class:`AlertEngine`, producing :class:`Incident` records with a
  firing→resolved lifecycle;
* :mod:`repro.obs.ledger` — the append-only run ledger every CLI
  train/check/audit run records into, with :func:`diff_entries` for
  run-over-run regression comparison;
* :mod:`repro.obs.bench` — the benchmark history store
  (``BENCH_history.jsonl``) and the median-of-N perf-regression gate
  behind ``repro bench diff``;
* :mod:`repro.obs.fileio` — crash-safe output primitives
  (:func:`atomic_write_text`, :func:`append_line`) behind every
  trace / metrics / ledger file the layer writes;
* :mod:`repro.obs.console` — the ``repro stats`` telemetry table;
* :mod:`repro.obs.doctor` — redacted diagnostic bundles
  (:func:`build_bundle` / :func:`check_bundle`) behind ``repro doctor``.

Telemetry is *distributed*: a shard task frame carries
:meth:`Telemetry.spec` (the trace context, whether to profile), the
worker records into a scope built only from it, and ships back
:meth:`Telemetry.snapshot`, which the coordinator's
:meth:`Telemetry.merge` folds — one registry total and one
causally-linked span tree at any ``--workers N``, from which the
profile document is derived.

Every pipeline stage records into the current registry, so any
``train()`` + ``check()`` run can be inspected after the fact::

    from repro.obs import get_registry, render_stats
    print(render_stats(get_registry()))

Metric and span names follow ``stage.noun.verb`` — see
``docs/observability.md`` for the full naming scheme and the mapping
from paper Tables 2/3 and §7 to metric names.
"""

from repro.obs.alerts import (
    AlertConfigError,
    AlertEngine,
    AlertRule,
    Incident,
    load_rules,
    parse_rules,
)
from repro.obs.console import render_stats
from repro.obs.doctor import DoctorError, build_bundle, check_bundle
from repro.obs.fileio import atomic_write_text, append_line
from repro.obs.flight import FlightRecorder
from repro.obs.health import HealthMonitor, build_monitor
from repro.obs.ledger import Ledger, LedgerEntry, diff_entries
from repro.obs.logging import StructuredLogger, configure, get_logger
from repro.obs.model import DriftMonitor, DriftSummary, Provenance
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricKindError,
    MetricsRegistry,
)
from repro.obs.timeline import Timeline, TimelineSampler
from repro.obs.profile import (
    StageProfiler,
    chrome_trace,
    profile_document,
    render_profile,
)
from repro.obs.telemetry import Telemetry, current, get_registry, scope
from repro.obs.tracing import (
    Span,
    TraceContext,
    TraceExemplars,
    Tracer,
    current_context,
    span,
)

__all__ = [
    "AlertConfigError",
    "AlertEngine",
    "AlertRule",
    "Counter",
    "DoctorError",
    "DriftMonitor",
    "DriftSummary",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "Incident",
    "Ledger",
    "LedgerEntry",
    "MetricKindError",
    "MetricsRegistry",
    "Provenance",
    "Span",
    "StageProfiler",
    "StructuredLogger",
    "Telemetry",
    "Timeline",
    "TimelineSampler",
    "TraceContext",
    "TraceExemplars",
    "Tracer",
    "append_line",
    "atomic_write_text",
    "build_bundle",
    "build_monitor",
    "check_bundle",
    "chrome_trace",
    "configure",
    "current",
    "current_context",
    "diff_entries",
    "get_logger",
    "get_registry",
    "load_rules",
    "parse_rules",
    "profile_document",
    "render_profile",
    "render_stats",
    "scope",
    "span",
]
