"""Observability for the evaluation engines.

Every engine — naive/semi-naive Datalog, the temporal operator behind
algorithm BT, the compiled window engine, the incremental model,
top-down tabling, magic sets, and the interval engine — takes one
optional ``instruments`` keyword: an :class:`Instruments` value, or
``None`` when everything is off (the hot paths then pay one
``is not None`` test per call site and allocate nothing).
:class:`Instruments` bundles up to four accumulators and owns the
accounting protocol the engines share:

* an :class:`EvalStats` records *how* an answer was computed: rounds,
  per-round delta sizes, join probes, index behaviour, the horizon
  used, the detected period, and wall time per phase;
* a :class:`Tracer` writes the same story as a JSON-lines event stream
  (:class:`JsonLinesSink` for files, :class:`ListSink` for tests; the
  schema is documented in ``docs/INTERNALS.md``);
* a :class:`MetricsRegistry` credits firings, new facts, duplicates,
  join probes and wall time to individual rules — the
  ``repro profile`` / ``repro traceview`` reports;
* a :class:`ProvenanceStore` records one support edge per derived fact
  (an interned proof DAG) behind ``repro why`` / ``repro whynot``,
  ``explain: true`` on ``POST /query``, and the sampled schema-4
  ``derive`` trace events.

Request-level telemetry lives in :mod:`repro.obs.telemetry`: a
:class:`Telemetry` mints :class:`Span` trees (trace_id / span_id /
parent) across the serving path and exports them as schema-3 ``span``
events through the same Tracer sinks, and :class:`LatencyHistogram`
backs the ``/metrics`` endpoint and the ``/stats`` percentile block.
"""

from .collector import (CostCalibration, RuleWindowAggregator,
                        TraceStore, calibration_rows, render_trace_tree)
from .instruments import Instruments
from .metrics import Histogram, MetricsRegistry, RuleMetrics
from .provenance import (FailedFiring, ProvenanceStore, WhyNotReport,
                         render_proof, why_not)
from .stats import EvalStats
from .telemetry import (DEFAULT_LATENCY_BUCKETS_MS, LatencyHistogram,
                        Span, SpanContext, Telemetry, new_span_id,
                        new_trace_id, valid_span_id, valid_trace_id)
from .trace import TRACE_SCHEMA, JsonLinesSink, ListSink, Tracer

__all__ = [
    "Instruments", "EvalStats",
    "Tracer", "JsonLinesSink", "ListSink", "TRACE_SCHEMA",
    "MetricsRegistry", "RuleMetrics", "Histogram",
    "Telemetry", "Span", "SpanContext", "LatencyHistogram",
    "new_trace_id", "new_span_id", "valid_trace_id", "valid_span_id",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "ProvenanceStore", "FailedFiring", "WhyNotReport",
    "render_proof", "why_not",
    "TraceStore", "RuleWindowAggregator", "CostCalibration",
    "calibration_rows", "render_trace_tree",
]
