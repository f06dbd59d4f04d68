"""Spans around calls into the program's layers, and their analysis.

The traced run patches each public function named in :data:`PATCHES`
*where its caller looks it up* (``repro.temporal.bt`` imports
``evaluate_window`` and ``find_minimal_period`` by name, so those names
are replaced in ``repro.temporal.bt``; methods are replaced on their
class).  A wrapper records one span per call: name, start, end, span
id, parent span id (the enclosing wrapped call on the same thread) and
the request id, which is the ``X-Repro-Trace-Id`` the benchmark sent
with the HTTP request.  Spans stay in memory and are written out once,
when the process stops.

:class:`Analysis` joins the spans of every process with the client's own
``client.request`` spans, links each process's root spans to the
enclosing span of the same request in the calling process, and computes
self times: a span's duration minus the part of it that its children
cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from statistics import median
from typing import Callable, Union

#: Span name of the benchmark's own per-request span.
CLIENT_SPAN = "client.request"


def _horizon(args, kwargs):
    return {"horizon": kwargs["horizon"] if "horizon" in kwargs
            else args[2]}


def _primary(result):
    return {"primary_facts": len(result.primary)}


#: (module, attribute path, span name, argument probe, result probe).
#: A span name is the layer (module) and the function it times.
PATCHES = (
    ("repro.serve.service", "QueryService.serve_batch",
     "serve.service.serve_batch", None, None),
    ("repro.serve.router", "FrontEnd.routing_key",
     "serve.router.routing_key", None, None),
    ("repro.serve.router", "FrontEnd.deliver",
     "serve.router.deliver", None, None),
    ("repro.core.tdd", "TDD.from_text", "core.tdd.from_text", None, None),
    ("repro.serve.service", "tdd_key", "serve.cache.tdd_key", None, None),
    ("repro.serve.router", "tdd_key", "serve.cache.tdd_key", None, None),
    ("repro.serve.cache", "SpecCache.get_with_source",
     "serve.cache.get_with_source", None, None),
    ("repro.serve.cache", "SpecCache.put", "serve.cache.put", None, None),
    ("repro.serve.service", "parse_query", "core.queries.parse_query",
     None, None),
    ("repro.serve.service", "evaluate", "core.queries.evaluate",
     None, None),
    ("repro.serve.service", "spec_answers", "core.queries.answers",
     None, None),
    ("repro.serve.service", "compute_specification",
     "core.spec.compute_specification", None, None),
    ("repro.core.spec", "spec_from_result", "core.spec.spec_from_result",
     None, _primary),
    ("repro.core.spec", "bt_evaluate", "temporal.bt.bt_evaluate",
     None, None),
    ("repro.serve.service", "bt_evaluate", "temporal.bt.bt_evaluate",
     None, None),
    ("repro.temporal.bt", "evaluate_window", "temporal.bt.evaluate_window",
     _horizon, None),
    ("repro.temporal.bt", "find_minimal_period",
     "temporal.periodicity.find_minimal_period", None, None),
    ("repro.temporal.store", "TemporalStore.states",
     "temporal.store.states", None, None),
    ("repro.datalog.compiled.store", "CompiledStore.to_temporal_store",
     "datalog.compiled.to_temporal_store", None, None),
)


class Recorder:
    """In-memory span store of one process.

    ``list.append`` and ``next`` on a counter are atomic under the
    interpreter lock, so handler threads record without a lock."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def set_request(self, request_id: Union[str, None]) -> None:
        self._local.request = request_id

    def wrap(self, function: Callable, name: str, probe_args=None,
             probe_result=None) -> Callable:
        local, spans, ids = self._local, self.spans, self._ids
        pid = os.getpid()

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            extra = probe_args(args, kwargs) if probe_args else None
            error = False
            start = time.monotonic_ns()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.monotonic_ns()
                stack.pop()
                span = {"name": name, "start": start, "end": end,
                        "id": f"{pid}:{span_id}",
                        "parent": f"{pid}:{parent}" if parent else None,
                        "request": getattr(local, "request", None),
                        "pid": pid, "error": error}
                if extra:
                    span.update(extra)
                spans.append(span)
            if probe_result is not None:
                span.update(probe_result(result))
            return result

        return traced

    def install(self) -> None:
        """Patch every name in :data:`PATCHES`, plus ``Telemetry.root``
        so each HTTP request's trace id becomes the thread's request
        id."""
        for module_name, path, name, probe_args, probe_result in PATCHES:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(
                    original.__func__, name, probe_args, probe_result))
            else:
                wrapped = self.wrap(original, name, probe_args,
                                    probe_result)
            setattr(owner, attribute, wrapped)
        from repro.obs.telemetry import Telemetry
        root = Telemetry.root

        def traced_root(telemetry, name, *args, **kwargs):
            span = root(telemetry, name, *args, **kwargs)
            self.set_request(span.trace_id)
            return span

        Telemetry.root = traced_root

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(directory: str) -> list:
    spans = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name),
                      encoding="utf-8") as handle:
                spans.extend(json.load(handle))
    return spans


def _covered(interval: tuple, children: list) -> int:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    pieces = sorted((max(lo, c["start"]), min(hi, c["end"]))
                    for c in children)
    total, reach = 0, lo
    for start, end in pieces:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def link(spans: list) -> None:
    """Give each process-root span its cross-process parent: the
    shortest span of the same request, in another process, whose
    interval contains it (all processes read one monotonic clock)."""
    by_request = defaultdict(list)
    for span in spans:
        by_request[span["request"]].append(span)
    for group in by_request.values():
        for span in group:
            if span["parent"] is not None or span["name"] == CLIENT_SPAN:
                continue
            outer = [s for s in group if s["pid"] != span["pid"]
                     and s["start"] <= span["start"]
                     and span["end"] <= s["end"]]
            if outer:
                span["parent"] = min(
                    outer, key=lambda s: s["end"] - s["start"])["id"]


def self_times(spans: list) -> None:
    """Set ``self`` (ns) on every span."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    for span in spans:
        interval = (span["start"], span["end"])
        span["self"] = (span["end"] - span["start"]
                        - _covered(interval, children[span["id"]]))


def _p50(values: list) -> float:
    return float(median(values)) if values else 0.0


class Analysis:
    """Per-layer numbers from the spans of the timed requests."""

    def __init__(self, spans: list, requests: int):
        link(spans)
        self_times(spans)
        self.spans = spans
        self.requests = requests
        self.by_name = defaultdict(list)
        for span in spans:
            self.by_name[span["name"]].append(span)
        clients = self.by_name[CLIENT_SPAN]
        self.end_to_end_ns = sum(s["end"] - s["start"] for s in clients)

    def durations(self, name: str, scale: float) -> list:
        return [(s["end"] - s["start"]) / scale for s in self.by_name[name]]

    def p50(self, name: str, scale: float) -> float:
        return _p50(self.durations(name, scale))

    def self_p50(self, name: str, scale: float) -> float:
        return _p50([s["self"] / scale for s in self.by_name[name]])

    def accounting_error(self) -> float:
        """|Σ self times − Σ traced end-to-end| ÷ the latter."""
        total = sum(span["self"] for span in self.spans)
        if not self.end_to_end_ns:
            return 0.0
        return abs(total - self.end_to_end_ns) / self.end_to_end_ns

    def self_ms_per_request(self) -> list:
        """(span name, self ms per timed request), largest first; the
        client span's self time is what no wrapped call covers (HTTP,
        JSON, the handler)."""
        totals = defaultdict(int)
        for span in self.spans:
            totals[span["name"]] += span["self"]
        per_request = max(self.requests, 1) * 1e6
        return sorted(((name, round(ns / per_request, 4))
                       for name, ns in totals.items()),
                      key=lambda pair: -pair[1])

    def bt_metrics(self) -> dict:
        """Cold-path numbers per computed specification."""
        children = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)

        def under(span, name):
            found = []
            for child in children[span["id"]]:
                if child["name"] == name:
                    found.append(child)
                found.extend(under(child, name))
            return found

        computes = self.by_name["core.spec.compute_specification"]
        specs = sum(1 for s in computes if not s["error"])
        windows = wasted = evaluated = 0
        for compute in computes:
            horizons = [w["horizon"] for w in sorted(
                under(compute, "temporal.bt.evaluate_window"),
                key=lambda w: w["start"])]
            windows += len(horizons)
            evaluated += sum(h + 1 for h in horizons)
            kept = 0 if compute["error"] or not horizons else horizons[-1] + 1
            wasted += sum(h + 1 for h in horizons) - kept

        def total_ms(name: str) -> float:
            return sum(s["end"] - s["start"]
                       for c in computes for s in under(c, name)) / 1e6

        compute_ms = sum(s["end"] - s["start"] for s in computes) / 1e6
        window_ms = total_ms("temporal.bt.evaluate_window")
        per_spec = (lambda v: v / specs) if specs else (lambda v: 0.0)
        return {
            "temporal.bt.windows_per_spec": per_spec(windows),
            "temporal.bt.wasted_window_ratio":
                wasted / evaluated if evaluated else 0.0,
            "temporal.bt.evaluate_window_ms_per_spec": per_spec(window_ms),
            "temporal.bt.evaluate_window_share":
                window_ms / compute_ms if compute_ms else 0.0,
            "datalog.compiled.to_temporal_store_ms_per_spec": per_spec(
                total_ms("datalog.compiled.to_temporal_store")),
            "temporal.store.states_ms_per_spec": per_spec(
                total_ms("temporal.store.states")),
            "temporal.periodicity.find_minimal_period_ms_per_spec":
                per_spec(total_ms(
                    "temporal.periodicity.find_minimal_period")),
        }

    def metrics(self) -> dict:
        from_text = self.by_name["core.tdd.from_text"]
        results = self.by_name["core.spec.spec_from_result"]
        metrics = {
            "serve.service.self_ms_p50":
                self.self_p50("serve.service.serve_batch", 1e6),
            "serve.router.routing_key_us_p50":
                self.p50("serve.router.routing_key", 1e3),
            "core.tdd.from_text_per_request":
                len(from_text) / max(self.requests, 1),
            "core.tdd.from_text_ms_p50": self.p50("core.tdd.from_text",
                                                  1e6),
            "serve.cache.tdd_key_ms_p50": self.p50("serve.cache.tdd_key",
                                                   1e6),
            "serve.cache.lookup_us_p50":
                self.p50("serve.cache.get_with_source", 1e3),
            "serve.cache.put_ms_p50": self.p50("serve.cache.put", 1e6),
            "core.queries.parse_query_us_p50":
                self.p50("core.queries.parse_query", 1e3),
            "core.queries.evaluate_us_p50":
                self.p50("core.queries.evaluate", 1e3),
            "core.queries.answers_us_p50":
                self.p50("core.queries.answers", 1e3),
            "core.spec.spec_from_result_ms_p50":
                self.p50("core.spec.spec_from_result", 1e6),
            "core.spec.primary_facts_p50":
                _p50([s["primary_facts"] for s in results
                      if "primary_facts" in s]),
        }
        metrics.update(self.bt_metrics())
        return metrics
