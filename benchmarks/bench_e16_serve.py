"""E16 — spec serving: cold vs warm cache, batched vs sequential.

The serving subsystem packages Theorem 4.1's compute-once/serve-many
economics: the relational specification is content-addressed by the
program that produced it, so a warm cache answers without rerunning BT
at all.  This experiment quantifies the two claims the `repro serve`
design rests on:

1. **Warm beats cold by an order of magnitude** on the paper's E6
   travel workload — a cache hit is a dictionary lookup plus one query
   evaluation on the finite object; a cold serve pays the full BT
   deepening first.  The ≥10× floor is asserted, not just recorded.
2. **Batched vs sequential throughput** — one serve_batch(N) resolves
   the program and spec once for the group, where N serve() calls pay
   the per-request machinery N times.  (The first run of this pair
   showed sequential serving re-parsing and re-hashing the program per
   call, ~10 ms/request; that motivated the service's parse memo,
   after which the two paths land within noise of each other on a warm
   service — the batched win survives for memo-cold programs.)

Each record embeds an :class:`~repro.obs.EvalStats` from a separate
instrumented BT run with the service/cache counters merged into
``extra`` — the same shape ``repro ask --cache --stats`` emits, so
``check_stats_json.py`` can gate on the cache counter block.
``BENCH_SMOKE`` shrinks the batch sizes for CI.
"""

import os
import time

import pytest

from _util import record, record_stats

from repro.core import TDD
from repro.obs import EvalStats, Instruments
from repro.serve import QueryRequest, QueryService, SpecCache, tdd_key
from repro.temporal import TemporalDatabase, bt_evaluate
from repro.workloads import paper_travel_database, travel_agent_program

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

RULES = travel_agent_program()
DB = TemporalDatabase(paper_travel_database())
PROGRAM_TEXT = None  # rendered lazily below (needs a TDD)

BATCH = 16 if SMOKE else 128
COLD_SAMPLES = 2 if SMOKE else 5

ASK = "plane(730, hunter)"
DEEP_ASK = "plane(10000095, hunter)"


def _program() -> str:
    global PROGRAM_TEXT
    if PROGRAM_TEXT is None:
        from repro.serve import normalized_program
        tdd = TDD(RULES, list(DB.facts()))
        PROGRAM_TEXT = normalized_program(
            tdd.rules, tdd.database.facts(), tdd.temporal_preds)
    return PROGRAM_TEXT


def _instrumented_stats(service: QueryService) -> EvalStats:
    """EvalStats from an instrumented BT run of the same workload, with
    the serve/cache counters merged — mirrors the CLI's --stats path."""
    stats = EvalStats()
    bt_evaluate(RULES, DB, instruments=Instruments(stats=stats))
    service.attach_stats(stats)
    return stats


def test_cold_spec_latency(benchmark):
    """The price a spec-less server pays per program: full BT."""
    def setup():
        return (QueryService(cache=SpecCache()),), {}

    def cold(service):
        return service.serve(QueryRequest(program=_program(), query=ASK))

    response = benchmark.pedantic(cold, setup=setup,
                                  rounds=COLD_SAMPLES, iterations=1)
    assert response.ok and response.answer is True
    assert response.source == "computed"
    service = QueryService(cache=SpecCache())
    service.serve(QueryRequest(program=_program(), query=ASK))
    record(benchmark, mode="cold", query=ASK)
    record_stats(benchmark, _instrumented_stats(service))


def test_warm_cache_speedup(benchmark):
    """Warm-cache ask ≥10× faster than cold on the E6 workload."""
    service = QueryService(cache=SpecCache())
    # Cold reference: fresh service each sample, timed by hand so the
    # benchmark fixture measures the warm path only.
    cold_seconds = []
    for _ in range(COLD_SAMPLES):
        fresh = QueryService(cache=SpecCache())
        start = time.perf_counter()
        fresh.serve(QueryRequest(program=_program(), query=ASK))
        cold_seconds.append(time.perf_counter() - start)
    cold_s = min(cold_seconds)

    service.serve(QueryRequest(program=_program(), query=ASK))  # warm it
    response = benchmark(
        service.serve, QueryRequest(program=_program(), query=DEEP_ASK))
    assert response.ok and response.answer is True
    assert response.source == "memory" and not response.degraded

    warm_s = benchmark.stats.stats.mean
    speedup = cold_s / warm_s
    record(benchmark, mode="warm", query=DEEP_ASK,
           cold_ms=round(cold_s * 1e3, 3),
           warm_ms=round(warm_s * 1e3, 6),
           speedup=round(speedup, 1))
    record_stats(benchmark, _instrumented_stats(service))
    assert speedup >= 10, (
        f"warm ask only {speedup:.1f}x faster than cold "
        f"(cold {cold_s * 1e3:.1f}ms, warm {warm_s * 1e3:.3f}ms)")


def _mixed_requests() -> list[QueryRequest]:
    requests = []
    for index in range(BATCH):
        if index % 4 == 3:
            requests.append(QueryRequest(
                program=_program(), query="plane(T, X)", kind="answers"))
        else:
            requests.append(QueryRequest(
                program=_program(),
                query=f"plane({12 + 365 * index}, hunter)"))
    return requests


def test_batched_throughput(benchmark):
    """One serve_batch(N): program parsed once, spec resolved once."""
    service = QueryService(cache=SpecCache())
    requests = _mixed_requests()
    service.serve_batch(requests)  # warm

    responses = benchmark(service.serve_batch, requests)

    assert len(responses) == BATCH
    assert all(r.ok for r in responses)
    per_request = benchmark.stats.stats.mean / BATCH
    record(benchmark, mode="batched", batch=BATCH,
           requests_per_s=round(1.0 / per_request))
    record_stats(benchmark, _instrumented_stats(service))


def test_sequential_throughput(benchmark):
    """The same N requests, one serve() call each: N memo lookups, N
    cache round-trips, N singleton batches of bookkeeping."""
    service = QueryService(cache=SpecCache())
    requests = _mixed_requests()
    service.serve_batch(requests)  # warm

    def sequential():
        return [service.serve(request) for request in requests]

    responses = benchmark(sequential)

    assert all(r.ok for r in responses)
    per_request = benchmark.stats.stats.mean / BATCH
    record(benchmark, mode="sequential", batch=BATCH,
           requests_per_s=round(1.0 / per_request))
    record_stats(benchmark, _instrumented_stats(service))


def test_disk_rehydration_latency(benchmark, tmp_path):
    """A process restart: the LRU is cold but the SQLite layer is warm —
    rehydration must stay far below a recompute."""
    path = tmp_path / "specs.sqlite"
    warmer = QueryService(cache=SpecCache(path))
    warmer.serve(QueryRequest(program=_program(), query=ASK))
    key = tdd_key(TDD.from_text(_program()))

    def setup():
        return (SpecCache(path),), {}

    def rehydrate(cache):
        spec, source = cache.get_with_source(key)
        assert source == "disk"
        return spec

    spec = benchmark.pedantic(rehydrate, setup=setup,
                              rounds=10 if SMOKE else 50, iterations=1)
    assert spec is not None
    record(benchmark, mode="disk-rehydrate")
    record_stats(benchmark, _instrumented_stats(warmer))


@pytest.mark.parametrize("deadline", [0.0])
def test_degraded_fallback_latency(benchmark, deadline):
    """The graceful-degradation path: budget exhausted, windowed BT
    answers instead.  Bounded and predictable, never an error."""
    service = QueryService(cache=SpecCache())

    def degraded():
        fresh = QueryService(cache=SpecCache())
        return fresh.serve(QueryRequest(
            program=_program(), query="plane(12, hunter)",
            deadline=deadline))

    response = benchmark(degraded)
    assert response.ok and response.degraded and response.answer is True
    service.serve(QueryRequest(program=_program(),
                               query="plane(12, hunter)",
                               deadline=deadline))
    record(benchmark, mode="degraded", deadline=deadline)
    record_stats(benchmark, _instrumented_stats(service))
