"""E3 — Theorems 3.1/3.3: periods and specifications can blow up.

Claim: over a FAMILY of rulesets, the worst-case period (hence the
specification size) grows super-polynomially in the (linear-size) input:
k coprime counters have period lcm(p1..pk) — the primorial, which is
exponential in the total database+program size.

Rows: k vs measured period (must equal the primorial), specification
size, and wall time.  The shape: every quantity explodes while the per-
ruleset behaviour stays 1-periodic (each member is multi-separable) —
exactly the tension Section 4 resolves by fixing the ruleset.
"""

import os

import pytest

from _util import measured_speedup, record, record_stats

from repro.core import compute_specification
from repro.datalog.compiled import compiled_fixpoint
from repro.obs import (EvalStats, Instruments, MetricsRegistry,
                       ProvenanceStore)
from repro.temporal import TemporalDatabase, bt_evaluate, fixpoint
from repro.workloads import (coprime_cycles_database,
                             coprime_cycles_program,
                             coprime_sync_database,
                             coprime_sync_program, expected_period,
                             first_primes)

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

KS = [1, 2, 3, 4, 5]


@pytest.mark.parametrize("k", KS)
def test_period_equals_primorial(benchmark, k):
    primes = first_primes(k)
    rules = coprime_cycles_program(primes)
    db = TemporalDatabase(coprime_cycles_database(primes))

    result = benchmark(bt_evaluate, rules, db)

    lcm = expected_period(primes)
    assert result.period.p == lcm, \
        f"period must be the primorial lcm{tuple(primes)} = {lcm}"
    record(benchmark, k=k, primes=primes, expected_lcm=lcm,
           measured_p=result.period.p, db_size=db.n + len(rules))


def test_spec_size_grows_superpolynomially(benchmark):
    """|S| tracks b + p: linear input growth, exponential output."""
    def run():
        rows = []
        for k in (1, 2, 3, 4):
            primes = first_primes(k)
            rules = coprime_cycles_program(primes)
            db = TemporalDatabase(coprime_cycles_database(primes))
            spec = compute_specification(rules, db)
            rows.append((k, spec.size))
        return rows

    rows = benchmark(run)
    sizes = [size for _, size in rows]
    # Super-polynomial: each prime multiplies the period.
    assert sizes[-1] / sizes[0] > (4 / 1) ** 2
    record(benchmark, rows=[{"k": k, "spec_size": s} for k, s in rows])


def test_compiled_engine_speedup_on_coprime_window(benchmark):
    """The exponential blow-up's constant factor: truncating the k=4
    sync family (coprime counters over tokens plus the lcm-witness
    conjunction) to two full periods costs the generic semi-naive loop
    several times what the compiled join plans pay."""
    primes = first_primes(2 if SMOKE else 4)
    rules = coprime_sync_program(primes)
    db = TemporalDatabase(coprime_sync_database(
        primes, n_items=4 if SMOKE else 32))
    window = 2 * expected_period(primes)

    store = benchmark(compiled_fixpoint, rules, db, window)

    assert store == fixpoint(rules, db, window)
    base_s, comp_s, ratio = measured_speedup(
        lambda: fixpoint(rules, db, window),
        lambda: compiled_fixpoint(rules, db, window))
    floor = 0.0 if SMOKE else 5.0
    assert ratio > floor, (
        f"compiled engine only {ratio:.1f}x faster than semi-naive "
        f"on k={len(primes)} sync counters (window {window})")
    # Provenance rider: recording a support edge per derived fact must
    # cost a bounded constant factor, and the provenance-off path must
    # stay the baseline measured above — running without a provenance
    # store is free.
    off_s, on_s, _ = measured_speedup(
        lambda: compiled_fixpoint(rules, db, window),
        lambda: compiled_fixpoint(
            rules, db, window,
            instruments=Instruments(provenance=ProvenanceStore())))
    if not SMOKE:
        assert off_s < 1.5 * comp_s, (
            f"provenance-off compiled run ({off_s:.3f}s) drifted from "
            f"the baseline measured moments earlier ({comp_s:.3f}s)")
    stats = EvalStats()
    compiled_fixpoint(rules, db, window,
                      instruments=Instruments(stats=stats,
                                              metrics=MetricsRegistry(),
                                              provenance=ProvenanceStore()))
    record(benchmark, k=len(primes), window=window, engine="compiled",
           facts=len(store), seminaive_seconds=base_s,
           compiled_seconds=comp_s, speedup_vs_seminaive=ratio,
           speedup_floor=floor,
           provenance_overhead_ratio=on_s / off_s)
    record_stats(benchmark, stats)
