"""E7 — Figure 1 ablation: verbatim BT vs the semi-naive engine.

Algorithm BT as printed re-derives the whole window naively on every
round; the production engine computes the same truncated fixpoint
semi-naively with delta stores.  Both return identical segments
(property-tested); this experiment quantifies the gap, which widens
with window size and fact density — the classic naive/semi-naive
separation, here on temporal workloads.

Rows: workload × window vs wall time for each engine.  Each record
also embeds an :class:`~repro.obs.EvalStats` (from a separate
instrumented run, so the timed loop stays clean); setting the
``BENCH_SMOKE`` environment variable shrinks the windows to a
seconds-long smoke configuration for CI.
"""

import os

import pytest

from _util import measured_speedup, record, record_stats

from repro.datalog.compiled import compiled_fixpoint
from repro.lang import parse_program
from repro.obs import EvalStats, Instruments, MetricsRegistry
from repro.temporal import TemporalDatabase, bt_verbatim, fixpoint
from repro.workloads import (copy_chain_database, copy_chain_program,
                             graph_database, paper_travel_database,
                             random_digraph, travel_agent_program,
                             bounded_path_program)

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

WINDOWS = {
    "even": 16 if SMOKE else 64,
    "travel": 40 if SMOKE else 400,
    "graph": 8 if SMOKE else 16,
}


def _load(name):
    if name == "even":
        program = parse_program("even(T+2) :- even(T).\neven(0).")
        return program.rules, TemporalDatabase(program.facts), \
            WINDOWS[name]
    if name == "travel":
        return (travel_agent_program(),
                TemporalDatabase(paper_travel_database()),
                WINDOWS[name])
    if name == "graph":
        rules = bounded_path_program()
        db = TemporalDatabase(graph_database(
            random_digraph(10, 20, seed=3)))
        return rules, db, WINDOWS[name]
    raise KeyError(name)


@pytest.mark.parametrize("name", ["even", "travel", "graph"])
def test_verbatim_bt(benchmark, name):
    rules, db, window = _load(name)

    result = benchmark(bt_verbatim, rules, db, window)

    stats = EvalStats()
    bt_verbatim(rules, db, window,
                instruments=Instruments(stats=stats,
                                        metrics=MetricsRegistry()))
    record(benchmark, workload=name, window=window, engine="verbatim",
           rounds=result.rounds, facts=len(result.store))
    record_stats(benchmark, stats)


@pytest.mark.parametrize("name", ["even", "travel", "graph"])
def test_seminaive_fixpoint(benchmark, name):
    rules, db, window = _load(name)

    store = benchmark(fixpoint, rules, db, window)

    # Equivalence spot-check (full equality is property-tested).
    reference = bt_verbatim(rules, db, window)
    assert store.segment(0, window) == \
        reference.store.segment(0, window)
    stats = EvalStats()
    fixpoint(rules, db, window,
             instruments=Instruments(stats=stats, metrics=MetricsRegistry()))
    record(benchmark, workload=name, window=window, engine="seminaive",
           facts=len(store))
    record_stats(benchmark, stats)


# The compiled engine's own rung of the ablation needs fact-dense
# windows where the join machinery (not per-round overhead) dominates;
# "chain" replaces the sparse one-fact-per-round "even" counter with
# the copy-chain family.  The smoke sizes only check the plumbing, so
# the speedup floor is asserted at full size only.
SPEEDUP_WINDOWS = {
    "chain": 16 if SMOKE else 128,
    "travel": 40 if SMOKE else 2000,
    "graph": 8 if SMOKE else 32,
}
SPEEDUP_FLOOR = 0.0 if SMOKE else 5.0


def _load_speedup(name):
    if name == "chain":
        rules = copy_chain_program(8)
        db = TemporalDatabase(copy_chain_database(
            8 if SMOKE else 64))
        return rules, db, SPEEDUP_WINDOWS[name]
    if name == "graph":
        rules = bounded_path_program()
        db = TemporalDatabase(graph_database(
            random_digraph(16, 48, seed=3)))
        return rules, db, SPEEDUP_WINDOWS[name]
    rules, db, _ = _load(name)
    return rules, db, SPEEDUP_WINDOWS[name]


@pytest.mark.parametrize("name", ["chain", "travel", "graph"])
def test_compiled_engine_speedup(benchmark, name):
    """Third rung of the ablation: interned, index-backed join plans
    vs the generic tuple-at-a-time semi-naive loop, same fixpoint."""
    rules, db, window = _load_speedup(name)

    store = benchmark(compiled_fixpoint, rules, db, window)

    assert store == fixpoint(rules, db, window)
    base_s, comp_s, ratio = measured_speedup(
        lambda: fixpoint(rules, db, window),
        lambda: compiled_fixpoint(rules, db, window))
    assert ratio > SPEEDUP_FLOOR, (
        f"compiled engine only {ratio:.1f}x faster than semi-naive "
        f"on {name!r} (window {window}); expected > {SPEEDUP_FLOOR}")
    stats = EvalStats()
    compiled_fixpoint(rules, db, window,
                      instruments=Instruments(stats=stats,
                                              metrics=MetricsRegistry()))
    record(benchmark, workload=name, window=window, engine="compiled",
           facts=len(store), seminaive_seconds=base_s,
           compiled_seconds=comp_s, speedup_vs_seminaive=ratio,
           speedup_floor=SPEEDUP_FLOOR)
    record_stats(benchmark, stats)
