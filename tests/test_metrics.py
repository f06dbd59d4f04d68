"""Tests for per-rule attribution (repro.obs.metrics).

The central contract is the per-rule credit invariant: across every
engine, the per-rule ``new_facts`` counters sum to exactly
``EvalStats.facts_derived`` — no derivation is double-credited, none is
lost.  Seed facts (fact rules, extensional inserts) are *initial*, not
derived, and stay uncredited.
"""

from __future__ import annotations

import gc

from repro.core.magic import magic_ask
from repro.datalog import naive_evaluate, seminaive_evaluate
from repro.lang import parse_program, parse_rules
from repro.lang.atoms import Atom, Fact
from repro.lang.rules import Rule
from repro.lang.terms import Var
from repro.obs import (EvalStats, Histogram, Instruments, ListSink,
                       MetricsRegistry, RuleMetrics, TRACE_SCHEMA, Tracer)
from repro.temporal import (IncrementalModel, TemporalDatabase,
                            bt_evaluate, bt_verbatim, evaluate_window,
                            explain, fixpoint, interval_fixpoint,
                            topdown_ask)

HORIZON = 12

EVEN_ODD = """\
even(T+2) :- even(T).
odd(T+2) :- odd(T).
even(0).
odd(1).
"""

#: p(t) is derivable through *both* p-rules for every t >= 1: one rule
#: gets the new-fact credit, the other records a duplicate.
DIAMOND = """\
p(T+1) :- a(T).
p(T+1) :- b(T).
a(T+1) :- a(T).
b(T+1) :- b(T).
a(0).
b(0).
"""

STRATIFIED = """\
tick(T+1) :- tick(T).
safe(T, X) :- tick(T), node(X), not bad(X).
tick(0).
node(a).
node(b).
bad(b).
"""


def _load(text):
    program = parse_program(text)
    return program.rules, TemporalDatabase(program.facts)


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for value in (0, 1, 2, 3, 4, 7, 8, 1 << 40):
            h.record(value)
        assert h.total == 8
        assert h.to_dict() == {"0": 1, "1": 1, "2-3": 2, "4-7": 2,
                               "8-15": 1, "65536+": 1}

    def test_round_trip(self):
        h = Histogram()
        for value in (0, 0, 5, 900):
            h.record(value)
        assert Histogram.from_dict(h.to_dict()).counts == h.counts

    def test_empty_serializes_sparse(self):
        assert Histogram().to_dict() == {}


# ---------------------------------------------------------------------------
# Registry identity and bookkeeping
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_same_rule_object_shares_a_record(self):
        (rule,) = parse_rules("p(T+1) :- p(T).")
        registry = MetricsRegistry()
        assert registry.rule(rule) is registry.rule(rule)
        assert len(registry) == 1

    def test_equal_rules_at_different_lines_stay_distinct(self):
        # Rule equality ignores spans, so two textually identical rules
        # must be distinguished by object identity.
        rules = parse_rules("p(T+1) :- p(T).\np(T+1) :- p(T).")
        assert rules[0] == rules[1]
        registry = MetricsRegistry()
        a, b = registry.rule(rules[0]), registry.rule(rules[1])
        assert a is not b
        assert (a.line, b.line) == (1, 2)
        assert [r.id for r in registry] == ["r1", "r2"]

    def test_span_label(self):
        (rule,) = parse_rules("p(T+1) :- p(T).")
        record = MetricsRegistry().rule(rule)
        assert record.span_label("x.tdd") == "x.tdd:1"
        assert record.span_label() == "line 1"
        anonymous = RuleMetrics("r9", "p.", None)
        assert anonymous.span_label("x.tdd") == "-"

    def test_derived_ratios(self):
        record = RuleMetrics("r1", "p.", 1)
        assert record.duplicate_ratio == 0.0
        assert record.probes_per_fact == 0.0
        record.new_facts, record.duplicates, record.probes = 3, 1, 12
        assert record.duplicate_ratio == 0.25
        assert record.probes_per_fact == 4.0

    def test_hot_sorts_by_attribute(self):
        rules = parse_rules("p(T+1) :- p(T).\nq(T+1) :- q(T).")
        registry = MetricsRegistry()
        registry.rule(rules[0]).seconds = 0.1
        registry.rule(rules[1]).seconds = 0.9
        assert [r.id for r in registry.hot()] == ["r2", "r1"]

    def test_export_into_stats_extra(self):
        rules, db = _load(EVEN_ODD)
        stats, registry = EvalStats(), MetricsRegistry()
        fixpoint(rules, db, HORIZON,
                 instruments=Instruments(stats=stats, metrics=registry))
        assert stats.extra["rules"] == registry.to_dict()
        record = stats.extra["rules"][0]
        assert set(record) == {"id", "label", "line", "firings",
                               "new_facts", "duplicates", "probes",
                               "seconds", "per_round"}


# ---------------------------------------------------------------------------
# The credit invariant, engine by engine
# ---------------------------------------------------------------------------

class TestCreditInvariant:
    def _check(self, registry, stats):
        assert stats.facts_derived > 0
        assert registry.total_new_facts == stats.facts_derived

    def test_seminaive_fixpoint(self):
        rules, db = _load(EVEN_ODD)
        stats, registry = EvalStats(), MetricsRegistry()
        fixpoint(rules, db, HORIZON,
                 instruments=Instruments(stats=stats, metrics=registry))
        self._check(registry, stats)

    def test_bt_verbatim(self):
        rules, db = _load(EVEN_ODD)
        stats, registry = EvalStats(), MetricsRegistry()
        bt_verbatim(rules, db, HORIZON,
                    instruments=Instruments(stats=stats, metrics=registry))
        self._check(registry, stats)

    def test_bt_evaluate_with_deepening(self):
        rules, db = _load(EVEN_ODD)
        stats, registry = EvalStats(), MetricsRegistry()
        bt_evaluate(rules, db,
                    instruments=Instruments(stats=stats, metrics=registry))
        self._check(registry, stats)

    def test_stratified_window(self):
        rules, db = _load(STRATIFIED)
        stats, registry = EvalStats(), MetricsRegistry()
        store = evaluate_window(rules, db, HORIZON,
                                instruments=Instruments(stats=stats,
                                                        metrics=registry))
        assert Fact("safe", 3, ("a",)) in store
        assert Fact("safe", 3, ("b",)) not in store
        self._check(registry, stats)

    def test_interval_engine(self):
        rules, db = _load(EVEN_ODD)
        stats, registry = EvalStats(), MetricsRegistry()
        interval_fixpoint(rules, db, HORIZON,
                          instruments=Instruments(stats=stats,
                                                  metrics=registry))
        self._check(registry, stats)

    def test_topdown(self):
        rules, db = _load(EVEN_ODD)
        stats, registry = EvalStats(), MetricsRegistry()
        assert topdown_ask(rules, db, Fact("even", 8, ()),
                           instruments=Instruments(stats=stats,
                                                   metrics=registry))
        self._check(registry, stats)

    def test_magic(self):
        rules, db = _load(EVEN_ODD)
        stats, registry = EvalStats(), MetricsRegistry()
        assert magic_ask(rules, db, Fact("even", 8, ()),
                         instruments=Instruments(stats=stats,
                                                 metrics=registry))
        self._check(registry, stats)
        # Rewritten rules inherit the source rule's span.
        assert any(r.line is not None for r in registry)

    def test_incremental_insert_paths(self):
        rules, db = _load(EVEN_ODD)
        stats, registry = EvalStats(), MetricsRegistry()
        model = IncrementalModel(rules, db,
                                 instruments=Instruments(stats=stats,
                                                         metrics=registry))
        self._check(registry, stats)
        model.insert(Fact("even", 4, ()))      # duplicate seed
        model.insert(Fact("odd", 5, ()))
        self._check(registry, stats)

    def _datalog_rules(self):
        return [
            Rule(Atom("tc", None, (Var("X"), Var("Y"))),
                 (Atom("edge", None, (Var("X"), Var("Y"))),)),
            Rule(Atom("tc", None, (Var("X"), Var("Z"))),
                 (Atom("edge", None, (Var("X"), Var("Y"))),
                  Atom("tc", None, (Var("Y"), Var("Z"))))),
        ]

    def test_datalog_naive(self):
        edb = [Fact("edge", None, (f"v{i}", f"v{i + 1}"))
               for i in range(5)]
        stats, registry = EvalStats(), MetricsRegistry()
        naive_evaluate(self._datalog_rules(), edb,
                       instruments=Instruments(stats=stats, metrics=registry))
        self._check(registry, stats)

    def test_datalog_seminaive(self):
        edb = [Fact("edge", None, (f"v{i}", f"v{i + 1}"))
               for i in range(5)]
        stats, registry = EvalStats(), MetricsRegistry()
        seminaive_evaluate(self._datalog_rules(), edb,
                           instruments=Instruments(stats=stats,
                                                   metrics=registry))
        self._check(registry, stats)

    def test_naive_and_seminaive_agree_per_rule(self):
        edb = [Fact("edge", None, (f"v{i}", f"v{i + 1}"))
               for i in range(5)]
        naive_reg, semi_reg = MetricsRegistry(), MetricsRegistry()
        naive_evaluate(self._datalog_rules(), edb,
                       instruments=Instruments(metrics=naive_reg))
        seminaive_evaluate(self._datalog_rules(), edb,
                           instruments=Instruments(metrics=semi_reg))
        assert naive_reg.total_new_facts == semi_reg.total_new_facts
        # Semi-naive re-derives strictly less than naive iteration.
        assert semi_reg.total_duplicates <= naive_reg.total_duplicates


# ---------------------------------------------------------------------------
# Duplicates cross-checked against the explanation machinery
# ---------------------------------------------------------------------------

class TestDuplicateAttribution:
    def test_duplicates_are_alternative_derivations(self):
        rules, db = _load(DIAMOND)
        stats, registry = EvalStats(), MetricsRegistry()
        store = fixpoint(rules, db, HORIZON,
                         instruments=Instruments(stats=stats,
                                                 metrics=registry))
        assert registry.total_new_facts == stats.facts_derived
        # p(t) has two derivations for every t in 1..HORIZON: exactly
        # one per-rule credit and at least one duplicate each round.
        p_rules = [r for r in registry if r.label.startswith("p(")]
        assert sum(r.new_facts for r in p_rules) == HORIZON
        assert sum(r.duplicates for r in p_rules) >= HORIZON
        # The duplicated fact is genuinely in the model, with a
        # derivation tree rooted at one of the two p-rules — the
        # duplicate counter records the *other* proof existing.
        tree = explain(rules, db, store, Fact("p", 5, ()))
        assert tree.rule is not None
        assert tree.rule.head.pred == "p"

    def test_deterministic_programs_have_no_duplicates(self):
        rules, db = _load(EVEN_ODD)
        registry = MetricsRegistry()
        fixpoint(rules, db, HORIZON, instruments=Instruments(metrics=registry))
        assert registry.total_duplicates == 0


# ---------------------------------------------------------------------------
# Zero-cost-when-disabled discipline
# ---------------------------------------------------------------------------

class TestDisabledPath:
    def test_disabled_run_allocates_no_metric_objects(self):
        rules, db = _load(EVEN_ODD)
        fixpoint(rules, db, HORIZON)                     # warm caches
        gc.collect()
        before = sum(isinstance(obj, (RuleMetrics, Histogram, Instruments))
                     for obj in gc.get_objects())
        fixpoint(rules, db, HORIZON,
                 instruments=Instruments(stats=EvalStats()))
        bt_verbatim(rules, db, HORIZON)
        interval_fixpoint(rules, db, HORIZON)
        gc.collect()
        after = sum(isinstance(obj, (RuleMetrics, Histogram, Instruments))
                    for obj in gc.get_objects())
        assert after == before

    def test_profiled_model_equals_unprofiled_model(self):
        rules, db = _load(DIAMOND)
        reference = fixpoint(rules, db, HORIZON)
        profiled = fixpoint(rules, db, HORIZON,
                            instruments=Instruments(metrics=MetricsRegistry()))
        assert profiled.segment(0, HORIZON) == \
            reference.segment(0, HORIZON)


# ---------------------------------------------------------------------------
# run_start trace header (schema version header)
# ---------------------------------------------------------------------------

class TestRunStartEvent:
    def test_payload(self):
        sink = ListSink()
        tracer = Tracer(sink)
        tracer.emit_run_start("bt", program="x.tdd", text="even(0).\n")
        (event,) = sink.events
        assert event["event"] == "run_start"
        assert event["engine"] == "bt"
        assert event["schema"] == TRACE_SCHEMA == 4
        assert event["program"] == "x.tdd"
        assert len(event["sha256"]) == 64
        from repro import __version__
        assert event["version"] == __version__

    def test_optional_fields_omitted(self):
        sink = ListSink()
        Tracer(sink).emit_run_start("interval")
        (event,) = sink.events
        assert "program" not in event and "sha256" not in event

    def test_disabled_tracer_is_a_noop(self):
        Tracer(None).emit_run_start("bt", program="x.tdd", text="p.")
