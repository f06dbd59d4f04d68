"""Cross-engine differential harness (hypothesis-driven).

Generates small forward definite temporal programs plus databases and
checks that every evaluation strategy in the repo — the semi-naive
window fixpoint (the reference), BT's verbatim naive loop, the
interval-coalesced engine, tabled top-down resolution, magic sets, and
the incremental maintainer — computes the same answers.  The same runs
feed the observability layer and check its sanity invariants: derived
counts reconcile with final store sizes, per-round series have the
right lengths, and semi-naive never takes more rounds than naive.

The agreement test runs 100 generated programs (the CI floor); the
stats-invariant tests add more.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.magic import magic_ask
from repro.datalog import naive_evaluate, seminaive_evaluate
from repro.lang.atoms import Atom, Fact
from repro.lang.rules import Rule
from repro.lang.terms import Const, TimeTerm, Var
from repro.obs import EvalStats, Instruments, MetricsRegistry
from repro.temporal import (TemporalDatabase, TopDownEngine, bt_verbatim,
                            fixpoint)
from repro.temporal.incremental import IncrementalModel
from repro.temporal.interval_engine import interval_fixpoint

HORIZON = 14

DIFF_SETTINGS = settings(max_examples=100, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])
AUX_SETTINGS = settings(max_examples=30, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

CONSTANTS = ["a", "b"]
TEMPORAL_PREDS = {"p": 1, "q": 1, "r": 0}
NT_PRED = ("base", 1)


# ---------------------------------------------------------------------------
# Strategy: forward definite semi-normal programs
# ---------------------------------------------------------------------------

@st.composite
def _rule(draw) -> Rule:
    """One forward semi-normal rule: body offsets <= head offset, one
    temporal variable T, data args drawn from {X, constants}."""
    head_offset = draw(st.integers(0, 2))

    def data_args(arity):
        return tuple(
            Var("X") if draw(st.booleans())
            else Const(draw(st.sampled_from(CONSTANTS)))
            for _ in range(arity)
        )

    body = []
    n_temporal = draw(st.integers(1, 2))
    for _ in range(n_temporal):
        pred = draw(st.sampled_from(sorted(TEMPORAL_PREDS)))
        offset = draw(st.integers(0, head_offset))
        body.append(Atom(pred, TimeTerm("T", offset),
                         data_args(TEMPORAL_PREDS[pred])))
    if draw(st.booleans()):
        body.append(Atom(NT_PRED[0], None, data_args(NT_PRED[1])))

    head_pred = draw(st.sampled_from(sorted(TEMPORAL_PREDS)))
    arity = TEMPORAL_PREDS[head_pred]
    body_vars = sorted({v.name for a in body for v in a.data_variables()})
    head_args = tuple(
        (Var(draw(st.sampled_from(body_vars))) if body_vars
         and draw(st.booleans())
         else Const(draw(st.sampled_from(CONSTANTS))))
        for _ in range(arity)
    )
    # Range restriction: head data vars must occur in the body, which
    # holds by construction (head vars are drawn from body_vars).
    return Rule(Atom(head_pred, TimeTerm("T", head_offset), head_args),
                tuple(body))


@st.composite
def programs(draw):
    rules = draw(st.lists(_rule(), min_size=1, max_size=3))
    facts = []
    for _ in range(draw(st.integers(1, 5))):
        pred = draw(st.sampled_from(sorted(TEMPORAL_PREDS)))
        args = tuple(draw(st.sampled_from(CONSTANTS))
                     for _ in range(TEMPORAL_PREDS[pred]))
        facts.append(Fact(pred, draw(st.integers(0, 4)), args))
    for _ in range(draw(st.integers(0, 2))):
        facts.append(Fact(NT_PRED[0], None,
                          (draw(st.sampled_from(CONSTANTS)),)))
    return rules, facts


@st.composite
def ground_goals(draw):
    pred = draw(st.sampled_from(sorted(TEMPORAL_PREDS)))
    args = tuple(draw(st.sampled_from(CONSTANTS))
                 for _ in range(TEMPORAL_PREDS[pred]))
    return Fact(pred, draw(st.integers(0, HORIZON)), args)


def _open_atom(pred: str, arity: int) -> Atom:
    return Atom(pred, TimeTerm("S", 0),
                tuple(Var(f"X{i}") for i in range(arity)))


# ---------------------------------------------------------------------------
# Agreement across all engines
# ---------------------------------------------------------------------------

class TestEngineAgreement:
    @DIFF_SETTINGS
    @given(programs(), st.lists(ground_goals(), min_size=1, max_size=3))
    def test_all_engines_agree(self, program, goals):
        rules, facts = program
        db = TemporalDatabase(facts)

        ref_stats = EvalStats()
        reference = fixpoint(rules, db, HORIZON,
                             instruments=Instruments(stats=ref_stats))
        ref_window = reference.segment(0, HORIZON)
        ref_window |= set(reference.nt.facts())

        # BT's verbatim naive loop: same window model.
        verbatim = bt_verbatim(rules, db, HORIZON,
                               instruments=Instruments(stats=EvalStats()))
        verb_window = verbatim.store.segment(0, HORIZON)
        verb_window |= set(verbatim.store.nt.facts())
        assert verb_window == ref_window

        # Interval-coalesced evaluation: exact store equality.
        interval = interval_fixpoint(
            rules, db, HORIZON, instruments=Instruments(stats=EvalStats()))
        assert interval.segment(0, HORIZON) == \
            reference.segment(0, HORIZON)
        assert interval.nt == reference.nt

        # Tabled top-down: per-predicate open queries over the window.
        engine = TopDownEngine(rules, db, HORIZON,
                               instruments=Instruments(stats=EvalStats()))
        for pred, arity in TEMPORAL_PREDS.items():
            answers = engine.query(_open_atom(pred, arity))
            expected = {f for f in ref_window
                        if f.pred == pred and f.time is not None}
            assert answers == expected, pred

        # Magic sets + incremental maintenance: sampled ground goals.
        model = IncrementalModel(rules, db,
                                 instruments=Instruments(stats=EvalStats()))
        for goal in goals:
            expected = goal in reference
            assert magic_ask(rules, db, goal) == expected, goal
            assert model.holds(goal) == expected, goal

    @AUX_SETTINGS
    @given(programs(), st.data())
    def test_incremental_insert_matches_recomputation(self, program,
                                                      data):
        """Insert a suffix of the database one fact at a time; the
        maintained model must match a from-scratch evaluation."""
        rules, facts = program
        temporal = [f for f in facts if f.time is not None]
        if len(temporal) < 2:
            return
        nt = [f for f in facts if f.time is None]
        split = data.draw(st.integers(1, len(temporal) - 1),
                          label="split")
        model = IncrementalModel(rules,
                                 TemporalDatabase(temporal[:split] + nt))
        for fact in temporal[split:]:
            model.insert(fact)
        reference = fixpoint(rules, TemporalDatabase(facts), HORIZON)
        for goal in data.draw(st.lists(ground_goals(), min_size=2,
                                       max_size=4), label="goals"):
            assert model.holds(goal) == (goal in reference), goal


# ---------------------------------------------------------------------------
# Stats sanity invariants
# ---------------------------------------------------------------------------

class TestStatsInvariants:
    @AUX_SETTINGS
    @given(programs())
    def test_fixpoint_counts_reconcile(self, program):
        rules, facts = program
        stats = EvalStats()
        store = fixpoint(rules, TemporalDatabase(facts), HORIZON,
                         instruments=Instruments(stats=stats))
        assert stats.engine == "seminaive"
        assert stats.horizon == HORIZON
        assert sum(stats.facts_per_round) == stats.facts_derived
        assert stats.extra["initial_facts"] + stats.facts_derived == \
            len(store)
        assert len(stats.facts_per_round) == stats.rounds
        assert len(stats.delta_sizes) == stats.rounds
        # The final round derives nothing (that is how the loop exits).
        if stats.rounds:
            assert stats.facts_per_round[-1] == 0

    @AUX_SETTINGS
    @given(programs())
    def test_verbatim_counts_reconcile(self, program):
        rules, facts = program
        stats = EvalStats()
        result = bt_verbatim(rules, TemporalDatabase(facts), HORIZON,
                             instruments=Instruments(stats=stats))
        assert stats.engine == "bt_verbatim"
        assert sum(stats.facts_per_round) == stats.facts_derived
        assert stats.extra["initial_facts"] + stats.facts_derived == \
            len(result.store)

    @AUX_SETTINGS
    @given(programs())
    def test_seminaive_rounds_le_naive_rounds(self, program):
        rules, facts = program
        db = TemporalDatabase(facts)
        naive_stats, semi_stats = EvalStats(), EvalStats()
        bt_verbatim(rules, db, HORIZON,
                    instruments=Instruments(stats=naive_stats))
        fixpoint(rules, db, HORIZON, instruments=Instruments(stats=semi_stats))
        assert semi_stats.rounds <= naive_stats.rounds

    @AUX_SETTINGS
    @given(programs())
    def test_interval_counts_reconcile(self, program):
        rules, facts = program
        stats = EvalStats()
        interval_fixpoint(rules, TemporalDatabase(facts), HORIZON,
                          instruments=Instruments(stats=stats))
        assert stats.engine == "interval"
        assert sum(stats.facts_per_round) == stats.facts_derived
        # Saturation converges: the last outer round merges nothing.
        assert stats.facts_per_round[-1] == 0


class TestProfilingInvariance:
    """Per-rule attribution is an observer: enabling it never changes
    the computed model, and its credits reconcile with EvalStats."""

    @AUX_SETTINGS
    @given(programs())
    def test_profiling_never_changes_the_model(self, program):
        rules, facts = program
        db = TemporalDatabase(facts)
        reference = fixpoint(rules, db, HORIZON)

        stats, registry = EvalStats(), MetricsRegistry()
        profiled = fixpoint(rules, db, HORIZON,
                            instruments=Instruments(stats=stats,
                                                    metrics=registry))
        assert profiled.segment(0, HORIZON) == \
            reference.segment(0, HORIZON)
        assert profiled.nt == reference.nt
        assert registry.total_new_facts == stats.facts_derived

        verb_stats, verb_registry = EvalStats(), MetricsRegistry()
        verbatim = bt_verbatim(rules, db, HORIZON,
                               instruments=Instruments(stats=verb_stats,
                                                       metrics=verb_registry))
        window = verbatim.store.segment(0, HORIZON)
        window |= set(verbatim.store.nt.facts())
        ref_window = reference.segment(0, HORIZON)
        ref_window |= set(reference.nt.facts())
        assert window == ref_window
        assert verb_registry.total_new_facts == \
            verb_stats.facts_derived

    @AUX_SETTINGS
    @given(programs())
    def test_interval_credits_reconcile(self, program):
        rules, facts = program
        stats, registry = EvalStats(), MetricsRegistry()
        interval_fixpoint(rules, TemporalDatabase(facts), HORIZON,
                          instruments=Instruments(stats=stats,
                                                  metrics=registry))
        assert registry.total_new_facts == stats.facts_derived


class TestDatalogStatsInvariants:
    def test_datalog_seminaive_rounds_le_naive(self):
        rules_text = [
            Rule(Atom("tc", None, (Var("X"), Var("Y"))),
                 (Atom("edge", None, (Var("X"), Var("Y"))),)),
            Rule(Atom("tc", None, (Var("X"), Var("Z"))),
                 (Atom("edge", None, (Var("X"), Var("Y"))),
                  Atom("tc", None, (Var("Y"), Var("Z"))))),
        ]
        edb = [Fact("edge", None, (f"v{i}", f"v{i + 1}"))
               for i in range(6)]
        naive_stats, semi_stats = EvalStats(), EvalStats()
        naive = naive_evaluate(rules_text, edb,
                               instruments=Instruments(stats=naive_stats))
        semi = seminaive_evaluate(rules_text, edb,
                                  instruments=Instruments(stats=semi_stats))
        assert naive == semi
        assert semi_stats.rounds <= naive_stats.rounds
        assert naive_stats.engine == "datalog_naive"
        assert semi_stats.engine == "datalog_seminaive"
        assert naive_stats.extra["initial_facts"] + \
            naive_stats.facts_derived == len(naive)
