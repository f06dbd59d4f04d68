"""Differential battery for the compiled evaluation core.

Extends the cross-engine harness of ``test_differential.py`` with the
compiled window engine (:mod:`repro.datalog.compiled`): on the same 100
generated programs, the compiled fixpoint must agree with the generic
semi-naive reference — and, through it, with BT verbatim, the interval
engine, tabled top-down, magic sets, and the incremental maintainer —
on answers *and* on the observable accounting: ``facts_derived``,
``facts_per_round``, and the per-rule credit invariant (the registry's
new-fact credits sum to the stats' derived count).

Per-engine probe/firing totals are deliberately NOT compared across
engines: a rule that joins a predicate against facts derived for that
same predicate in the same round sees them (or not) depending on
enumeration order, so duplicate/probe counts can differ between two
correct engines while the derived facts are identical.

The adversarial section pins down shapes the generator is unlikely to
hit: repeated variables inside one body atom, constants in head
positions, bodies whose atoms share no data variables, empty relations,
single-fact fixpoints, ground temporal terms (parsed with validation
off), and stratified negation through ``evaluate_window``.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.magic import magic_ask
from repro.core.spec import compute_specification
from repro.datalog.compiled import compiled_fixpoint
from repro.lang.sorts import parse_program
from repro.obs import EvalStats, Instruments, MetricsRegistry
from repro.temporal import (TemporalDatabase, TopDownEngine, bt_evaluate,
                            bt_verbatim, fixpoint)
from repro.temporal.bt import evaluate_window
from repro.temporal.incremental import IncrementalModel
from repro.temporal.interval_engine import interval_fixpoint
from test_differential import (AUX_SETTINGS, DIFF_SETTINGS, HORIZON,
                               TEMPORAL_PREDS, _open_atom, ground_goals,
                               programs)


def _run_pair(rules, db, horizon=HORIZON):
    """Reference + compiled evaluation; returns both stores and stats."""
    ref_stats = EvalStats()
    reference = fixpoint(rules, db, horizon,
                         instruments=Instruments(stats=ref_stats))
    comp_stats, registry = EvalStats(), MetricsRegistry()
    compiled = compiled_fixpoint(rules, db, horizon,
                                 instruments=Instruments(stats=comp_stats,
                                                         metrics=registry))
    assert compiled == reference
    assert comp_stats.facts_derived == ref_stats.facts_derived
    assert comp_stats.facts_per_round == ref_stats.facts_per_round
    # Per-rule credit invariant, within the compiled engine.
    assert registry.total_new_facts == comp_stats.facts_derived
    assert all(r.new_facts >= 0 and r.duplicates >= 0 and r.probes >= 0
               for r in registry)
    return reference, compiled, ref_stats, comp_stats


def _parity(text, horizon=HORIZON, validate=True):
    """Parse ``text`` and assert reference/compiled parity on it."""
    program = parse_program(text, validate=validate)
    db = TemporalDatabase(program.facts)
    reference, compiled, _, _ = _run_pair(list(program.rules), db,
                                          horizon)
    return compiled


class TestCompiledAgreement:
    """The 100-program battery, compiled vs every other engine."""

    @DIFF_SETTINGS
    @given(programs(), st.lists(ground_goals(), min_size=1, max_size=3))
    def test_compiled_agrees_with_every_engine(self, program, goals):
        rules, facts = program
        db = TemporalDatabase(facts)
        _, compiled, _, _ = _run_pair(rules, db)
        window = compiled.segment(0, HORIZON)
        window |= set(compiled.nt.facts())

        verbatim = bt_verbatim(rules, db, HORIZON)
        verb_window = verbatim.store.segment(0, HORIZON)
        verb_window |= set(verbatim.store.nt.facts())
        assert verb_window == window

        interval = interval_fixpoint(rules, db, HORIZON)
        assert interval.segment(0, HORIZON) == \
            compiled.segment(0, HORIZON)
        assert interval.nt == compiled.nt

        engine = TopDownEngine(rules, db, HORIZON)
        for pred, arity in TEMPORAL_PREDS.items():
            answers = engine.query(_open_atom(pred, arity))
            expected = {f for f in window
                        if f.pred == pred and f.time is not None}
            assert answers == expected, pred

        model = IncrementalModel(rules, db)
        for goal in goals:
            expected = goal in compiled
            assert magic_ask(rules, db, goal) == expected, goal
            assert model.holds(goal) == expected, goal

    @AUX_SETTINGS
    @given(programs())
    def test_compiled_counts_reconcile(self, program):
        rules, facts = program
        stats, registry = EvalStats(), MetricsRegistry()
        store = compiled_fixpoint(rules, TemporalDatabase(facts),
                                  HORIZON,
                                  instruments=Instruments(
                                      stats=stats, metrics=registry))
        assert stats.engine == "compiled"
        assert stats.horizon == HORIZON
        assert sum(stats.facts_per_round) == stats.facts_derived
        assert stats.extra["initial_facts"] + stats.facts_derived == \
            len(store)
        assert len(stats.facts_per_round) == stats.rounds
        assert len(stats.delta_sizes) == stats.rounds
        if stats.rounds:
            assert stats.facts_per_round[-1] == 0
        assert registry.total_new_facts == stats.facts_derived

    @AUX_SETTINGS
    @given(programs())
    def test_bt_driver_parity(self, program):
        """The whole BT driver (deepening + period detection) agrees
        between window engines, including beyond-window folding."""
        rules, facts = program
        db = TemporalDatabase(facts)
        ref = bt_evaluate(rules, db, window=HORIZON)
        comp = bt_evaluate(rules, db, window=HORIZON,
                           engine="compiled")
        assert comp.store == ref.store
        assert (comp.period is None) == (ref.period is None)
        if ref.period is not None:
            assert (comp.period.b, comp.period.p) == \
                (ref.period.b, ref.period.p)


class TestAdversarialShapes:
    """Hand-picked shapes the generator is unlikely to produce."""

    def test_repeated_variables_in_one_body_atom(self):
        # The +1 head offsets force temporal sorts onto `pair` (an
        # offset-free program is sort-ambiguous and parses as data).
        compiled = _parity("""
            same(T+1) :- pair(T, X, X).
            echo(T+1, X) :- pair(T, X, X).
            pair(0, a, a).
            pair(0, a, b).
            pair(1, b, b).
            pair(2, a, b).
        """)
        assert compiled.contains("same", 1, ())
        assert compiled.contains("same", 2, ())
        assert not compiled.contains("same", 3, ())
        assert compiled.contains("echo", 1, ("a",))
        assert not compiled.contains("echo", 1, ("b",))

    def test_constants_in_head_positions(self):
        compiled = _parity("""
            tagged(T+1, a) :- tick(T).
            mixed(T, a, X) :- tick(T), base(X).
            tick(T+1) :- tick(T).
            tick(0).
            base(b).
        """, horizon=6)
        assert compiled.contains("tagged", 3, ("a",))
        assert compiled.contains("mixed", 2, ("a", "b"))

    def test_body_atoms_share_no_data_variables(self):
        compiled = _parity("""
            combo(T+1, X, Y) :- left(T, X), right(T, Y).
            left(0, a).
            left(0, b).
            left(1, a).
            right(0, c).
            right(1, c).
        """)
        assert compiled.contains("combo", 1, ("a", "c"))
        assert compiled.contains("combo", 1, ("b", "c"))
        assert compiled.contains("combo", 2, ("a", "c"))
        assert not compiled.contains("combo", 2, ("b", "c"))

    def test_empty_relations_derive_nothing(self):
        compiled = _parity("""
            out(T+1, X) :- never(T, X), p(T, X).
            p(T+1, X) :- p(T, X).
            p(0, a).
        """)
        assert "out" not in compiled.temporal_predicates()

    def test_single_fact_fixpoint(self):
        # A self-loop at offset 0 saturates after one round of
        # duplicates; the single fact is the whole model.  Built from
        # term objects: the textual form is sort-ambiguous.
        from repro.lang.atoms import Atom, Fact
        from repro.lang.rules import Rule
        from repro.lang.terms import TimeTerm
        rule = Rule(Atom("loop", TimeTerm("T", 0), ()),
                    (Atom("loop", TimeTerm("T", 0), ()),))
        db = TemporalDatabase([Fact("loop", 3, ())])
        _, compiled, _, _ = _run_pair([rule], db)
        assert compiled.contains("loop", 3, ())
        assert len(compiled) == 1

    def test_ground_temporal_terms_in_rules(self):
        # The paper's validation forbids ground terms in rules;
        # building the rules directly exercises the engines' "ground"
        # time mode in bodies and heads.
        from repro.lang.atoms import Atom, Fact
        from repro.lang.rules import Rule
        from repro.lang.terms import TimeTerm
        rules = [
            Rule(Atom("ready", TimeTerm("T", 0), ()),
                 (Atom("boot", TimeTerm(None, 0), ()),
                  Atom("tick", TimeTerm("T", 0), ()))),
            Rule(Atom("late", TimeTerm(None, 5), ()),
                 (Atom("tick", TimeTerm(None, 3), ()),)),
            Rule(Atom("tick", TimeTerm("T", 1), ()),
                 (Atom("tick", TimeTerm("T", 0), ()),)),
        ]
        db = TemporalDatabase([Fact("tick", 0, ()),
                               Fact("boot", 0, ())])
        _, compiled, _, _ = _run_pair(rules, db, horizon=8)
        assert compiled.contains("ready", 7, ())
        assert compiled.contains("late", 5, ())

    def test_nullary_self_recursion(self):
        compiled = _parity("""
            done(T+2) :- done(T).
            done(1).
        """, horizon=9)
        assert compiled.contains("done", 9, ())
        assert not compiled.contains("done", 8, ())


class TestStratifiedAndSpec:
    """Negation (per-stratum compiled fixpoints) and spec parity."""

    STRATIFIED = """
        tick(T+1) :- tick(T).
        ok(T) :- tick(T), not fail(T).
        calm(T+1) :- ok(T), not fail(T).
        tick(0).
        fail(3).
        fail(7).
    """

    def test_stratified_negation_matches_generic(self):
        program = parse_program(self.STRATIFIED)
        db = TemporalDatabase(program.facts)
        sa, sb = EvalStats(), EvalStats()
        ref = evaluate_window(program.rules, db, 12,
                              engine="seminaive",
                              instruments=Instruments(stats=sa))
        comp = evaluate_window(program.rules, db, 12,
                               engine="compiled",
                               instruments=Instruments(stats=sb))
        assert set(comp.facts()) == set(ref.facts())
        assert sb.facts_derived == sa.facts_derived
        assert sb.extra.get("strata") == sa.extra.get("strata")

    def test_unknown_engine_is_a_located_evaluation_error(self):
        from repro.lang.errors import EvaluationError
        program = parse_program(self.STRATIFIED)
        db = TemporalDatabase(program.facts)
        with pytest.raises(EvaluationError, match="unknown engine"):
            evaluate_window(program.rules, db, 4, engine="warp")

    def test_specifications_are_engine_independent(self):
        program = parse_program("""
            even(T+2) :- even(T).
            odd(T+1) :- even(T).
            even(0).
        """)
        db = TemporalDatabase(program.facts)
        ref = compute_specification(program.rules, db)
        comp = compute_specification(program.rules, db,
                                     engine="compiled")
        assert comp.representatives == ref.representatives
        assert (comp.b, comp.p) == (ref.b, ref.p)
        assert comp.primary == ref.primary
        assert str(comp.rewrites) == str(ref.rewrites)
