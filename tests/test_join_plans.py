"""Unit tests for the compiled engine's join plans.

Structural assertions on the :class:`~repro.datalog.compiled.JoinPlan`
objects themselves — *not* timing: every body atom with bound argument
positions must be matched by an index probe (or a full-row membership
check when everything is bound), never by a scan; the program registry
must register exactly the indexes the plans probe; and attaching a
:class:`~repro.obs.MetricsRegistry` must be a pure observer (identical
fact sets without one).
"""

from __future__ import annotations

import pytest

from repro.datalog.compiled import (CompileError, JoinPlan,
                                    compile_program, compiled_fixpoint)
from repro.lang.atoms import Atom
from repro.lang.rules import Rule
from repro.lang.sorts import parse_program
from repro.lang.terms import TimeTerm, Var
from repro.obs import EvalStats, Instruments, MetricsRegistry
from repro.temporal import TemporalDatabase

REACH = """
    path(T+1, X, Z) :- path(T, X, Y), edge(T, Y, Z).
    reach(T+1, Y) :- reach(T, X), edge(T, X, Y).
    same(T+1, X) :- edge(T, X, X).
    meet(T+1) :- reach(T, X), path(T, X, X).
    edge(0, a, b).
    edge(0, b, c).
    edge(1, b, b).
    path(0, a, b).
    reach(0, a).
"""


def _plans(text):
    program = parse_program(text, validate=False)
    compiled = compile_program(program.rules)
    return compiled, [plan for per_rule in compiled.plans
                      for plan in per_rule]


class TestIndexSelection:
    def test_every_bound_position_is_index_backed(self):
        """No positive body atom with bound data positions ever falls
        back to a scan: partially bound means an index probe on exactly
        the bound positions, fully bound means a membership check."""
        _, plans = _plans(REACH)
        assert plans, "no plans compiled"
        for plan in plans:
            lead = plan.steps[0]
            assert lead.mode == "delta"
            assert lead.atom_index == plan.lead
            for step in plan.steps[1:]:
                if step.mode == "absent":
                    continue
                n_args = len(plan.rule.body[step.atom_index].args)
                if not step.bound_positions:
                    assert step.mode == "scan"
                elif (len(step.bound_positions) == n_args
                        and not step.check_positions):
                    assert step.mode == "member"
                else:
                    assert step.mode == "index"
                    assert step.index_positions == step.bound_positions

    def test_transitive_rule_probes_the_join_column(self):
        """path ⨝ edge joins on Y: the edge step must probe an index
        on edge's first data position, binding the second."""
        compiled, _ = _plans(REACH)
        rule = compiled.rules[0]
        assert rule.head.pred == "path"
        per_rule = compiled.plans[0]
        plan = next(p for p in per_rule if p.lead == 0)  # lead = path
        edge_step = next(s for s in plan.steps if s.pred == "edge")
        assert edge_step.mode == "index"
        assert edge_step.index_positions == (0,)
        assert edge_step.out_positions == (1,)

    def test_registered_indexes_match_the_probes(self):
        """The program registry holds exactly the (pred, positions)
        pairs some plan probes in index mode."""
        compiled, plans = _plans(REACH)
        probed = {(s.pred, s.index_positions)
                  for p in plans for s in p.steps if s.mode == "index"}
        registered = {(pred, positions)
                      for pred, sets in compiled.registered.items()
                      for positions in sets}
        assert probed == registered

    def test_fully_bound_atom_is_a_membership_check(self):
        """In `meet`, with reach(T, X) as lead, path(T, X, X) has both
        data positions bound — one membership probe, no index."""
        compiled, _ = _plans(REACH)
        rule_index = next(i for i, r in enumerate(compiled.rules)
                          if r.head.pred == "meet")
        plan = next(p for p in compiled.plans[rule_index]
                    if p.rule.body[p.lead].pred == "reach")
        path_step = next(s for s in plan.steps if s.pred == "path")
        assert path_step.mode == "member"
        assert path_step.bound_positions == (0, 1)
        assert path_step.index_positions is None

    def test_one_plan_per_lead_atom(self):
        compiled, _ = _plans(REACH)
        for rule, per_rule in zip(compiled.rules, compiled.plans):
            assert len(per_rule) == len(rule.body)
            assert sorted(p.lead for p in per_rule) == \
                list(range(len(rule.body)))
            for plan in per_rule:
                assert isinstance(plan, JoinPlan)
                assert plan.lead_pred == rule.body[plan.lead].pred
                assert plan.describe()  # human-readable, non-empty

    def test_negative_literals_become_absent_checks(self):
        program = parse_program("""
            tick(T+1) :- tick(T).
            quiet(T) :- tick(T), not loud(T).
            tick(0).
            loud(2).
        """)
        compiled = compile_program(program.rules)
        rule_index = next(i for i, r in enumerate(compiled.rules)
                          if r.head.pred == "quiet")
        for plan in compiled.plans[rule_index]:
            kinds = [s.mode for s in plan.steps]
            assert kinds.count("absent") == 1
            assert kinds[-1] == "absent"  # negation runs after binding


class TestCompileErrors:
    def test_non_range_restricted_head_rejected(self):
        rule = Rule(Atom("h", TimeTerm("T", 0), (Var("Z"),)),
                    (Atom("p", TimeTerm("T", 0), (Var("X"),)),))
        with pytest.raises(CompileError):
            compile_program((rule,))

    def test_unbound_negative_variable_rejected(self):
        rule = Rule(Atom("h", TimeTerm("T", 0), ()),
                    (Atom("p", TimeTerm("T", 0), ()),),
                    negative=(Atom("q", TimeTerm("T", 0),
                                   (Var("X"),)),))
        with pytest.raises(CompileError):
            compile_program((rule,))


class TestProfilingInvariance:
    def test_metrics_observer_does_not_change_the_model(self):
        """Running without and with a MetricsRegistry produces
        identical fact sets (and the registry's credits reconcile)."""
        program = parse_program(REACH, validate=False)
        db = TemporalDatabase(program.facts)
        plain = compiled_fixpoint(program.rules, db, 10)
        stats, registry = EvalStats(), MetricsRegistry()
        observed = compiled_fixpoint(program.rules, db, 10,
                                     instruments=Instruments(stats=stats,
                                                             metrics=registry))
        assert observed == plain
        assert set(observed.facts()) == set(plain.facts())
        assert registry.total_new_facts == stats.facts_derived

    def test_stats_observer_does_not_change_the_model(self):
        program = parse_program(REACH, validate=False)
        db = TemporalDatabase(program.facts)
        plain = compiled_fixpoint(program.rules, db, 10)
        observed = compiled_fixpoint(
            program.rules, db, 10, instruments=Instruments(stats=EvalStats()))
        assert observed == plain
