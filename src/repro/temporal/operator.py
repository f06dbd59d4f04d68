"""The immediate-consequence operator ``T_{Z∧D}`` for temporal rules.

Section 3.2 of the paper defines, for a set of rules ``Z`` and database
``D``::

    T_{Z∧D}(I) = {A : A = A0·θ, A0 :- A1,...,Ak ∈ Z, Ai·θ ∈ I} ∪ D

and the least model as ``LFP(Z, D) = ⋃ T^i(∅)``.  This module implements

* :func:`step` — one application of ``T_{Z∧D}`` (the naive operator used
  verbatim by algorithm BT, Figure 1), and
* :func:`fixpoint` — the least fixpoint of the operator *truncated to a
  window* ``[0..horizon]``, computed semi-naively with delta stores.

The truncated fixpoint is exactly what BT's repeat-until loop converges
to: facts beyond the window are dropped between rounds, so they can never
contribute to a derivation (a single ``T`` application cannot chain
through them).  The equivalence of the two paths is property-tested.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..datalog.engine import plan_order
from ..lang.atoms import Fact
from ..lang.rules import Rule
from ..lang.subst import Binding, ground, join
from .store import TemporalStore


def negatives_absent(rule: Rule, binding: Binding,
                     store: TemporalStore) -> bool:
    """Check the rule's negative literals against ``store``.

    Sound as a monotone test only when the negated predicates cannot
    gain facts during the ongoing fixpoint — the stratified scheduler
    (:mod:`repro.temporal.stratified`) guarantees that.
    """
    for atom in rule.negative:
        pred, time, args = ground(atom, binding)
        if store.contains(pred, time, args):
            return False
    return True


def step(rules: Sequence[Rule], store: TemporalStore,
         database: Union[TemporalStore, None] = None,
         instruments=None,
         window: Union[int, None] = None) -> TemporalStore:
    """One application of ``T_{Z∧D}``: rule consequences of ``store``,
    unioned with the database ``D`` (per the paper's definition).

    Negative literals (the stratified extension) are checked against the
    input ``store`` — the standard non-monotone immediate-consequence
    operator; iterate it only under a stratified schedule.

    The ``metrics`` registry of ``instruments`` attributes the round's
    work to individual rules (accounting the round itself is the
    caller's part); ``window`` tells the attribution which head times
    the caller will truncate away, so a "new fact" credit matches what
    actually survives the round.
    """
    metrics = instruments.metrics if instruments is not None else None
    out = TemporalStore()
    if database is not None:
        for fact in database.facts():
            out.add_fact(fact)
    for rule in rules:
        if rule.is_fact:
            out.add_fact(rule.head.to_fact())
            continue
        rm = metrics.rule(rule) if metrics is not None else None
        if rm is not None:
            rm.begin_round()
        order = plan_order(rule.body)
        stores = [store] * len(order)
        for binding in join(rule.body, order, stores):
            if rm is not None:
                rm.probes += 1
            if rule.negative and not negatives_absent(rule, binding,
                                                      store):
                continue
            pred, time, args = ground(rule.head, binding)
            if rm is None:
                out.add(pred, time, args)
                continue
            rm.firings += 1
            first = out.add(pred, time, args)
            if window is not None and time is not None and time > window:
                continue  # the caller truncates it; neither new nor dup
            if first and not store.contains(pred, time, args):
                rm.new_facts += 1
            else:
                rm.duplicates += 1
        if rm is not None:
            rm.end_round()
    return out


def check_group(rules: Sequence[Rule]) -> None:
    """Reject a fixpoint group that both negates and derives a predicate
    (the stratified scheduler never builds one)."""
    clash = ({a.pred for r in rules for a in r.negative}
             & {r.head.pred for r in rules})
    if clash:
        from ..lang.errors import EvaluationError
        raise EvaluationError(
            f"predicates {sorted(clash)} are both negated and derived in "
            "one fixpoint group; use stratified_fixpoint"
        )


def add_facts(rules: Sequence[Rule], store, horizon: int,
              instruments=None, delta=None) -> None:
    """Add the window's ground facts among ``rules`` to ``store`` (new
    ones also to ``delta``, and as premise-free support edges)."""
    provenance = instruments.provenance if instruments is not None \
        else None
    for rule in rules:
        if rule.is_fact:
            fact = rule.head.to_fact()
            if fact.time is not None and fact.time > horizon:
                continue
            if store.add_fact(fact):
                if delta is not None:
                    delta.add_fact(fact)
                if provenance is not None:
                    provenance.record(rule, fact, ())


def fixpoint(rules: Sequence[Rule], database: TemporalStore,
             horizon: int,
             max_facts: Union[int, None] = None,
             instruments=None) -> TemporalStore:
    """Least fixpoint of the window-truncated operator, semi-naively.

    Computes the largest set ``L`` of facts with timepoints in
    ``[0..horizon]`` (plus all non-temporal facts) derivable from ``D``
    by rules whose every intermediate fact also lies within the window —
    i.e. the set algorithm BT converges to for window bound ``horizon``.

    Rules may carry negative literals only if the negated predicates are
    not derived by this rule group (the stratified scheduler arranges
    that); violating the precondition raises :class:`EvaluationError`.
    ``instruments`` (a :class:`~repro.obs.instruments.Instruments`, or
    None) receives the run's accounts.
    """
    check_group(rules)
    store = database.truncate(horizon)
    delta = store.copy()
    add_facts(rules, store, horizon, instruments, delta)
    if instruments is not None:
        instruments.start("seminaive", horizon,
                          rules=sum(1 for r in rules if not r.is_fact),
                          initial_facts=len(store))
    continue_fixpoint(rules, store, delta, horizon,
                      max_facts=max_facts, instruments=instruments)
    if instruments is not None:
        instruments.end(facts=len(store))
    return store


def continue_fixpoint(rules: Sequence[Rule], store: TemporalStore,
                      delta: TemporalStore, horizon: int,
                      max_facts: Union[int, None] = None,
                      instruments=None) -> int:
    """Drive the semi-naive loop from an initial ``delta``, in place.

    Every derivation producible from ``store`` that uses at least one
    ``delta`` fact (transitively) is added to ``store``; heads beyond
    ``horizon`` are discarded.  This is both the tail of
    :func:`fixpoint` and the engine of incremental insertion
    (:mod:`repro.temporal.incremental`).  Returns the number of facts
    added.  Each round is accounted to ``instruments``; opening and
    closing the evaluation is the caller's part.

    ``max_facts`` is a resource guard: when the store would exceed it,
    :class:`EvaluationError` is raised rather than exhausting memory —
    useful for untrusted programs whose slices blow up combinatorially.
    """
    metrics = provenance = stats = None
    if instruments is not None:
        metrics = instruments.metrics
        provenance = instruments.provenance
        stats = instruments.stats
    plans: list[tuple] = []
    for rule in rules:
        if rule.is_fact:
            continue
        leads = [(i, plan_order(rule.body, first=i))
                 for i in range(len(rule.body))]
        plans.append((rule, leads,
                      metrics.rule(rule) if metrics is not None else None))

    if stats is not None:
        prev_stats = store.stats
        store.stats = stats
    added = 0
    round_no = 0
    while len(delta):
        round_no += 1
        probes = 0
        new_delta = TemporalStore()
        delta_preds = delta.temporal_predicates()
        delta_preds.update(delta.nt.predicates())
        for rule, leads, rm in plans:
            if rm is not None:
                rm.begin_round()
            for i, order in leads:
                if rule.body[i].pred not in delta_preds:
                    continue
                stores = [delta] + [store] * (len(order) - 1)
                for binding in join(rule.body, order, stores):
                    probes += 1
                    if rm is not None:
                        rm.probes += 1
                    if rule.negative and not negatives_absent(
                            rule, binding, store):
                        continue
                    pred, time, args = ground(rule.head, binding)
                    if rm is not None:
                        rm.firings += 1
                    if time is not None and time > horizon:
                        continue
                    if store.add(pred, time, args):
                        new_delta.add(pred, time, args)
                        added += 1
                        if rm is not None:
                            rm.new_facts += 1
                        if provenance is not None:
                            provenance.record(
                                rule, Fact(pred, time, args),
                                tuple(Fact(*ground(a, binding))
                                      for a in rule.body),
                                tuple(Fact(*ground(a, binding))
                                      for a in rule.negative),
                                round_no)
                    elif rm is not None:
                        rm.duplicates += 1
            if rm is not None:
                rm.end_round()
        if max_facts is not None and len(store) > max_facts:
            from ..lang.errors import EvaluationError
            raise EvaluationError(
                f"model exceeded max_facts={max_facts} within the "
                f"window (currently {len(store)} facts)"
            )
        if instruments is not None:
            instruments.round(round_no, len(new_delta), len(delta),
                              probes, len(store), new_delta.facts())
        delta = new_delta
    if stats is not None:
        store.stats = prev_stats
    return added
