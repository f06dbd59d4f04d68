"""Bottom-up evaluation of function-free Datalog (the classical substrate).

Two engines over :class:`~repro.datalog.facts.FactStore`:

* :func:`naive_evaluate` — iterate the full immediate-consequence operator
  ``T_S`` to fixpoint; the reference implementation used in tests and in
  the boundedness utilities (Theorem 6.2 talks about ``T_S^k(∅)``).
* :func:`seminaive_evaluate` — standard semi-naive evaluation with delta
  relations and greedy join ordering; the production path.

Rule bodies are enumerated by the one join of :mod:`repro.lang.subst`
(shared with the temporal engines) in the order :func:`plan_order`
picks; each atom probes a lazily-built hash index of :class:`FactStore`
on its bound positions.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from ..lang.atoms import Fact
from ..lang.errors import ValidationError
from ..lang.rules import Rule
from ..lang.subst import Binding, ground, join
from .facts import ArgTuple, FactStore


def check_datalog(rules: Sequence[Rule]) -> None:
    """Ensure the rules are plain Datalog: no temporal atoms anywhere."""
    for rule in rules:
        for atom in rule.atoms():
            if atom.time is not None:
                raise ValidationError(
                    f"rule {rule} contains temporal atom {atom}; "
                    "the Datalog engine is function-free"
                )
        if not rule.is_fact and not rule.is_range_restricted:
            raise ValidationError(f"rule {rule} is not range-restricted")
        if not rule.is_safe:
            raise ValidationError(
                f"rule {rule} is not safe: negative literals must be "
                "bound by positive ones"
            )


def _negatives_absent(rule: Rule, binding: Binding,
                      store: FactStore) -> bool:
    """Check the rule's negative literals against ``store`` — sound
    when the negated predicates are frozen (stratified scheduling)."""
    for atom in rule.negative:
        pred, _, args = ground(atom, binding)
        if store.contains(pred, args):
            return False
    return True


def plan_order(body: Sequence, first: Union[int, None] = None) -> list[int]:
    """Greedy join order over body atoms, cheapest-first.

    Returns indexes into ``body``.  When ``first`` is given, that atom
    leads (used by semi-naive evaluation to put the delta atom first).
    Ordering delegates to the static cost model
    (:func:`repro.analysis.static.cost.cost_order`): at each step the
    atom with the fewest expected matches under the current bindings is
    chosen; ties break towards textual order.  Every engine (generic
    and compiled) routes through this function, so same-round index
    visibility — which depends on join order — stays identical across
    engines.
    """
    from ..analysis.static.cost import cost_order
    return list(cost_order(body, first=first).order)


def _record_support(provenance, rule: Rule, pred: str, args: ArgTuple,
                    binding: Binding, round_no: int) -> None:
    """Materialize the rule instance behind one new fact and record it.

    Only called when a provenance store is attached, so the disabled
    path never builds premise facts.
    """
    provenance.record(rule, Fact(pred, None, args),
                      tuple(Fact(*ground(a, binding)) for a in rule.body),
                      tuple(Fact(*ground(a, binding))
                            for a in rule.negative), round_no)


def immediate_consequences(rules: Sequence[Rule],
                           store: FactStore,
                           instruments=None) -> FactStore:
    """One application of the immediate-consequence operator ``T_S``.

    Returns ``T_S(store)`` *including* the facts re-derivable from rules
    with empty bodies; the caller unions in the EDB as the paper's
    operator definition does.

    With a ``metrics`` registry in ``instruments``, a new fact is
    credited to its *first* producer in rule order (later producers of
    the same fact count duplicates), so per-rule ``new_facts`` sums to
    the round's growth.
    """
    metrics = instruments.metrics if instruments is not None else None
    out = FactStore()
    for rule in rules:
        rm = metrics.rule(rule) if metrics is not None else None
        if rule.is_fact:
            pred, _, args = ground(rule.head, {})
            if rm is None:
                out.add(pred, args)
                continue
            rm.firings += 1
            if out.add(pred, args) and not store.contains(pred, args):
                rm.new_facts += 1
            else:
                rm.duplicates += 1
            continue
        if rm is not None:
            rm.begin_round()
        order = plan_order(rule.body)
        stores = [store] * len(order)
        for binding in join(rule.body, order, stores):
            if rm is not None:
                rm.probes += 1
            if rule.negative and not _negatives_absent(rule, binding,
                                                       store):
                continue
            pred, _, args = ground(rule.head, binding)
            if rm is None:
                out.add(pred, args)
                continue
            rm.firings += 1
            if out.add(pred, args) and not store.contains(pred, args):
                rm.new_facts += 1
            else:
                rm.duplicates += 1
        if rm is not None:
            rm.end_round()
    return out


def _naive_group(rules: Sequence[Rule], store: FactStore,
                 max_iterations: Union[int, None] = None,
                 instruments=None) -> None:
    """Naive iteration of one (stratum's) rule group, in place."""
    iterations = 0
    while True:
        iterations += 1
        if max_iterations is not None and iterations > max_iterations:
            break
        derived = immediate_consequences(rules, store,
                                         instruments=instruments)
        changed = 0
        for fact in derived.facts():
            if store.add(fact.pred, fact.args):
                changed += 1
        if instruments is not None:
            instruments.round(iterations, changed, store=len(store))
        if not changed:
            break


def _strata(rules: Sequence[Rule]) -> "list[list[Rule]]":
    """One group for definite programs; stratified groups otherwise."""
    if all(rule.is_definite for rule in rules):
        return [list(rules)] if rules else []
    from .depgraph import strata_of_rules
    try:
        groups = strata_of_rules(rules)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    facts = [r for r in rules if r.is_fact]
    if facts and groups:
        groups[0] = facts + groups[0]
    elif facts:
        groups = [facts]
    return groups


def naive_evaluate(rules: Sequence[Rule], edb: Iterable[Fact],
                   max_iterations: Union[int, None] = None,
                   instruments=None) -> FactStore:
    """The (perfect) model by naive iteration, stratum by stratum.

    For definite programs this is the least fixpoint ``⋃ T_S^i(∅) ∪ D``;
    programs with (stratifiable) negation get the standard perfect-model
    semantics.
    """
    check_datalog(rules)
    store = FactStore(edb)
    if instruments is not None:
        instruments.start("datalog_naive", initial_facts=len(store))
        store.stats = instruments.stats
    for group in _strata(rules):
        _naive_group(group, store, max_iterations,
                     instruments=instruments)
    if instruments is not None:
        instruments.export()
    store.stats = None
    return store


def _seminaive_group(rules: Sequence[Rule], store: FactStore,
                     instruments=None) -> None:
    """Semi-naive iteration of one (stratum's) rule group, in place."""
    metrics = provenance = None
    if instruments is not None:
        metrics = instruments.metrics
        provenance = instruments.provenance
    # Round 0 below joins against the full store, so the initial delta
    # only needs the facts it introduces.  It is recorded as round 0 in
    # stats/trace so facts_derived reconciles with the final store size
    # and per-rule new_facts credits stay exhaustive.
    initial = len(store)
    delta = FactStore()
    for rule in rules:
        if rule.is_fact:
            rm = metrics.rule(rule) if metrics is not None else None
            pred, _, args = ground(rule.head, {})
            if rm is not None:
                rm.firings += 1
            if store.add(pred, args):
                delta.add(pred, args)
                if rm is not None:
                    rm.new_facts += 1
                if provenance is not None:
                    provenance.record(rule, Fact(pred, None, args), ())
            elif rm is not None:
                rm.duplicates += 1
    # Per rule: its record, the full-store plan of round 0, and the
    # plans that lead with each body position for the delta rounds.
    plans = [(rule, metrics.rule(rule) if metrics is not None else None,
              plan_order(rule.body),
              [(i, plan_order(rule.body, first=i))
               for i in range(len(rule.body))])
             for rule in rules if not rule.is_fact]
    round_no = 0
    probes = _fire_round(plans, store, None, delta, round_no, provenance)
    if instruments is not None:
        instruments.round(0, len(delta), initial, probes, len(store))
    while len(delta):
        round_no += 1
        new_delta = FactStore()
        probes = _fire_round(plans, store, delta, new_delta, round_no,
                             provenance)
        if instruments is not None:
            instruments.round(round_no, len(new_delta), len(delta),
                              probes, len(store))
        delta = new_delta


def _fire_round(plans, store: FactStore, delta: Union[FactStore, None],
                out: FactStore, round_no: int, provenance) -> int:
    """Fire every rule once, adding its new heads to ``store`` and
    ``out``; returns the join probes.  ``delta=None`` is round 0: each
    rule joins the full store once; otherwise each plan leads with a
    ``delta`` atom."""
    probes = 0
    delta_preds = delta.predicates() if delta is not None else None
    for rule, rm, full, leads in plans:
        if rm is not None:
            rm.begin_round()
        if delta is None:
            joins = [(full, [store] * len(full))]
        else:
            joins = [(order, [delta] + [store] * (len(order) - 1))
                     for i, order in leads
                     if rule.body[i].pred in delta_preds]
        for order, stores in joins:
            for binding in join(rule.body, order, stores):
                probes += 1
                if rm is not None:
                    rm.probes += 1
                if rule.negative and not _negatives_absent(
                        rule, binding, store):
                    continue
                pred, _, args = ground(rule.head, binding)
                if rm is not None:
                    rm.firings += 1
                if store.add(pred, args):
                    out.add(pred, args)
                    if rm is not None:
                        rm.new_facts += 1
                    if provenance is not None:
                        _record_support(provenance, rule, pred, args,
                                        binding, round_no)
                elif rm is not None:
                    rm.duplicates += 1
        if rm is not None:
            rm.end_round()
    return probes


def seminaive_evaluate(rules: Sequence[Rule], edb: Iterable[Fact],
                       instruments=None) -> FactStore:
    """The (perfect) model by semi-naive iteration with delta relations.

    Matches :func:`naive_evaluate` (property-tested); programs with
    stratifiable negation are scheduled stratum by stratum so the
    negation checks stay stable within each fixpoint.  A provenance
    store in ``instruments`` records a support edge for every derived
    fact.
    """
    check_datalog(rules)
    store = FactStore(edb)
    if instruments is not None:
        instruments.start("datalog_seminaive", initial_facts=len(store))
        store.stats = instruments.stats
    for group in _strata(rules):
        _seminaive_group(group, store, instruments=instruments)
    if instruments is not None:
        instruments.export()
    store.stats = None
    return store
