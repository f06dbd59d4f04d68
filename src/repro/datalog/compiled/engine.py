"""The compiled semi-naive loop: replaying join plans each round.

:func:`compile_program` turns a rule set into a
:class:`CompiledProgram` — one :class:`JoinPlan` per (rule, lead-atom)
pair, a shared :class:`~repro.datalog.compiled.symbols.SymbolTable`, and
the index registry the plans probe.  Compilation is cached (LRU, keyed
on the tuple of proper rules, which hash structurally and ignore source
spans), so the iterative-deepening loop of algorithm BT and repeated
``QueryService`` requests pay it once.

:func:`compiled_fixpoint` is a drop-in for
:func:`repro.temporal.operator.fixpoint`: same signature, same window
truncation, same round structure, and the same accounting rules
(probes per complete binding, firings before the horizon gate, new vs
duplicate).  The model, and so ``facts_derived``, always match the
generic engine.  The per-round accounts need not: both engines let a
round see facts it derived earlier in the same round, so how much lands
in which round depends on set iteration order (and so on
``PYTHONHASHSEED``).  On ``examples/programs/bounded_path.tdd`` the
round counts agree but ``facts_per_round`` and the probe counts
differ.  The differential battery in
``tests/test_compiled_differential.py`` pins the model,
``facts_derived`` and the per-rule credit invariant, plus
``facts_per_round`` on its generated programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Union

from ...lang.atoms import Fact
from ...lang.errors import EvaluationError
from ...lang.rules import Rule
from ...temporal.operator import add_facts, check_group
from .plans import JoinPlan, compile_plan
from .store import CompiledStore
from .symbols import SymbolTable


@dataclass
class CompiledProgram:
    """Everything reusable across evaluations of one rule set."""

    rules: tuple[Rule, ...]  # the proper (non-fact) rules, input order
    symbols: SymbolTable
    plans: tuple[tuple[JoinPlan, ...], ...]  # plans[i] belongs to rules[i]
    registered: dict[str, tuple[tuple[int, ...], ...]]
    #: Lazily compiled provenance-capturing twins of ``plans`` (see
    #: ``compile_plan(..., capture=True)``); built on first use so the
    #: provenance-off path pays nothing.
    _capture: object = field(default=None, repr=False)

    def describe(self) -> list[str]:
        """One line per plan — what ``repro profile`` prints."""
        return [plan.describe()
                for per_rule in self.plans for plan in per_rule]

    def capture_plans(self) -> tuple:
        """Capture variants of every plan, compiled once per program.

        The index registry is already frozen (pass 1 of compilation saw
        every probe), so re-registration is a no-op.
        """
        if self._capture is None:
            def noop(pred, positions):
                return None
            self._capture = tuple(
                tuple(compile_plan(rule, lead, self.symbols, noop,
                                   self.registered.get(rule.head.pred,
                                                       ()),
                                   plan_name=f"_c{k}_{lead}",
                                   capture=True)
                      for lead in range(len(rule.body)))
                for k, rule in enumerate(self.rules)
            )
        return self._capture


@lru_cache(maxsize=128)
def _compile_cached(proper: tuple[Rule, ...]) -> CompiledProgram:
    symbols = SymbolTable()
    registered: dict[str, list[tuple[int, ...]]] = {}

    def register(pred: str, positions: tuple[int, ...]) -> None:
        sets = registered.setdefault(pred, [])
        if positions not in sets:
            sets.append(positions)

    # Pass 1: analyze every plan to learn the full index registry (a
    # head emit must maintain every index on its predicate, including
    # ones demanded by plans analyzed later).
    for k, rule in enumerate(proper):
        for lead in range(len(rule.body)):
            compile_plan(rule, lead, symbols, register, (),
                         plan_name=f"_p{k}_{lead}", render_only=True)
    frozen = {pred: tuple(sets) for pred, sets in registered.items()}
    # Pass 2: render and exec, with head-index maintenance unrolled.
    plans = tuple(
        tuple(compile_plan(rule, lead, symbols, register,
                           frozen.get(rule.head.pred, ()),
                           plan_name=f"_p{k}_{lead}")
              for lead in range(len(rule.body)))
        for k, rule in enumerate(proper)
    )
    return CompiledProgram(rules=proper, symbols=symbols, plans=plans,
                           registered=frozen)


def compile_program(rules: Sequence[Rule]) -> CompiledProgram:
    """The compiled form of ``rules`` (facts excluded), LRU-cached."""
    return _compile_cached(tuple(r for r in rules if not r.is_fact))


def _record_captured(provenance, rule, captured, values,
                     round_no: int) -> None:
    """Translate one plan call's captured tuples into support edges.

    ``captured`` rows are ``(head_time, head_row, body, neg)`` with
    interned-int rows; ``values`` resolves ids back to symbols.  Only
    called when provenance is on, so the fast path never sees it.
    """
    head_pred = rule.head.pred
    for ht, hr, body, neg in captured:
        provenance.record(
            rule,
            Fact(head_pred, ht, tuple(values[i] for i in hr)),
            tuple(Fact(p, t, tuple(values[i] for i in r))
                  for p, t, r in body),
            tuple(Fact(p, t, tuple(values[i] for i in r))
                  for p, t, r in neg),
            round_no)


def compiled_fixpoint(rules: Sequence[Rule], database,
                      horizon: int,
                      max_facts: Union[int, None] = None,
                      instruments=None):
    """Least fixpoint of the window-truncated operator, compiled.

    Semantics (and the raised errors) match
    :func:`repro.temporal.operator.fixpoint` exactly; only the inner
    machinery differs.  Returns a fresh
    :class:`~repro.temporal.store.TemporalStore`.

    A ``provenance`` store in ``instruments`` swaps in capture variants
    of the join plans that surface every matched body tuple; without
    one the plain plans run and the round loop is unchanged.
    """
    check_group(rules)
    metrics = provenance = None
    if instruments is not None:
        metrics = instruments.metrics
        provenance = instruments.provenance
    program = compile_program(rules)
    store = CompiledStore(program.symbols, program.registered)
    store.load(database, horizon)
    add_facts(rules, store, horizon, instruments)

    if instruments is not None:
        instruments.start("compiled", horizon, rules=len(program.rules),
                          initial_facts=store.count)

    # Attribute metrics to the *caller's* rule objects: the cached
    # program may hold structurally-equal rules from an earlier caller,
    # and the registry keys records by object identity.
    proper = [r for r in rules if not r.is_fact]
    records = [metrics.rule(r) if metrics is not None else None
               for r in proper]
    # Bind every plan to this store once (baking its relation and index
    # dicts in as argument defaults); the round loop touches only tuples.
    plan_sets = (program.plans if provenance is None
                 else program.capture_plans())
    dispatch = [
        (rm, rule, tuple((plan.lead_pred, plan.bind(store))
                         for plan in per_rule))
        for per_rule, rm, rule in zip(plan_sets, records, proper)
    ]

    # Without per-rule metrics the round loop needs no per-rule
    # bookkeeping; flatten the dispatch (same plan order — execution
    # order is observable through same-round index visibility).
    fast = None
    if metrics is None and provenance is None:
        fast = [pair for _, _, plan_fns in dispatch for pair in plan_fns]
    # No new symbols appear during the rounds (head args project body
    # values), so one resolution serves every captured row.
    values = (program.symbols.resolve_all() if provenance is not None
              else None)

    delta_rel = store.snapshot_rel()
    delta_count = store.count
    round_no = 0
    while delta_count:
        round_no += 1
        probes = 0
        derived = 0
        out: dict = {}
        delta_get = delta_rel.get
        if fast is not None:
            for lead_pred, fn in fast:
                lead_delta = delta_get(lead_pred)
                if not lead_delta:
                    continue
                p, f, new, dup = fn(lead_delta, out, horizon)
                probes += p
                store.count += new
                derived += new
        else:
            for rm, rule, plan_fns in dispatch:
                if rm is not None:
                    rm.begin_round()
                for lead_pred, fn in plan_fns:
                    lead_delta = delta_get(lead_pred)
                    if not lead_delta:
                        continue
                    if provenance is None:
                        p, f, new, dup = fn(lead_delta, out, horizon)
                    else:
                        captured: list = []
                        p, f, new, dup = fn(lead_delta, out, horizon,
                                            captured)
                        if captured:
                            _record_captured(provenance, rule,
                                             captured, values,
                                             round_no)
                    probes += p
                    store.count += new
                    derived += new
                    if rm is not None:
                        rm.probes += p
                        rm.firings += f
                        rm.new_facts += new
                        rm.duplicates += dup
                if rm is not None:
                    rm.end_round()
        if max_facts is not None and store.count > max_facts:
            raise EvaluationError(
                f"model exceeded max_facts={max_facts} within the "
                f"window (currently {store.count} facts)"
            )
        if instruments is not None:
            instruments.round(round_no, derived, delta_count, probes,
                              store.count,
                              _round_facts(out, program.symbols))
        delta_rel = out
        delta_count = derived

    if instruments is not None:
        instruments.end(facts=store.count)
    return store.to_temporal_store()


def _round_facts(out: dict, symbols: SymbolTable):
    """The facts of one round's ``out``, resolved lazily (tracing only)."""
    values = symbols.resolve_all()
    for pred, slices in out.items():
        for time, rows in slices.items():
            for row in rows:
                yield Fact(pred, time, tuple(values[i] for i in row))


__all__ = ["CompiledProgram", "compile_program", "compiled_fixpoint"]
