"""Derivation explanations: why is a fact in the least model?

A production deductive database must be able to justify its answers.
Given a computed window model, :func:`explain` reconstructs a derivation
tree for a ground fact: the rule instance that produced it, recursively
down to database facts.  The reconstruction is a top-down search over
the *already computed* store, so every branch is guaranteed to succeed
for facts that are actually in the model — the search only chooses
among valid supports.

Cycles (a fact transitively "supporting" itself, which can happen in the
search space even though every true derivation is well-founded) are
avoided by keeping the current path as a guard set; the search then
falls back to alternative rule instances.  For rules with negative
literals (the stratified extension) the negated facts are recorded as
``absent`` leaves — they are justified by the Closed World Assumption,
not by a derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from ..datalog.engine import plan_order
from ..lang.atoms import Atom, Fact
from ..lang.errors import EvaluationError
from ..lang.rules import Rule
from ..lang.subst import instantiate_head, join, match_atom
from .store import TemporalStore


@dataclass
class Derivation:
    """A node of a derivation tree.

    ``kind`` is ``"database"`` (an extensional leaf), ``"rule"`` (an
    application of ``rule`` to the ``premises``), or ``"absent"`` (a
    negated premise, true by CWA).
    """

    fact: Fact
    kind: str
    rule: Union[Rule, None] = None
    premises: list["Derivation"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        if not self.premises:
            return 1
        return 1 + max(p.depth for p in self.premises)

    def leaves(self) -> list[Fact]:
        """The extensional facts this derivation bottoms out in."""
        if self.kind == "database":
            return [self.fact]
        if self.kind == "absent":
            return []
        out: list[Fact] = []
        for premise in self.premises:
            out.extend(premise.leaves())
        return out

    def render(self, indent: str = "") -> str:
        """A human-readable multi-line rendering of the tree."""
        if self.kind == "database":
            line = f"{indent}{self.fact}   [database]"
        elif self.kind == "absent":
            line = f"{indent}not {self.fact}   [closed world]"
        else:
            line = f"{indent}{self.fact}   [by  {self.rule}]"
        parts = [line]
        for premise in self.premises:
            parts.append(premise.render(indent + "    "))
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()


def explain(rules: Sequence[Rule], database: TemporalStore,
            store: TemporalStore, fact: Union[Fact, Atom],
            max_nodes: int = 100_000) -> Derivation:
    """A derivation tree for ``fact`` from the computed ``store``.

    ``database`` supplies the extensional leaves; ``store`` must be a
    model containing ``fact`` (e.g. ``BTResult.store``).  Raises
    :class:`EvaluationError` when the fact is not in the store or no
    well-founded derivation can be reconstructed within ``max_nodes``
    search steps.
    """
    if isinstance(fact, Atom):
        fact = fact.to_fact()
    if fact not in store:
        raise EvaluationError(f"{fact} is not in the model")
    proper = [r for r in rules if not r.is_fact]
    budget = [max_nodes]
    memo: dict[Fact, Derivation] = {}
    result = _search(fact, proper, database, store, frozenset(), memo,
                     budget)
    if result is None:
        raise EvaluationError(
            f"no derivation reconstructed for {fact} within "
            f"{max_nodes} steps"
        )
    return result


def _search(fact: Fact, rules: Sequence[Rule], database: TemporalStore,
            store: TemporalStore, path: frozenset,
            memo: dict, budget: list) -> Union[Derivation, None]:
    if fact in memo:
        return memo[fact]
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    if fact in database:
        node = Derivation(fact, "database")
        memo[fact] = node
        return node
    extended_path = path | {fact}
    for rule in rules:
        if rule.head.pred != fact.pred:
            continue
        binding = _match_head(rule.head, fact)
        if binding is None:
            continue
        order = plan_order(rule.body)
        stores = [store] * len(order)
        for full_binding in join(rule.body, order, stores, dict(binding)):
            premises = _try_premises(rule, full_binding, rules,
                                     database, store, extended_path,
                                     memo, budget)
            if premises is not None:
                node = Derivation(fact, "rule", rule=rule,
                                  premises=premises)
                memo[fact] = node
                return node
    return None


def _try_premises(rule: Rule, binding, rules, database, store,
                  path: frozenset, memo, budget
                  ) -> Union[list, None]:
    premises: list[Derivation] = []
    for atom in rule.body:
        premise_fact = instantiate_head(atom, binding)
        if premise_fact in path:
            return None  # would not be well-founded; try another support
        sub = _search(premise_fact, rules, database, store, path, memo,
                      budget)
        if sub is None:
            return None
        premises.append(sub)
    for atom in rule.negative:
        absent = instantiate_head(atom, binding)
        if absent in store:
            return None
        premises.append(Derivation(absent, "absent"))
    return premises


def _match_head(head: Atom, fact: Fact):
    """Bind the head pattern against a ground fact, or None."""
    return match_atom(head, fact, {})
