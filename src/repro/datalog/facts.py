"""Fact storage for the function-free Datalog engine.

A :class:`FactStore` keeps one set of argument tuples per predicate plus
lazily-built hash indexes on argument positions.  Indexes are created the
first time a join probes a predicate on a given set of bound positions and
are maintained incrementally on insertion, so repeated semi-naive rounds
pay for index construction once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from ..lang.atoms import Fact
from ..lang.subst import Binding, bound_key, extend_args

ArgTuple = tuple[Union[str, int], ...]


class FactStore:
    """A mutable set of ground non-temporal facts with positional indexes."""

    def __init__(self, facts: Iterable[Fact] = ()):
        self._relations: dict[str, set[ArgTuple]] = {}
        # (pred, positions) -> {key_values: [arg_tuples]}
        # pred -> {positions: {key: [args]}} — keyed by predicate so
        # insertion only maintains that predicate's indexes.
        self._indexes: dict[str, dict[tuple[int, ...],
                                      dict[ArgTuple,
                                           list[ArgTuple]]]] = {}
        #: Optional EvalStats accumulator counting index hits/misses;
        #: attached by the engines, never copied with the store.
        self.stats = None
        for fact in facts:
            self.add(fact.pred, fact.args)

    def add(self, pred: str, args: ArgTuple) -> bool:
        """Insert a fact; returns True when it was not already present."""
        relation = self._relations.setdefault(pred, set())
        if args in relation:
            return False
        relation.add(args)
        pred_indexes = self._indexes.get(pred)
        if pred_indexes:
            for positions, index in pred_indexes.items():
                key = tuple(args[p] for p in positions)
                index.setdefault(key, []).append(args)
        return True

    def add_fact(self, fact: Fact) -> bool:
        if fact.time is not None:
            raise ValueError(f"temporal fact {fact} in non-temporal store")
        return self.add(fact.pred, fact.args)

    def discard(self, pred: str, args: ArgTuple) -> bool:
        """Remove a fact; returns True when it was present.

        Indexes on the predicate are dropped and rebuilt lazily on the
        next probe (deletion is rare relative to lookup).
        """
        relation = self._relations.get(pred)
        if relation is None or args not in relation:
            return False
        relation.discard(args)
        self._indexes.pop(pred, None)
        return True

    def contains(self, pred: str, args: ArgTuple) -> bool:
        relation = self._relations.get(pred)
        return relation is not None and args in relation

    def relation(self, pred: str) -> set[ArgTuple]:
        """The (possibly empty) set of tuples of one predicate."""
        return self._relations.get(pred, set())

    def predicates(self) -> set[str]:
        return set(self._relations)

    def lookup(self, pred: str, positions: tuple[int, ...],
               key: ArgTuple) -> list[ArgTuple]:
        """All tuples of ``pred`` whose ``positions`` equal ``key``.

        With empty ``positions`` this returns every tuple of the
        predicate.  Builds (and thereafter maintains) a hash index on the
        requested positions.
        """
        if not positions:
            return list(self._relations.get(pred, ()))
        pred_indexes = self._indexes.setdefault(pred, {})
        index = pred_indexes.get(positions)
        if index is None:
            index = {}
            for args in self._relations.get(pred, ()):
                index_key = tuple(args[p] for p in positions)
                index.setdefault(index_key, []).append(args)
            pred_indexes[positions] = index
            if self.stats is not None:
                self.stats.index_misses += 1
        elif self.stats is not None:
            self.stats.index_hits += 1
        return index.get(key, [])

    def matches(self, atom, binding: Binding) -> Iterator[Binding]:
        """Extensions of ``binding`` under which ``atom`` holds here,
        probing the index on its bound positions (the per-atom step of
        :func:`~repro.lang.subst.join`)."""
        positions, key = bound_key(atom, binding)
        for args in self.lookup(atom.pred, positions, key):
            extended = extend_args(atom.args, args, binding)
            if extended is not None:
                yield extended

    def facts(self) -> Iterator[Fact]:
        """Iterate all facts in no particular order."""
        for pred, relation in self._relations.items():
            for args in relation:
                yield Fact(pred, None, args)

    def copy(self) -> "FactStore":
        clone = FactStore()
        for pred, relation in self._relations.items():
            clone._relations[pred] = set(relation)
        return clone

    def __len__(self) -> int:
        return sum(len(r) for r in self._relations.values())

    def __contains__(self, fact: Fact) -> bool:
        return fact.time is None and self.contains(fact.pred, fact.args)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactStore):
            return NotImplemented
        mine = {p: r for p, r in self._relations.items() if r}
        theirs = {p: r for p, r in other._relations.items() if r}
        return mine == theirs

    def __repr__(self) -> str:
        return f"FactStore({len(self)} facts, {len(self._relations)} preds)"
