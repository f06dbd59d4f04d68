"""Slice-oriented storage for temporal interpretations.

The periodicity definitions of the paper (Section 3.2) quantify over
*states* ``M[t]`` — the non-temporal projection of all facts at timepoint
``t``.  :class:`TemporalStore` therefore keeps temporal facts grouped by
``(predicate, timepoint)``, making states O(slice) to extract and compare,
and keeps the non-temporal part ``M_nt`` in a separate
:class:`~repro.datalog.facts.FactStore`.

Like :class:`FactStore`, lookups on bound argument positions build lazy
hash indexes that are maintained incrementally, so semi-naive joins stay
cheap across rounds.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from ..datalog.facts import ArgTuple, FactStore
from ..lang.atoms import Fact
from ..lang.subst import Binding, bound_key, extend_args

#: A state M[t]: the set of (predicate, args) pairs holding at time t.
State = frozenset[tuple[str, ArgTuple]]

EMPTY_STATE: State = frozenset()


class TemporalStore:
    """A mutable set of temporal + non-temporal ground facts."""

    def __init__(self, facts: Iterable[Fact] = ()):
        # pred -> time -> set of arg tuples
        self._slices: dict[str, dict[int, set[ArgTuple]]] = {}
        self._nt = FactStore()
        #: Optional EvalStats accumulator counting index hits/misses;
        #: attached by the engines, never copied with the store.
        self.stats = None
        # (pred, time) -> {positions: {key: [args]}} — keyed by slice so
        # insertion only maintains its own slice's indexes.
        self._indexes: dict[tuple[str, int],
                            dict[tuple[int, ...],
                                 dict[ArgTuple, list[ArgTuple]]]] = {}
        self._count_temporal = 0
        for fact in facts:
            self.add_fact(fact)

    # -- mutation ----------------------------------------------------------

    def add(self, pred: str, time: Union[int, None],
            args: ArgTuple) -> bool:
        """Insert a fact; returns True when it was not already present."""
        if time is None:
            return self._nt.add(pred, args)
        by_time = self._slices.setdefault(pred, {})
        relation = by_time.setdefault(time, set())
        if args in relation:
            return False
        relation.add(args)
        self._count_temporal += 1
        slice_indexes = self._indexes.get((pred, time))
        if slice_indexes:
            for positions, index in slice_indexes.items():
                key = tuple(args[p] for p in positions)
                index.setdefault(key, []).append(args)
        return True

    def add_fact(self, fact: Fact) -> bool:
        return self.add(fact.pred, fact.time, fact.args)

    def discard(self, pred: str, time: Union[int, None],
                args: ArgTuple) -> bool:
        """Remove a fact; returns True when it was present.

        Indexes on the affected slice are dropped and rebuilt lazily.
        """
        if time is None:
            return self._nt.discard(pred, args)
        by_time = self._slices.get(pred)
        if by_time is None:
            return False
        relation = by_time.get(time)
        if relation is None or args not in relation:
            return False
        relation.discard(args)
        self._count_temporal -= 1
        self._indexes.pop((pred, time), None)
        return True

    def discard_fact(self, fact: Fact) -> bool:
        return self.discard(fact.pred, fact.time, fact.args)

    # -- lookup ------------------------------------------------------------

    def contains(self, pred: str, time: Union[int, None],
                 args: ArgTuple) -> bool:
        if time is None:
            return self._nt.contains(pred, args)
        by_time = self._slices.get(pred)
        if by_time is None:
            return False
        relation = by_time.get(time)
        return relation is not None and args in relation

    def __contains__(self, fact: Fact) -> bool:
        return self.contains(fact.pred, fact.time, fact.args)

    def lookup_at(self, pred: str, time: int, positions: tuple[int, ...],
                  key: ArgTuple) -> list[ArgTuple]:
        """Tuples of ``pred`` at ``time`` whose ``positions`` equal ``key``."""
        by_time = self._slices.get(pred)
        if by_time is None:
            return []
        relation = by_time.get(time)
        if not relation:
            return []
        if not positions:
            return list(relation)
        slice_indexes = self._indexes.setdefault((pred, time), {})
        index = slice_indexes.get(positions)
        if index is None:
            index = {}
            for args in relation:
                k = tuple(args[p] for p in positions)
                index.setdefault(k, []).append(args)
            slice_indexes[positions] = index
            if self.stats is not None:
                self.stats.index_misses += 1
        elif self.stats is not None:
            self.stats.index_hits += 1
        return index.get(key, [])

    def matches(self, atom, binding: Binding) -> Iterator[Binding]:
        """Extensions of ``binding`` under which ``atom`` holds here (the
        per-atom step of :func:`~repro.lang.subst.join`).

        A non-temporal atom probes the ``nt`` store; a temporal one
        probes one slice when its time is ground or bound, and every
        slice of its predicate (binding the time variable) otherwise.
        """
        positions, key = bound_key(atom, binding)

        if atom.time is None:
            for args in self._nt.lookup(atom.pred, positions, key):
                extended = extend_args(atom.args, args, binding)
                if extended is not None:
                    yield extended
            return

        tt = atom.time
        if tt.var is None:
            times: list[tuple[int, Union[Binding, None]]] = [
                (tt.offset, None)]
        elif tt.var in binding:
            base = binding[tt.var]
            assert isinstance(base, int)
            times = [(base + tt.offset, None)]
        else:
            times = []
            for t in self.times(atom.pred):
                base = t - tt.offset
                if base >= 0:
                    time_binding = dict(binding)
                    time_binding[tt.var] = base
                    times.append((t, time_binding))

        for t, time_binding in times:
            effective = time_binding if time_binding is not None \
                else binding
            for args in self.lookup_at(atom.pred, t, positions, key):
                extended = extend_args(atom.args, args, effective)
                if extended is not None:
                    yield extended

    def times(self, pred: str) -> list[int]:
        """All timepoints at which ``pred`` has at least one tuple."""
        by_time = self._slices.get(pred)
        if by_time is None:
            return []
        return [t for t, rel in by_time.items() if rel]

    @property
    def nt(self) -> FactStore:
        """The non-temporal part ``M_nt``."""
        return self._nt

    def temporal_predicates(self) -> set[str]:
        return set(self._slices)

    def max_time(self) -> int:
        """The largest timepoint carrying a fact; -1 when none do."""
        best = -1
        for by_time in self._slices.values():
            for t, relation in by_time.items():
                if relation and t > best:
                    best = t
        return best

    # -- states, snapshots, segments (Section 3.2) --------------------------

    def state(self, t: int) -> State:
        """The state ``M[t]``: temporal arguments projected out."""
        items: list[tuple[str, ArgTuple]] = []
        for pred, by_time in self._slices.items():
            relation = by_time.get(t)
            if relation:
                items.extend((pred, args) for args in relation)
        return frozenset(items)

    def states(self, t0: int, t1: int) -> list[State]:
        """States ``M[t0] .. M[t1]`` inclusive."""
        return [self.state(t) for t in range(t0, t1 + 1)]

    def snapshot(self, t: int) -> set[Fact]:
        """The snapshot ``M(t)``: all temporal facts at time ``t``."""
        return {
            Fact(pred, t, args)
            for pred, by_time in self._slices.items()
            for args in by_time.get(t, ())
        }

    def segment(self, t0: int, t1: int) -> set[Fact]:
        """The segment ``M(t0...t1)``: all facts at times in [t0, t1]."""
        out: set[Fact] = set()
        for pred, by_time in self._slices.items():
            for t, relation in by_time.items():
                if t0 <= t <= t1:
                    out.update(Fact(pred, t, args) for args in relation)
        return out

    # -- iteration / copying -------------------------------------------------

    def slices(self) -> Iterator[tuple[str, int, set[ArgTuple]]]:
        """Non-empty ``(pred, time, relation)`` triples.

        The raw slice view — no :class:`Fact` objects are materialized,
        which is what bulk importers (the compiled engine's store
        loader) want.  The yielded sets are live; callers must not
        mutate them.
        """
        for pred, by_time in self._slices.items():
            for t, relation in by_time.items():
                if relation:
                    yield pred, t, relation

    def adopt_slices(self, slices: dict[str,
                                        dict[int, set[ArgTuple]]]) -> None:
        """Install many temporal slices in one step.

        The bulk counterpart of repeated :meth:`add` calls, used when
        converting a compiled store's int rows back into facts.  Takes
        ownership of each relation set when the slice is empty here;
        merges (and drops the slice's lazy indexes) otherwise.
        """
        for pred, by_time in slices.items():
            mine = self._slices.setdefault(pred, {})
            for time, relation in by_time.items():
                existing = mine.get(time)
                if existing:
                    self._count_temporal += len(relation - existing)
                    existing |= relation
                    self._indexes.pop((pred, time), None)
                else:
                    mine[time] = relation
                    self._count_temporal += len(relation)

    def temporal_facts(self) -> Iterator[Fact]:
        for pred, by_time in self._slices.items():
            for t, relation in by_time.items():
                for args in relation:
                    yield Fact(pred, t, args)

    def facts(self) -> Iterator[Fact]:
        yield from self.temporal_facts()
        yield from self._nt.facts()

    def truncate(self, horizon: int) -> "TemporalStore":
        """A copy without the temporal facts beyond ``horizon``.

        This is the ``L'(0...m)`` step of algorithm BT (Figure 1); the
        non-temporal part is kept in full.
        """
        clone = TemporalStore()
        for pred, by_time in self._slices.items():
            for t, relation in by_time.items():
                if t <= horizon and relation:
                    clone._slices.setdefault(pred, {})[t] = set(relation)
                    clone._count_temporal += len(relation)
        for fact in self._nt.facts():
            clone._nt.add(fact.pred, fact.args)
        return clone

    def copy(self) -> "TemporalStore":
        clone = TemporalStore()
        for pred, by_time in self._slices.items():
            clone._slices[pred] = {t: set(r) for t, r in by_time.items()}
        clone._count_temporal = self._count_temporal
        for fact in self._nt.facts():
            clone._nt.add(fact.pred, fact.args)
        return clone

    def __len__(self) -> int:
        return self._count_temporal + len(self._nt)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalStore):
            return NotImplemented
        return (set(self.temporal_facts()) == set(other.temporal_facts())
                and self._nt == other._nt)

    def __repr__(self) -> str:
        return (f"TemporalStore({self._count_temporal} temporal + "
                f"{len(self._nt)} non-temporal facts, "
                f"max_time={self.max_time()})")
