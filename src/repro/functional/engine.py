"""Bottom-up evaluation of functional deductive databases.

FDDB rules look like TDD rules but the distinguished argument carries
words over a multi-symbol alphabet (:mod:`repro.functional.terms`).
The Herbrand universe within depth ``d`` has ``|Σ|^d`` ground words, so
the engine evaluates the depth-bounded fixpoint: every derived fact
whose word exceeds the bound is discarded — the direct analogue of
algorithm BT's window truncation, with the crucial difference the
paper's Section 7 points at: the bounded universe is *exponential* in
the bound, so no polynomial-window argument can exist.

The API is programmatic (no concrete syntax): build :class:`FAtom` /
:class:`FRule` values directly, as the tests and experiment E13 do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from ..lang.subst import extend_args, ground_args
from ..lang.terms import DataTerm
from .terms import FTerm, Word


@dataclass(frozen=True, slots=True)
class FFact:
    """A ground functional fact: predicate, word, data constants."""

    pred: str
    word: Union[Word, None]
    args: tuple[Union[str, int], ...] = ()

    def __str__(self) -> str:
        parts = []
        if self.word is not None:
            parts.append(str(FTerm(None, self.word)))
        parts.extend(str(a) for a in self.args)
        return f"{self.pred}({', '.join(parts)})" if parts else self.pred


@dataclass(frozen=True, slots=True)
class FAtom:
    """A functional or ordinary atom in a rule."""

    pred: str
    fterm: Union[FTerm, None]
    args: tuple[DataTerm, ...] = ()

    def __str__(self) -> str:
        parts = []
        if self.fterm is not None:
            parts.append(str(self.fterm))
        parts.extend(str(a) for a in self.args)
        return f"{self.pred}({', '.join(parts)})" if parts else self.pred


@dataclass(frozen=True, slots=True)
class FRule:
    head: FAtom
    body: tuple[FAtom, ...] = ()

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}."


Binding = dict[str, object]  # data vars -> value, functional vars -> Word


def _match_atom(atom: FAtom, fact: FFact,
                binding: Binding) -> Union[Binding, None]:
    if atom.pred != fact.pred or len(atom.args) != len(fact.args):
        return None
    if (atom.fterm is None) != (fact.word is None):
        return None
    word_var = None
    if atom.fterm is not None:
        assert fact.word is not None
        matched, word_binding = atom.fterm.matches(fact.word)
        if not matched:
            return None
        if atom.fterm.var is not None:
            bound = binding.get(atom.fterm.var)
            if bound is None:
                word_var = atom.fterm.var
            elif bound != word_binding:
                return None
    new = extend_args(atom.args, fact.args, binding)
    if new is not None and word_var is not None:
        if new is binding:
            new = dict(binding)
        new[word_var] = word_binding
    return new


def _instantiate_head(head: FAtom, binding: Binding) -> FFact:
    word: Union[Word, None]
    if head.fterm is None:
        word = None
    elif head.fterm.var is None:
        word = head.fterm.word
    else:
        base = binding[head.fterm.var]
        assert isinstance(base, tuple)
        word = head.fterm.word + base
    return FFact(head.pred, word, ground_args(head, binding))


def _satisfy(body: Sequence[FAtom], facts: set[FFact],
             binding: Binding) -> Iterator[Binding]:
    if not body:
        yield binding
        return
    first, rest = body[0], body[1:]
    for fact in facts:
        extended = _match_atom(first, fact, binding)
        if extended is not None:
            yield from _satisfy(rest, facts, extended)


def ffixpoint(rules: Sequence[FRule], facts: Iterable[FFact],
              max_depth: int) -> set[FFact]:
    """The depth-bounded least fixpoint of an FDDB.

    Facts whose word is longer than ``max_depth`` are discarded — the
    FDDB analogue of BT's window truncation.
    """
    model: set[FFact] = set()
    for fact in facts:
        if fact.word is None or len(fact.word) <= max_depth:
            model.add(fact)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if not rule.body:
                fact = _instantiate_head(rule.head, {})
                if (fact.word is None or len(fact.word) <= max_depth) \
                        and fact not in model:
                    model.add(fact)
                    changed = True
                continue
            for binding in _satisfy(rule.body, set(model), {}):
                fact = _instantiate_head(rule.head, binding)
                if fact.word is not None and len(fact.word) > max_depth:
                    continue
                if fact not in model:
                    model.add(fact)
                    changed = True
    return model


def word_states(model: Iterable[FFact]) -> dict[Word, frozenset]:
    """The FDDB analogue of states: word ↦ {(pred, args)} holding there.

    For TDDs the number of distinct states is what periodicity bounds;
    for FDDBs the *domain* of this map can already be exponential in the
    depth bound, which is why the Section 4 machinery does not carry
    over (Section 7).
    """
    by_word: dict[Word, set] = {}
    for fact in model:
        if fact.word is not None:
            by_word.setdefault(fact.word, set()).add(
                (fact.pred, fact.args))
    return {word: frozenset(items) for word, items in by_word.items()}
