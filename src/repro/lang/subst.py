"""Substitutions, matching and the one join of bottom-up evaluation.

Bottom-up evaluation only needs one-sided *matching* of a rule-body atom
against ground facts (no full unification): a binding environment maps data
variables to constant values and the rule's temporal variable (there is at
most one in a semi-normal rule, but we support several) to an integer
timepoint.

Bindings are plain dicts ``{var_name: value}`` shared between both sorts;
the validator guarantees sort disjointness, and temporal bindings are the
only int-typed entries produced by temporal positions.

Every engine enumerates the substitutions ``θ`` of Section 3.2's operator
``T_{Z∧D}(I) = {A0·θ : A0 :- A1,...,Ak ∈ Z, Ai·θ ∈ I} ∪ D`` with one
recursion, :func:`join`.  The store kinds differ only in how they
enumerate the candidates of a single atom: each has a
``matches(atom, binding)`` method built from :func:`bound_key` (the index
key on the atom's bound positions) and :func:`extend_args` (the
data-argument match).  :func:`ground` instantiates heads, premises and
negated literals under a complete binding.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence, Union

from .atoms import Atom, Fact
from .terms import Const, TimeTerm, Var

Binding = dict[str, Union[str, int]]

#: The ground data arguments of a fact.
Values = tuple[Union[str, int], ...]


def extend_args(patterns: Sequence, values: Values,
                binding: Binding) -> Union[Binding, None]:
    """Extend ``binding`` so that the data terms ``patterns`` match the
    ground ``values`` position by position.

    Returns ``None`` on a mismatch, ``binding`` itself when nothing new
    gets bound, and a new dict otherwise — so a probe that only checks
    bound positions allocates nothing.  Callers treat every binding as
    read-only.
    """
    new: Union[Binding, None] = None
    for pattern, value in zip(patterns, values):
        if isinstance(pattern, Const):
            if pattern.value != value:
                return None
        else:
            source = new if new is not None else binding
            bound = source.get(pattern.name)
            if bound is None:
                if new is None:
                    new = dict(binding)
                new[pattern.name] = value
            elif bound != value:
                return None
    return new if new is not None else binding


def bound_key(atom: Atom,
              binding: Binding) -> tuple[tuple[int, ...], Values]:
    """The data positions of ``atom`` that are constants or bound under
    ``binding``, and their values: the key a store's index is probed
    with."""
    positions: list[int] = []
    key: list[Union[str, int]] = []
    for i, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            positions.append(i)
            key.append(arg.value)
        elif arg.name in binding:
            positions.append(i)
            key.append(binding[arg.name])
    return tuple(positions), tuple(key)


def ground(atom: Atom, binding: Mapping[str, Union[str, int]]
           ) -> tuple[str, Union[int, None], Values]:
    """Ground ``atom`` under a binding of all its variables, as
    ``(pred, time, args)``.

    A plain tuple, so a rule firing allocates no :class:`Fact`.  Raises
    :class:`KeyError` if a variable is unbound, which would indicate a
    non-range-restricted rule.
    """
    tt = atom.time
    time: Union[int, None]
    if tt is None:
        time = None
    elif tt.var is None:
        time = tt.offset
    else:
        base = binding[tt.var]
        assert isinstance(base, int)
        time = base + tt.offset
    return atom.pred, time, tuple(
        binding[a.name] if isinstance(a, Var) else a.value
        for a in atom.args
    )


def ground_args(atom, binding: Mapping[str, Union[str, int]]) -> Values:
    """The data arguments of ``atom`` under ``binding``; its time (if
    any) is left alone."""
    return tuple(
        binding[a.name] if isinstance(a, Var) else a.value
        for a in atom.args
    )


def join(body: Sequence[Atom], order: Sequence[int], stores: Sequence,
         binding: Union[Binding, None] = None) -> Iterator[Binding]:
    """Enumerate the bindings that satisfy every atom of ``body``.

    Atoms are visited in ``order`` (indexes into ``body``, as returned by
    :func:`~repro.datalog.engine.plan_order`); ``stores[k]`` enumerates
    the candidates of the atom at ``order[k]`` through its
    ``matches(atom, binding)``.  Passing the delta store at position 0
    and the full store elsewhere is one semi-naive rule firing.
    ``binding`` pre-binds variables (a matched head, say); a yielded
    binding may be that very dict when the body binds nothing new.
    """
    if binding is None:
        binding = {}
    last = len(order)

    def recurse(step: int, binding: Binding) -> Iterator[Binding]:
        if step == last:
            yield binding
            return
        for extended in stores[step].matches(body[order[step]], binding):
            yield from recurse(step + 1, extended)

    return recurse(0, binding)


def match_atom(atom: Atom, fact: Fact,
               binding: Binding) -> Union[Binding, None]:
    """Match ``atom`` against ground ``fact``, extending ``binding``.

    Returns the extended binding (a new dict; the input is not mutated) or
    ``None`` when the match fails.  Temporal terms ``T+k`` match timepoint
    ``t`` only when ``t >= k`` (the language has no negative timepoints).
    """
    if atom.pred != fact.pred or len(atom.args) != len(fact.args):
        return None
    if (atom.time is None) != (fact.time is None):
        return None
    time_var = None
    if atom.time is not None:
        assert fact.time is not None
        tt = atom.time
        if tt.var is None:
            if tt.offset != fact.time:
                return None
        else:
            base = fact.time - tt.offset
            if base < 0:
                return None
            bound = binding.get(tt.var)
            if bound is None:
                time_var = tt.var
            elif bound != base:
                return None
    new = extend_args(atom.args, fact.args, binding)
    if new is None:
        return None
    if new is binding:
        new = dict(binding)
    if time_var is not None:
        new[time_var] = base
    return new


def apply_to_atom(atom: Atom, binding: Mapping[str, Union[str, int]]) -> Atom:
    """Apply a binding to an atom, grounding the bound variables."""
    time = atom.time
    if time is not None and time.var is not None and time.var in binding:
        timepoint = binding[time.var]
        assert isinstance(timepoint, int)
        time = TimeTerm(None, timepoint + time.offset)
    args = tuple(
        Const(binding[a.name])
        if isinstance(a, Var) and a.name in binding else a
        for a in atom.args
    )
    return Atom(atom.pred, time, args)


def instantiate_head(atom: Atom,
                     binding: Mapping[str, Union[str, int]]) -> Fact:
    """Ground a (range-restricted) atom under a complete binding, as a
    :class:`Fact`; see :func:`ground`."""
    return Fact(*ground(atom, binding))
