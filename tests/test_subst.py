"""Unit tests for repro.lang.subst: matching, head instantiation and
the one join every engine shares."""

import ast
import itertools
from pathlib import Path

import pytest

from repro.datalog.facts import FactStore
from repro.lang.atoms import Atom, Fact
from repro.lang.subst import (apply_to_atom, instantiate_head, join,
                              match_atom)
from repro.lang.terms import Const, TimeTerm, Var
from repro.temporal.interval_engine import IntervalSet, IntervalStore
from repro.temporal.store import TemporalStore

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestMatchAtom:
    def test_match_binds_time_and_data(self):
        atom = Atom("p", TimeTerm("T", 1), (Var("X"),))
        fact = Fact("p", 5, ("a",))
        binding = match_atom(atom, fact, {})
        assert binding == {"T": 4, "X": "a"}

    def test_negative_base_time_fails(self):
        atom = Atom("p", TimeTerm("T", 3), ())
        assert match_atom(atom, Fact("p", 2, ()), {}) is None

    def test_zero_base_time_matches(self):
        atom = Atom("p", TimeTerm("T", 3), ())
        assert match_atom(atom, Fact("p", 3, ()), {}) == {"T": 0}

    def test_ground_time_must_equal(self):
        atom = Atom("p", TimeTerm(None, 2), ())
        assert match_atom(atom, Fact("p", 2, ()), {}) == {}
        assert match_atom(atom, Fact("p", 3, ()), {}) is None

    def test_existing_binding_respected(self):
        atom = Atom("p", TimeTerm("T", 0), (Var("X"),))
        fact = Fact("p", 5, ("a",))
        assert match_atom(atom, fact, {"T": 5}) == {"T": 5, "X": "a"}
        assert match_atom(atom, fact, {"T": 4}) is None
        assert match_atom(atom, fact, {"X": "b"}) is None

    def test_constant_mismatch(self):
        atom = Atom("p", TimeTerm("T", 0), (Const("a"),))
        assert match_atom(atom, Fact("p", 0, ("b",)), {}) is None

    def test_repeated_variable_must_agree(self):
        atom = Atom("p", TimeTerm("T", 0), (Var("X"), Var("X")))
        assert match_atom(atom, Fact("p", 0, ("a", "a")), {}) is not None
        assert match_atom(atom, Fact("p", 0, ("a", "b")), {}) is None

    def test_predicate_and_arity_mismatch(self):
        atom = Atom("p", TimeTerm("T", 0), (Var("X"),))
        assert match_atom(atom, Fact("q", 0, ("a",)), {}) is None
        assert match_atom(atom, Fact("p", 0, ("a", "b")), {}) is None

    def test_temporality_mismatch(self):
        temporal = Atom("p", TimeTerm("T", 0), ())
        assert match_atom(temporal, Fact("p", None, ()), {}) is None
        non_temporal = Atom("p", None, ())
        assert match_atom(non_temporal, Fact("p", 0, ()), {}) is None

    def test_input_binding_not_mutated(self):
        atom = Atom("p", TimeTerm("T", 0), (Var("X"),))
        original = {}
        match_atom(atom, Fact("p", 1, ("a",)), original)
        assert original == {}


class TestApplyAndInstantiate:
    def test_apply_partial_binding(self):
        atom = Atom("p", TimeTerm("T", 2), (Var("X"), Var("Y")))
        result = apply_to_atom(atom, {"T": 3, "X": "a"})
        assert result == Atom("p", TimeTerm(None, 5),
                              (Const("a"), Var("Y")))

    def test_instantiate_head_full(self):
        atom = Atom("p", TimeTerm("T", 1), (Var("X"),))
        fact = instantiate_head(atom, {"T": 4, "X": "a"})
        assert fact == Fact("p", 5, ("a",))

    def test_instantiate_head_non_temporal(self):
        atom = Atom("r", None, (Var("X"), Const("b")))
        assert instantiate_head(atom, {"X": "a"}) == Fact(
            "r", None, ("a", "b"))

    def test_instantiate_missing_binding_raises(self):
        atom = Atom("p", TimeTerm("T", 0), (Var("X"),))
        with pytest.raises(KeyError):
            instantiate_head(atom, {"T": 0})


def _atom(pred, time, *args):
    """``time`` is None, a timepoint, or ``(var, offset)``; upper-case
    args are variables."""
    if isinstance(time, int):
        time = TimeTerm(None, time)
    elif time is not None:
        time = TimeTerm(*time)
    return Atom(pred, time, tuple(Var(a) if a[0].isupper() else Const(a)
                                  for a in args))


FACTS = [Fact("p", t, args) for t, args in (
    (0, ("a", "b")), (1, ("a", "a")), (2, ("b", "a")), (3, ("a", "b")),
    (3, ("b", "b")), (5, ("a", "a")))] + [
    Fact("q", t, (x,)) for t, x in ((1, "a"), (3, "b"), (5, "a"), (7, "a"))
] + [Fact("r", None, args) for args in (
    ("a", "b"), ("b", "b"), ("a", "a"), ("b", "c"))]

#: (body, pre-binding): constants, repeated variables, ground times,
#: ``T+k`` offsets, and bindings fixed before the join starts.
BODIES = [
    ([_atom("p", ("T", 0), "X", "Y"), _atom("q", ("T", 0), "X")], {}),
    ([_atom("p", ("T", 0), "X", "X")], {}),
    ([_atom("p", ("T", 0), "a", "Y"), _atom("r", None, "Y", "Z")], {}),
    ([_atom("q", ("T", 2), "X"), _atom("p", ("T", 0), "X", "Y")], {}),
    ([_atom("p", 3, "X", "Y"), _atom("r", None, "X", "Y")], {}),
    ([_atom("r", None, "X", "Y"), _atom("r", None, "Y", "X")], {}),
    ([_atom("r", None, "X", "X")], {}),
    ([_atom("q", ("T", 1), "X"), _atom("r", None, "X", "Y")], {"X": "a"}),
    ([_atom("p", ("T", 0), "X", "Y"), _atom("q", ("T", 2), "X")],
     {"T": 3}),
]


def _brute_force(body, facts, binding):
    """Every binding that extends ``binding`` and matches the body
    atoms in textual order, one fact at a time."""
    if not body:
        return [binding]
    found = []
    for fact in facts:
        extended = match_atom(body[0], fact, binding)
        if extended is not None:
            found += _brute_force(body[1:], facts, extended)
    return found


def _intervals(facts):
    store = IntervalStore()
    times = {}
    for fact in facts:
        if fact.time is None:
            store.nt.add(fact.pred, fact.args)
        else:
            times.setdefault((fact.pred, fact.args), []).append(fact.time)
    for (pred, args), points in times.items():
        store.merge(pred, args, IntervalSet.from_points(points))
    return store


def _data_projection(body, facts):
    """The interval store matches data arguments only: its reference
    is the time-free projection of body and facts."""
    return ([Atom(a.pred, None, a.args) for a in body],
            list({Fact(f.pred, None, f.args) for f in facts}))


def _canonical(bindings):
    return sorted(sorted(b.items()) for b in bindings)


@pytest.mark.parametrize("kind,case", [
    (kind, case) for case, (body, _) in enumerate(BODIES)
    for kind in ("fact", "temporal", "interval")
    # A FactStore holds non-temporal facts only.
    if kind != "fact" or all(a.time is None for a in body)])
def test_join_equals_brute_force_matching(kind, case):
    """``join`` over each store kind, in every atom order, finds exactly
    the bindings that matching the atoms one fact at a time finds."""
    body, pre = BODIES[case]
    if kind == "fact":
        ref_body, ref_facts = body, [f for f in FACTS if f.time is None]
        store = FactStore(ref_facts)
    elif kind == "temporal":
        store, ref_body, ref_facts = TemporalStore(FACTS), body, FACTS
    else:
        store = _intervals(FACTS)
        ref_body, ref_facts = _data_projection(body, FACTS)
    expected = _canonical(_brute_force(ref_body, ref_facts, dict(pre)))
    assert expected, "a case that matches nothing shows nothing"
    for order in itertools.permutations(range(len(body))):
        given = dict(pre)
        found = list(join(body, order, [store] * len(body), given))
        assert _canonical(found) == expected, order
        assert given == pre, "the pre-binding must not be mutated"


def _own_nodes(function):
    """The nodes of ``function``'s body, not of functions nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (ast.FunctionDef,
                                               ast.AsyncFunctionDef,
                                               ast.Lambda)))


def _over_args(node):
    return isinstance(node, ast.Attribute) and node.attr == "args"


def _isinstance_of(node, names):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Name)
            and node.args[1].id in names)


def _calls_over_args(nodes, builtin):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == builtin and n.args and _over_args(n.args[0])
               for n in nodes)


#: Matchers of something other than a ground tuple (free call-pattern
#: slots, adornments, atom against atom, variable renaming).
NOT_GROUND_MATCHERS = {
    ("temporal/topdown.py", "_pattern_of"),
    ("temporal/topdown.py", "_bind_head"),
    ("core/magic.py", "_rewrite_rule"),
    ("analysis/checks.py", "_match_atom"),
    ("lang/rules.py", "rename"),
    ("lang/rules.py", "rename_atom"),
}


def test_argument_matching_keys_and_grounding_live_in_subst():
    """One join core: outside ``lang/subst.py`` no function matches data
    arguments against a tuple, builds a bound-position index key, or
    grounds an atom's arguments — those steps are ``extend_args``,
    ``bound_key`` and ``ground``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "lang/subst.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            if (rel, function.name) in NOT_GROUND_MATCHERS:
                continue
            nodes = list(_own_nodes(function))
            tests_const = any(_isinstance_of(n, {"Const"}) for n in nodes)
            names_const = any(isinstance(n, ast.Name) and n.id == "Const"
                              for n in nodes)
            kinds = []
            if tests_const and _calls_over_args(nodes, "zip"):
                kinds.append("matches data arguments")
            if names_const and _calls_over_args(nodes, "enumerate"):
                kinds.append("builds an index key")
            if any(isinstance(n, (ast.GeneratorExp, ast.ListComp))
                   and any(_over_args(g.iter) for g in n.generators)
                   and isinstance(n.elt, ast.IfExp)
                   and _isinstance_of(n.elt.test, {"Var", "Const"})
                   for n in nodes):
                kinds.append("grounds arguments")
            if kinds:
                offenders.append(f"{rel}:{function.lineno} "
                                 f"{function.name}: {', '.join(kinds)}")
    assert not offenders, offenders


def _imported_module(path, node):
    """The absolute module an ``ImportFrom`` in ``path`` names."""
    if not node.level:
        return node.module
    package = ["repro", *path.relative_to(SRC).parent.parts]
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def test_no_module_imports_private_operator_helpers():
    """The join's parts are public in ``lang/subst.py``; nothing reaches
    into the window engine's private names."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and _imported_module(path, node)
                    == "repro.temporal.operator"):
                offenders += [f"{path.relative_to(SRC)}:{node.lineno} "
                              f"{alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert not offenders, offenders
