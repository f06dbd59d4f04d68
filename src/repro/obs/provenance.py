"""Recorded why-provenance: the proof DAG the engine actually built.

``temporal/explain.py`` reconstructs derivations *after the fact* by
searching the computed model — which re-derives proofs and can go
exponential on negation-heavy programs.  This module records provenance
*during* the fixpoint instead: a :class:`ProvenanceStore` handed to the
engines as the ``provenance`` member of their ``instruments`` captures, for
every derived fact, its first (and optionally all) support edges
``(rule, head, body_facts, round)`` as a compact interned DAG.  On top
of the store sit

* :meth:`ProvenanceStore.derivation` — the recorded minimal proof tree,
  reusing :class:`repro.temporal.explain.Derivation` so rendering is
  shared with the search path (``repro why``);
* :meth:`ProvenanceStore.verify` — independent soundness check of a
  recorded proof against the model (every internal node is a sound rule
  instance, leaves are extensional);
* :func:`why_not` — nearest *failed* rule firings for a fact that is
  **not** in the model (``repro whynot``);
* JSON / DOT export and support-count statistics
  (``stats.extra["provenance"]``).

The same zero-cost discipline as :mod:`repro.obs.metrics` applies: with
no store the engines must not allocate or call anything — a single
``is not None`` test per *new* fact at most.
The test suite asserts this the same way it does for the disabled
metrics path.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence, Union

from ..lang.atoms import Atom, Fact
from .metrics import Histogram


class Support:
    """One recorded support edge: ``rule`` derived ``head`` (implicit —
    the store keys supports by head id) from the positive premises
    ``body`` and the absent negative premises ``neg`` in fixpoint round
    ``round``.  Premises are fact ids into the owning store."""

    __slots__ = ("rule", "body", "neg", "round")

    def __init__(self, rule, body: tuple[int, ...],
                 neg: tuple[int, ...], round_no: int):
        self.rule = rule
        self.body = body
        self.neg = neg
        self.round = round_no


class ProvenanceStore:
    """An interned why-provenance DAG recorded during evaluation.

    Facts are interned to dense integer ids; each derived fact carries
    its first support edge (insertion order makes the DAG acyclic: every
    premise of an edge was added strictly before its head).  With
    ``all_supports=True`` later supports are kept too (the data DRed-
    style deletion needs); the default keeps exactly one proof per fact.

    ``tracer``/``sample`` emit every ``sample``-th recorded edge as a
    schema-4 ``derive`` trace event, bounding trace volume on large
    windows (CLI: ``--trace-provenance N``).
    """

    def __init__(self, all_supports: bool = False, tracer=None,
                 sample: int = 1):
        self.all_supports = all_supports
        self.tracer = tracer
        self.sample = max(1, int(sample))
        self._ids: dict[Fact, int] = {}
        self._facts: list[Fact] = []
        self._edges: dict[int, Support] = {}
        self._more: dict[int, list[Support]] = {}
        self._recorded = 0  # every record() call, for trace sampling

    # -- recording (the engine-facing hot path) -------------------------

    def _intern(self, fact: Fact) -> int:
        fid = self._ids.get(fact)
        if fid is None:
            fid = len(self._facts)
            self._ids[fact] = fid
            self._facts.append(fact)
        return fid

    def record(self, rule, head: Fact, body: Sequence[Fact],
               neg: Sequence[Fact] = (), round_no: int = 0) -> None:
        """Record one support edge for a *newly added* fact.

        Premises are interned before the head, so ids topologically
        order the DAG.  The first support wins; extras are kept only
        under ``all_supports``.
        """
        body_ids = tuple(self._intern(f) for f in body)
        neg_ids = tuple(self._intern(f) for f in neg)
        hid = self._intern(head)
        support = Support(rule, body_ids, neg_ids, round_no)
        if hid not in self._edges:
            self._edges[hid] = support
        elif self.all_supports:
            self._more.setdefault(hid, []).append(support)
        else:
            return  # duplicate first-support; nothing new to trace
        self._recorded += 1
        tracer = self.tracer
        if tracer is not None and self._recorded % self.sample == 0:
            span = rule.span if rule.span is not None else rule.head.span
            tracer.emit(
                "derive", pred=head.pred, time=head.time,
                args=list(head.args), rule=str(rule),
                line=span.line if span is not None else None,
                round=round_no,
                body=[[f.pred, f.time, list(f.args)] for f in body],
                neg=[[f.pred, f.time, list(f.args)] for f in neg])

    def reset(self) -> None:
        """Drop all recorded edges (e.g. before re-running a wider
        window during BT's iterative deepening) but keep configuration."""
        self._ids.clear()
        self._facts.clear()
        self._edges.clear()
        self._more.clear()
        self._recorded = 0

    # -- inspection -----------------------------------------------------

    def __len__(self) -> int:
        """Number of derived facts (facts carrying a support edge)."""
        return len(self._edges)

    def __contains__(self, fact: Fact) -> bool:
        fid = self._ids.get(fact)
        return fid is not None and fid in self._edges

    def fact(self, fid: int) -> Fact:
        return self._facts[fid]

    def supports(self, fact: Fact) -> list[Support]:
        """All recorded supports for ``fact`` (first one first)."""
        fid = self._ids.get(fact)
        if fid is None or fid not in self._edges:
            return []
        return [self._edges[fid]] + self._more.get(fid, [])

    def _ancestors(self, fid: int) -> list[int]:
        """``fid`` plus every premise id reachable from it (first
        supports only), in discovery order."""
        seen = {fid}
        order = [fid]
        stack = [fid]
        while stack:
            sup = self._edges.get(stack.pop())
            if sup is None:
                continue
            for child in sup.body + sup.neg:
                if child not in seen:
                    seen.add(child)
                    order.append(child)
                    stack.append(child)
        return order

    def derivation(self, fact: Union[Fact, Atom], database=None):
        """The recorded minimal proof tree for ``fact``, or ``None``.

        Returns a :class:`repro.temporal.explain.Derivation` (shared
        with the search-based explainer, so rendering and depth work the
        same).  Facts without a recorded edge are extensional leaves
        when ``database`` contains them (or when no database is given);
        otherwise the fact is unknown here and ``None`` is returned so
        callers can fall back to the search.
        """
        from ..temporal.explain import Derivation
        if isinstance(fact, Atom):
            fact = fact.to_fact()
        fid = self._ids.get(fact)
        if fid is None or fid not in self._edges:
            if database is not None:
                return (Derivation(fact, "database")
                        if fact in database else None)
            return Derivation(fact, "database") if fid is not None \
                else None
        memo: dict[int, object] = {}
        stack = [fid]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            sup = self._edges.get(cur)
            if sup is None:
                memo[cur] = Derivation(self._facts[cur], "database")
                stack.pop()
                continue
            pending = [b for b in sup.body if b not in memo]
            if pending:
                stack.extend(pending)
                continue
            premises = [memo[b] for b in sup.body]
            premises.extend(Derivation(self._facts[n], "absent")
                            for n in sup.neg)
            memo[cur] = Derivation(self._facts[cur], "rule",
                                   rule=sup.rule, premises=premises)
            stack.pop()
        return memo[fid]

    def verify(self, fact: Union[Fact, Atom], database,
               store) -> list[str]:
        """Soundness-check the recorded proof of ``fact`` and return the
        problems found (empty list = the proof checks out).

        Independent of how the proof was recorded: every internal node
        must be a sound instance of its rule (head and premises match
        under one binding, premises in the model, negated premises
        absent), and every leaf must be an extensional ``database``
        fact.
        """
        from ..lang.subst import match_atom
        if isinstance(fact, Atom):
            fact = fact.to_fact()
        fid = self._ids.get(fact)
        if fid is None:
            if fact in database:
                return []
            return [f"{fact}: no recorded derivation and not extensional"]
        problems: list[str] = []
        for nid in self._ancestors(fid):
            node = self._facts[nid]
            sup = self._edges.get(nid)
            if sup is None:
                if node not in database:
                    # a negative premise is justified by absence, not
                    # by being extensional
                    if not self._is_negative_leaf(nid):
                        problems.append(
                            f"leaf {node} is not a database fact")
                continue
            rule = sup.rule
            binding = match_atom(rule.head, node, {})
            if binding is None:
                problems.append(f"{node}: head does not match rule "
                                f"{rule}")
                continue
            if len(sup.body) != len(rule.body):
                problems.append(f"{node}: {len(sup.body)} premises "
                                f"recorded for rule {rule}")
                continue
            ok = True
            for atom, bid in zip(rule.body, sup.body):
                premise = self._facts[bid]
                binding = match_atom(atom, premise, binding)
                if binding is None:
                    problems.append(
                        f"{node}: premise {premise} does not match "
                        f"{atom} of rule {rule}")
                    ok = False
                    break
                if not store.contains(premise.pred, premise.time,
                                      premise.args):
                    problems.append(
                        f"{node}: premise {premise} is not in the model")
                    ok = False
                    break
            if not ok:
                continue
            if len(sup.neg) != len(rule.negative):
                problems.append(f"{node}: {len(sup.neg)} negative "
                                f"premises recorded for rule {rule}")
                continue
            for atom, nid2 in zip(rule.negative, sup.neg):
                absent = self._facts[nid2]
                check = match_atom(atom, absent, binding)
                if check is None:
                    problems.append(
                        f"{node}: absent premise {absent} does not "
                        f"match not {atom} of rule {rule}")
                    break
                if store.contains(absent.pred, absent.time, absent.args):
                    problems.append(
                        f"{node}: negated premise {absent} is in the "
                        "model")
                    break
        return problems

    def _is_negative_leaf(self, fid: int) -> bool:
        """True when ``fid`` only ever appears as a negated premise."""
        for sup in self._all_supports():
            if fid in sup.body:
                return False
        return True

    def _all_supports(self) -> Iterator[Support]:
        yield from self._edges.values()
        for extras in self._more.values():
            yield from extras

    # -- statistics -----------------------------------------------------

    def _depths(self) -> dict[int, int]:
        """Proof depth per fact id (leaf = 1), iteratively memoized."""
        memo: dict[int, int] = {}
        for root in self._edges:
            if root in memo:
                continue
            stack = [root]
            while stack:
                cur = stack[-1]
                if cur in memo:
                    stack.pop()
                    continue
                sup = self._edges.get(cur)
                if sup is None:
                    memo[cur] = 1
                    stack.pop()
                    continue
                pending = [b for b in sup.body if b not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                memo[cur] = 1 + max((memo[b] for b in sup.body),
                                    default=0)
                stack.pop()
        return memo

    def stats_dict(self) -> dict:
        """Support-count statistics for ``stats.extra["provenance"]``:
        interned/derived fact counts, edge count, supports histogram,
        maximum premise in-degree, and DAG depth."""
        in_degree: dict[int, int] = {}
        edges = 0
        supports = Histogram()
        for hid in self._edges:
            count = 1 + len(self._more.get(hid, []))
            supports.record(count)
        for sup in self._all_supports():
            edges += 1
            for bid in sup.body:
                in_degree[bid] = in_degree.get(bid, 0) + 1
        depths = self._depths()
        return {
            "facts": len(self._facts),
            "derived": len(self._edges),
            "edges": edges,
            "max_in_degree": max(in_degree.values(), default=0),
            "depth": max(depths.values(), default=0),
            "supports": supports.to_dict(),
        }

    # -- export ---------------------------------------------------------

    def to_json_dict(self, root: Union[Fact, None] = None) -> dict:
        """The proof DAG as plain JSON data: interned node and edge
        lists, restricted to the ancestors of ``root`` when given."""
        if root is not None:
            fid = self._ids.get(root)
            ids = self._ancestors(fid) if fid is not None else []
        else:
            ids = list(range(len(self._facts)))
        remap = {fid: k for k, fid in enumerate(ids)}
        nodes = []
        for fid in ids:
            fact = self._facts[fid]
            nodes.append({
                "id": remap[fid],
                "pred": fact.pred,
                "time": fact.time,
                "args": list(fact.args),
                "kind": "derived" if fid in self._edges else "leaf",
            })
        edges = []
        for fid in ids:
            for sup in ([self._edges[fid]] + self._more.get(fid, [])
                        if fid in self._edges else []):
                span = (sup.rule.span if sup.rule.span is not None
                        else sup.rule.head.span)
                edges.append({
                    "head": remap[fid],
                    "rule": str(sup.rule),
                    "line": span.line if span is not None else None,
                    "body": [remap[b] for b in sup.body],
                    "neg": [remap[n] for n in sup.neg],
                    "round": sup.round,
                })
        return {"nodes": nodes, "edges": edges}

    def to_json(self, root: Union[Fact, None] = None, indent=2) -> str:
        return json.dumps(self.to_json_dict(root), indent=indent)

    def to_dot(self, root: Union[Fact, None] = None) -> str:
        """The proof DAG in Graphviz DOT (``repro why --format dot``)."""
        data = self.to_json_dict(root)
        lines = ["digraph provenance {", "  rankdir=BT;",
                 '  node [fontname="monospace"];']
        for node in data["nodes"]:
            args = ", ".join(str(a) for a in node["args"])
            inner = args if node["time"] is None else (
                f"{node['time']}, {args}" if args else str(node["time"]))
            label = f"{node['pred']}({inner})" if inner else node["pred"]
            shape = "box" if node["kind"] == "leaf" else "ellipse"
            lines.append(f'  n{node["id"]} [label="{label}", '
                         f"shape={shape}];")
        for edge in data["edges"]:
            tag = (f"line {edge['line']}" if edge["line"] is not None
                   else "rule")
            for bid in edge["body"]:
                lines.append(f'  n{bid} -> n{edge["head"]} '
                             f'[label="{tag}"];')
            for nid in edge["neg"]:
                lines.append(f'  n{nid} -> n{edge["head"]} '
                             f'[label="not ({tag})", style=dashed];')
        lines.append("}")
        return "\n".join(lines)


def render_proof(derivation, path: Union[str, None] = None) -> str:
    """Render a proof tree with ``file:line`` rule spans.

    Like :meth:`Derivation.render` but each rule node carries its source
    location (``path:line``), matching ``repro why``'s output contract.
    """
    def loc(rule) -> str:
        span = rule.span if rule.span is not None else rule.head.span
        if span is None:
            return ""
        prefix = f"{path}:" if path else "line "
        return f"{prefix}{span.line}  "

    parts: list[str] = []

    def walk(node, indent: str) -> None:
        if node.kind == "database":
            parts.append(f"{indent}{node.fact}   [database]")
        elif node.kind == "absent":
            parts.append(f"{indent}not {node.fact}   [closed world]")
        else:
            parts.append(f"{indent}{node.fact}   "
                         f"[by  {loc(node.rule)}{node.rule}]")
        for premise in node.premises:
            walk(premise, indent + "    ")

    walk(derivation, "")
    return "\n".join(parts)


class FailedFiring:
    """One nearest-miss rule firing for an absent fact: the rule, the
    premises that held, and the literal that broke (with its time)."""

    __slots__ = ("rule", "satisfied", "failed", "reason")

    def __init__(self, rule, satisfied: list[Fact], failed: str,
                 reason: str):
        self.rule = rule
        self.satisfied = satisfied
        self.failed = failed
        self.reason = reason

    def to_dict(self) -> dict:
        span = (self.rule.span if self.rule.span is not None
                else self.rule.head.span)
        return {
            "rule": str(self.rule),
            "line": span.line if span is not None else None,
            "satisfied": [str(f) for f in self.satisfied],
            "failed": self.failed,
            "reason": self.reason,
        }


class WhyNotReport:
    """Why a fact is **not** in the model: the candidate rules and, for
    each, the nearest failed firing (deepest satisfied premise prefix)."""

    def __init__(self, fact: Fact, in_model: bool,
                 firings: list[FailedFiring], note: str = ""):
        self.fact = fact
        self.in_model = in_model
        self.firings = firings
        self.note = note

    def to_dict(self) -> dict:
        return {
            "fact": str(self.fact),
            "in_model": self.in_model,
            "note": self.note,
            "firings": [f.to_dict() for f in self.firings],
        }

    def render(self, path: Union[str, None] = None) -> str:
        lines = [f"why not {self.fact}?"]
        if self.note:
            lines.append(f"  {self.note}")
        for firing in self.firings:
            span = (firing.rule.span if firing.rule.span is not None
                    else firing.rule.head.span)
            where = ""
            if span is not None:
                where = (f"{path}:{span.line}" if path
                         else f"line {span.line}")
                where = f" ({where})"
            lines.append(f"  rule{where}: {firing.rule}")
            if firing.satisfied:
                held = ", ".join(str(f) for f in firing.satisfied)
                lines.append(f"    satisfied: {held}")
            lines.append(f"    {firing.reason}: {firing.failed}")
        return "\n".join(lines)


def _instantiate(atom: Atom, binding) -> str:
    """Render ``atom`` with the bound variables substituted — the shape
    of the literal that failed, at its concrete time when known."""
    from ..lang.subst import apply_to_atom
    return str(apply_to_atom(atom, binding))


def why_not(rules, store, fact: Union[Fact, Atom],
            max_nodes: int = 10_000) -> WhyNotReport:
    """Nearest failed rule firings for a fact absent from the model.

    For every rule whose head can produce ``fact``, searches the firing
    space over the computed ``store`` and reports the attempt satisfying
    the longest premise prefix — naming the body literal that broke (or
    the negative literal that blocked), instantiated at its time point.
    """
    from ..lang.subst import ground, instantiate_head, match_atom
    if isinstance(fact, Atom):
        fact = fact.to_fact()
    if fact in store:
        return WhyNotReport(fact, True, [],
                            note="the fact IS in the model "
                                 "(use `repro why`)")
    firings: list[FailedFiring] = []
    candidates = [r for r in rules
                  if not r.is_fact and r.head.pred == fact.pred]
    if not candidates:
        return WhyNotReport(fact, False, [],
                            note=f"no rule derives predicate "
                                 f"{fact.pred!r}")
    budget = [max_nodes]
    for rule in candidates:
        binding = match_atom(rule.head, fact, {})
        if binding is None:
            continue
        best: list[Union[FailedFiring, None]] = [None]
        best_count = [-1]

        def consider(satisfied, failed, reason):
            if len(satisfied) > best_count[0]:
                best_count[0] = len(satisfied)
                best[0] = FailedFiring(rule, list(satisfied), failed,
                                       reason)

        def walk(i, binding, satisfied):
            if budget[0] <= 0:
                return
            if i == len(rule.body):
                for neg in rule.negative:
                    pred, time, args = ground(neg, binding)
                    if store.contains(pred, time, args):
                        consider(satisfied,
                                 str(Fact(pred, time, args)),
                                 "blocked by")
                        return
                consider(satisfied, str(fact),
                         "every premise holds, yet the head is beyond "
                         "the window for")
                return
            matched = False
            for ext in store.matches(rule.body[i], binding):
                budget[0] -= 1
                matched = True
                walk(i + 1, ext,
                     satisfied + [instantiate_head(rule.body[i], ext)])
                if budget[0] <= 0:
                    return
            if not matched:
                consider(satisfied, _instantiate(rule.body[i], binding),
                         "no matching fact for")

        walk(0, binding, [])
        if best[0] is not None:
            firings.append(best[0])
    firings.sort(key=lambda f: len(f.satisfied), reverse=True)
    note = ""
    if not firings:
        note = (f"no instance of any rule head matches {fact} "
                "(the head time offsets exclude this timepoint)")
    return WhyNotReport(fact, False, firings, note=note)
