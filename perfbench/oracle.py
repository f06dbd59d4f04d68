"""Reference answers, computed in the benchmark process before timing.

For every template the oracle computes the relational specification
with ``compute_specification(..., engine="seminaive")`` and answers each
pooled query with :func:`repro.core.queries.evaluate` (closed queries)
or :func:`repro.core.queries.answers` (open ones).  Templates whose
requests carry a deadline far below their compute cost are answered on
the degraded path by the server, so their references come from
:func:`repro.core.queries.evaluate_on_model` on a window that covers
the query.  A stamped program renames predicates consistently, so the
template's reference is also the stamped request's reference.
"""

from __future__ import annotations

from repro.core.queries import (answers, evaluate, evaluate_on_model,
                                max_ground_time, parse_query)
from repro.core.spec import compute_specification
from repro.core.tdd import TDD
from repro.serve.service import DEGRADED_WINDOW
from repro.temporal.bt import bt_evaluate


class WrongAnswer(Exception):
    """A response disagreed with its reference: the run fails."""


class DeadlineIgnored(Exception):
    """A request with a deadline far below its cost came back without
    ``degraded: true``: the program did not honour the deadline (and
    the overshoot it would add is not a degraded return time), so the
    run fails."""


def answer_summary(payload: dict) -> tuple:
    """The comparable part of an ``answers`` payload: variables, the
    canonical substitutions (order-free) and the period."""
    names = [name for name, _ in payload["variables"]]
    rows = sorted(tuple(str(row[name]) for name in names)
                  for row in payload["canonical"])
    return (tuple(tuple(v) for v in payload["variables"]), tuple(rows),
            payload["b"], payload["p"])


class Oracle:
    """Reference answers for every (template, query, kind) a workload
    can send."""

    def __init__(self, workload):
        self.expected: dict = {}
        for template in workload.templates.values():
            tdd = TDD.from_text(template.text)
            if template.deadline is not None:
                self._windowed(template, tdd)
                continue
            spec = compute_specification(tdd.rules, tdd.database,
                                         engine="seminaive")
            for text in template.asks + template.quantified:
                query = parse_query(text, tdd.temporal_preds)
                self.expected[(template.name, text, "ask")] = evaluate(
                    query, spec)
            for text in template.opens:
                query = parse_query(text, tdd.temporal_preds)
                result = answers(query, spec)
                names = [name for name, _ in result.variables]
                self.expected[(template.name, text, "answers")] = (
                    answer_summary({
                        "variables": [list(v) for v in result.variables],
                        "canonical": [{n: sub[n] for n in names}
                                      for sub in result],
                        "b": result.b, "p": result.p}))

    def _windowed(self, template, tdd: TDD) -> None:
        queries = [parse_query(text, tdd.temporal_preds)
                   for text in template.asks]
        window = max([DEGRADED_WINDOW, tdd.database.c]
                     + [max_ground_time(q) for q in queries])
        model = bt_evaluate(tdd.rules, tdd.database, window=window)
        for text, query in zip(template.asks, queries):
            self.expected[(template.name, text, "ask")] = (
                evaluate_on_model(query, model))

    def check(self, request, response: dict) -> bool:
        """True when ``response`` is an answer, False when it is a
        non-answer (an error, a refusal, an unrouted request).  Raises
        :class:`WrongAnswer` when the answer disagrees with the
        reference, and :class:`DeadlineIgnored` when a request with a
        deadline was answered off the degraded path."""
        if not isinstance(response, dict) or not response.get("ok"):
            return False
        if request.deadline is not None and not response.get("degraded"):
            raise DeadlineIgnored(
                f"{request.query!r} with deadline {request.deadline} s "
                f"came back without degraded: true")
        expected = self.expected[request.ref]
        answer = response.get("answer")
        if request.kind == "answers":
            try:
                got = answer_summary(answer)
            except (KeyError, TypeError) as exc:
                raise WrongAnswer(f"malformed answers payload for "
                                  f"{request.query!r}: {exc}") from exc
        else:
            got = answer
        if got != expected:
            raise WrongAnswer(
                f"{request.kind} {request.query!r} on template "
                f"{request.ref[0]}: server said {got!r}, reference "
                f"{expected!r}")
        return True
