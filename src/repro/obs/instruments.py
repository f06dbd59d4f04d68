"""One instrument object: the accounts every engine keeps, in one value.

Every engine runs one algorithm family — algorithm BT (Figure 1 of the
paper) and the window fixpoint Theorem 4.1 prices — and keeps one set
of accounts: rounds, deltas, join probes, per-rule credit and support
edges.  An :class:`Instruments` value holds the optional accumulators
they go to (``stats``, ``tracer``, ``metrics``, ``provenance``) and owns
the protocol the engines share: ``start``, ``round`` and ``end`` of an
evaluation, and ``phase`` timing.  Engines take one ``instruments=None``
keyword; callers pass ``None`` — never an empty ``Instruments`` — when
everything is off, so the disabled path allocates nothing.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Iterable, Iterator, Union

#: What :func:`phase` returns when instruments are off (reentrant).
_OFF = nullcontext()


class Instruments:
    """The optional accumulators of one evaluation, and the protocol
    that feeds them (see the module docstring)."""

    __slots__ = ("stats", "tracer", "metrics", "provenance")

    def __init__(self, stats=None, tracer=None, metrics=None,
                 provenance=None) -> None:
        self.stats = stats
        self.tracer = tracer
        self.metrics = metrics
        self.provenance = provenance

    def start(self, engine: str, horizon: Union[int, None] = None,
              rules: Union[int, None] = None,
              initial_facts: Union[int, None] = None) -> None:
        """Open one evaluation on the named engine.

        The stats keep an engine name an outer driver already set, widen
        the horizon and accumulate ``initial_facts``, so a multi-window
        run reads as one.  Given a proper-rule count (``rules``), the
        trace opens with an ``eval_start`` event.
        """
        stats = self.stats
        if stats is not None:
            if not stats.engine:
                stats.engine = engine
            if horizon is not None:
                stats.horizon = (horizon if stats.horizon is None
                                 else max(stats.horizon, horizon))
            if initial_facts is not None:
                stats.extra["initial_facts"] = (
                    stats.extra.get("initial_facts", 0) + initial_facts)
            engine = stats.engine
        if self.tracer is not None and rules is not None:
            event: dict = {"engine": engine, "horizon": horizon,
                           "rules": rules}
            if initial_facts is not None:
                event["initial_facts"] = initial_facts
            self.tracer.emit("eval_start", **event)

    def round(self, number: int, derived: int,
              delta: Union[int, None] = None,
              probes: Union[int, None] = None,
              store: Union[int, None] = None,
              facts: Union[Iterable, None] = None,
              event: Union[dict, None] = None) -> None:
        """Close fixpoint round ``number``: ``derived`` new facts from a
        ``delta`` of that size (if the engine has deltas) and ``probes``
        join probes.  The ``round`` event carries the same numbers plus
        ``store`` unless the engine passes its own ``event``; one
        ``fact`` event follows per Fact in ``facts`` (read only when
        tracing)."""
        stats = self.stats
        if stats is not None:
            stats.record_round(derived, delta)
            if probes:
                stats.join_probes += probes
        tracer = self.tracer
        if tracer is None:
            return
        if event is None:
            event = {} if delta is None else {"delta": delta}
            event["derived"] = derived
            if probes is not None:
                event["probes"] = probes
            if store is not None:
                event["store"] = store
        tracer.emit("round", round=number, **event)
        if facts is not None:
            for fact in facts:
                tracer.emit("fact", pred=fact.pred, time=fact.time,
                            args=list(fact.args))

    def end(self, **event) -> None:
        """Close the evaluation: :meth:`export`, then an ``eval_end``
        trace event carrying ``event``."""
        self.export()
        if self.tracer is not None:
            self.tracer.emit("eval_end", **event)

    def export(self) -> None:
        """Publish the per-rule records and the proof-DAG summary as
        ``stats.extra["rules"]`` / ``["provenance"]`` (cumulative: the
        last export of a multi-stage run has the full picture)."""
        stats = self.stats
        if stats is None:
            return
        if self.metrics is not None:
            stats.extra["rules"] = self.metrics.to_dict()
        if self.provenance is not None:
            stats.extra["provenance"] = self.provenance.stats_dict()

    def note(self, engine: Union[str, None] = None, **extra) -> None:
        """An outer driver (stratified, magic, incremental) names the
        engine and sets ``stats.extra`` counters."""
        stats = self.stats
        if stats is None:
            return
        if engine is not None:
            stats.engine = engine
        stats.extra.update(extra)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a phase of work into ``stats.phase_seconds[name]`` and
        a ``phase`` trace event."""
        t0 = perf_counter()
        try:
            yield
        finally:
            seconds = perf_counter() - t0
            if self.stats is not None:
                self.stats.add_phase(name, seconds)
            if self.tracer is not None:
                self.tracer.emit("phase", name=name,
                                 seconds=round(seconds, 6))


def phase(instruments: Union[Instruments, None], name: str):
    """``instruments.phase(name)``, or a shared no-op context when the
    instruments are off."""
    return _OFF if instruments is None else instruments.phase(name)


__all__ = ["Instruments", "phase"]
