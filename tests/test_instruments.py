"""The one instrument object: its protocol, and that it stays the only
way to instrument an engine."""

import ast
from pathlib import Path

from repro.lang import parse_program
from repro.obs import EvalStats, Instruments, ListSink, Tracer
from repro.obs.instruments import phase
from repro.temporal import TemporalDatabase, bt_evaluate

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The accumulators an :class:`Instruments` value bundles.
INSTRUMENT_NAMES = {"stats", "tracer", "metrics", "provenance"}


def _parameters(node) -> set:
    args = node.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def test_no_function_takes_more_than_one_instrument_keyword():
    """Engines take one ``instruments`` value, not the accumulators one
    by one; only the module that bundles them names all four."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "instruments.py" and path.parent.name == "obs":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                taken = _parameters(node) & INSTRUMENT_NAMES
                if len(taken) > 1:
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno} "
                        f"{node.name}{sorted(taken)}")
    assert not offenders, offenders


def test_start_keeps_an_outer_engine_name_and_accumulates():
    stats = EvalStats(engine="stratified")
    sink = ListSink()
    instruments = Instruments(stats=stats, tracer=Tracer(sink))
    instruments.start("seminaive", 10, rules=2, initial_facts=3)
    instruments.start("seminaive", 20, rules=2, initial_facts=4)
    assert stats.engine == "stratified"
    assert stats.horizon == 20
    assert stats.extra["initial_facts"] == 7
    assert [e["engine"] for e in sink.events] == ["stratified"] * 2


def test_start_without_a_rule_count_emits_no_event():
    sink = ListSink()
    stats = EvalStats()
    Instruments(stats=stats, tracer=Tracer(sink)).start("topdown", 5)
    assert stats.engine == "topdown" and stats.horizon == 5
    assert sink.events == []


def test_round_feeds_stats_and_trace_alike():
    sink = ListSink()
    stats = EvalStats()
    instruments = Instruments(stats=stats, tracer=Tracer(sink))
    instruments.round(1, 3, delta=2, probes=5, store=9)
    instruments.round(2, 1, event={"merges": 1})
    assert stats.rounds == 2
    assert stats.facts_per_round == [3, 1]
    assert stats.delta_sizes == [2]
    assert stats.join_probes == 5
    first, second = sink.events
    assert {k: first[k] for k in ("round", "delta", "derived", "probes",
                                  "store")} == {
        "round": 1, "delta": 2, "derived": 3, "probes": 5, "store": 9}
    assert set(second) == {"event", "ts", "round", "merges"}


def test_phase_off_is_a_shared_noop():
    assert phase(None, "a") is phase(None, "b")


def test_bt_run_accounts_match_the_trace():
    program = parse_program("even(T+2) :- even(T).\neven(0).\n")
    sink = ListSink()
    stats = EvalStats()
    bt_evaluate(program.rules, TemporalDatabase(program.facts),
                instruments=Instruments(stats=stats, tracer=Tracer(sink)))
    rounds = [e for e in sink.events if e["event"] == "round"]
    assert len(rounds) == stats.rounds
    assert sum(e["derived"] for e in rounds) == stats.facts_derived
    assert sum(e["probes"] for e in rounds) == stats.join_probes
    facts = [e for e in sink.events if e["event"] == "fact"]
    assert len(facts) == stats.facts_derived
    assert stats.engine == "bt"
