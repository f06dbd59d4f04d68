"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import io
import json

from repro.lang import parse_program
from repro.obs import (EvalStats, Instruments, JsonLinesSink, ListSink,
                       Tracer)
from repro.obs.instruments import phase
from repro.temporal import TemporalDatabase, bt_evaluate, fixpoint


# ---------------------------------------------------------------------------
# EvalStats
# ---------------------------------------------------------------------------

class TestEvalStats:
    def test_record_round(self):
        stats = EvalStats()
        stats.record_round(derived=3, delta=5)
        stats.record_round(derived=0)
        assert stats.rounds == 2
        assert stats.facts_per_round == [3, 0]
        assert stats.delta_sizes == [5]
        assert stats.facts_derived == 3

    def test_merge_adds_counters_and_concatenates_series(self):
        a = EvalStats(engine="seminaive", rounds=2,
                      facts_per_round=[4, 1], delta_sizes=[4, 5],
                      join_probes=10, index_hits=3, index_misses=1,
                      facts_derived=5, horizon=8)
        b = EvalStats(engine="bt", rounds=1, facts_per_round=[2],
                      delta_sizes=[2], join_probes=4, index_hits=2,
                      index_misses=2, facts_derived=2, horizon=12,
                      period=(3, 4))
        a.merge(b)
        assert a.engine == "bt"
        assert a.rounds == 3
        assert a.facts_per_round == [4, 1, 2]
        assert a.delta_sizes == [4, 5, 2]
        assert a.join_probes == 14
        assert a.index_hits == 5 and a.index_misses == 3
        assert a.facts_derived == 7
        assert a.horizon == 12
        assert a.period == (3, 4)

    def test_merge_keeps_own_fields_when_other_empty(self):
        a = EvalStats(engine="magic", horizon=9, period=(1, 2))
        a.merge(EvalStats())
        assert a.engine == "magic"
        assert a.horizon == 9
        assert a.period == (1, 2)

    def test_merge_accumulates_phases(self):
        a = EvalStats(phase_seconds={"evaluate": 1.0})
        b = EvalStats(phase_seconds={"evaluate": 0.5, "rewrite": 0.25})
        a.merge(b)
        assert a.phase_seconds == {"evaluate": 1.5, "rewrite": 0.25}

    def test_json_round_trip(self):
        stats = EvalStats(engine="bt", rounds=3,
                          facts_per_round=[5, 2, 0],
                          delta_sizes=[5, 5, 2], join_probes=17,
                          index_hits=9, index_misses=4,
                          facts_derived=7, horizon=21, period=(11, 365),
                          phase_seconds={"evaluate": 0.125},
                          extra={"initial_facts": 6})
        loaded = EvalStats.from_json(stats.to_json())
        assert loaded == stats
        # The JSON form is plain (period is a list, not a tuple).
        data = json.loads(stats.to_json())
        assert data["period"] == [11, 365]

    def test_from_dict_tolerates_missing_fields(self):
        stats = EvalStats.from_dict({"engine": "interval"})
        assert stats.engine == "interval"
        assert stats.rounds == 0
        assert stats.period is None

    def test_summary_mentions_key_fields(self):
        stats = EvalStats(engine="bt", rounds=2, facts_per_round=[3, 0],
                          delta_sizes=[3, 3], join_probes=7,
                          horizon=10, period=(2, 5),
                          facts_derived=3)
        text = stats.summary()
        assert "engine:" in text and "bt" in text
        assert "rounds:" in text and "2" in text
        assert "(b=2, p=5)" in text
        assert "horizon:" in text

    def test_summary_caps_long_series(self):
        stats = EvalStats(facts_per_round=list(range(100)))
        text = stats.summary()
        assert "(+84 more)" in text
        assert "99" not in text


# ---------------------------------------------------------------------------
# Tracer and sinks
# ---------------------------------------------------------------------------

class TestTracer:
    def test_list_sink_collects_events(self):
        sink = ListSink()
        tracer = Tracer(sink)
        tracer.emit("round", round=1, derived=4)
        tracer.emit("eval_end")
        assert [e["event"] for e in sink.events] == ["round", "eval_end"]
        assert sink.events[0]["round"] == 1
        assert sink.events[0]["derived"] == 4
        assert all("ts" in e for e in sink.events)

    def test_timestamps_are_monotone(self):
        sink = ListSink()
        tracer = Tracer(sink)
        for _ in range(5):
            tracer.emit("tick")
        stamps = [e["ts"] for e in sink.events]
        assert stamps == sorted(stamps)

    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(None)
        assert not tracer.enabled
        tracer.emit("round", round=1)  # must not raise
        tracer.close()

    def test_jsonlines_sink_to_stream(self):
        buffer = io.StringIO()
        sink = JsonLinesSink(buffer)
        tracer = Tracer(sink)
        tracer.emit("eval_start", engine="bt", horizon=7)
        tracer.emit("round", round=1, derived=2)
        tracer.close()
        lines = buffer.getvalue().strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["event"] for e in events] == ["eval_start", "round"]
        assert events[0]["engine"] == "bt"

    def test_jsonlines_sink_to_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(path)
        tracer = Tracer(sink)
        tracer.emit("phase", name="evaluate", seconds=0.01)
        tracer.close()
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert len(events) == 1
        assert events[0]["event"] == "phase"
        assert events[0]["name"] == "evaluate"


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------

class TestTiming:
    def test_phase_timer_accumulates(self):
        stats = EvalStats()
        instruments = Instruments(stats=stats)
        with instruments.phase("evaluate"):
            pass
        with instruments.phase("evaluate"):
            pass
        assert "evaluate" in stats.phase_seconds
        assert stats.phase_seconds["evaluate"] >= 0.0

    def test_phase_timer_emits_event(self):
        sink = ListSink()
        with Instruments(tracer=Tracer(sink)).phase("rewrite"):
            pass
        assert sink.events[0]["event"] == "phase"
        assert sink.events[0]["name"] == "rewrite"

    def test_phase_timer_none_is_noop(self):
        with phase(None, "anything"):
            pass


# ---------------------------------------------------------------------------
# Instrumentation is inert when disabled
# ---------------------------------------------------------------------------

EVEN = """
even(T+2) :- even(T).
even(0).
"""


class TestDisabledInstrumentation:
    def test_results_identical_with_and_without(self):
        program = parse_program(EVEN)
        db = TemporalDatabase(program.facts)
        plain = fixpoint(program.rules, db, 20)
        sink = ListSink()
        stats = EvalStats()
        traced = fixpoint(program.rules, db, 20,
                          instruments=Instruments(stats=stats,
                                                  tracer=Tracer(sink)))
        assert plain == traced
        assert stats.rounds > 0
        assert sink.events

    def test_bt_result_carries_no_stats_by_default(self):
        program = parse_program(EVEN)
        result = bt_evaluate(program.rules,
                             TemporalDatabase(program.facts))
        assert result.stats is None

    def test_bt_result_carries_stats_when_requested(self):
        program = parse_program(EVEN)
        stats = EvalStats()
        result = bt_evaluate(program.rules,
                             TemporalDatabase(program.facts),
                             instruments=Instruments(stats=stats))
        assert result.stats is stats
        assert stats.engine == "bt"
        assert stats.period is not None
        assert stats.horizon == result.horizon
        assert "evaluate" in stats.phase_seconds
        assert "period_detection" in stats.phase_seconds

    def test_store_stats_hook_is_detached_after_evaluation(self):
        program = parse_program(EVEN)
        db = TemporalDatabase(program.facts)
        store = fixpoint(program.rules, db, 20,
                         instruments=Instruments(stats=EvalStats()))
        assert store.stats is None
        assert db.stats is None

    def test_trace_events_follow_schema(self):
        program = parse_program(EVEN)
        sink = ListSink()
        bt_evaluate(program.rules, TemporalDatabase(program.facts),
                    instruments=Instruments(tracer=Tracer(sink)))
        kinds = {e["event"] for e in sink.events}
        assert {"eval_start", "round", "eval_end",
                "phase", "period"} <= kinds
        for event in sink.events:
            assert "event" in event and "ts" in event
        rounds = [e for e in sink.events if e["event"] == "round"]
        assert all(isinstance(e["round"], int) for e in rounds)
        period = [e for e in sink.events if e["event"] == "period"][-1]
        assert period["b"] >= 0 and period["p"] >= 1
