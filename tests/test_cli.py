"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

EVEN = "even(T+2) :- even(T).\neven(0).\n"

TRAVEL = """
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
offseason(T+10) :- offseason(T).
plane(1, hunter).
resort(hunter).
offseason(0..9).
"""


@pytest.fixture()
def even_file(tmp_path):
    path = tmp_path / "even.tdd"
    path.write_text(EVEN)
    return str(path)


@pytest.fixture()
def travel_file(tmp_path):
    path = tmp_path / "travel.tdd"
    path.write_text(TRAVEL)
    return str(path)


def run_cli(argv, stdin_text=None):
    out = io.StringIO()
    if stdin_text is not None:
        from repro.cli import build_parser, cmd_repl
        args = build_parser().parse_args(argv)
        code = cmd_repl(args, out, input_stream=io.StringIO(stdin_text))
    else:
        code = main(argv, out=out)
    return code, out.getvalue()


class TestRun:
    def test_reports_period_and_classification(self, even_file):
        code, output = run_cli(["run", even_file])
        assert code == 0
        assert "period: (b=0, p=2)" in output
        assert "multi-separable (Thm 6.5):   True" in output

    def test_missing_file(self):
        code, _ = run_cli(["run", "/nonexistent/x.tdd"])
        assert code == 2


class TestAsk:
    def test_yes(self, even_file):
        code, output = run_cli(["ask", even_file, "even(4)"])
        assert code == 0
        assert output.strip() == "yes"

    def test_no_sets_exit_code(self, even_file):
        code, output = run_cli(["ask", even_file, "even(5)"])
        assert code == 1
        assert output.strip() == "no"

    def test_quantified(self, travel_file):
        code, output = run_cli(
            ["ask", travel_file, "exists T: plane(T, hunter)"])
        assert code == 0

    def test_bad_query_reports_error(self, even_file):
        code, _ = run_cli(["ask", even_file, "even(4"])
        assert code == 2


class TestAnswers:
    def test_canonical_listing(self, even_file):
        code, output = run_cli(["answers", even_file, "even(X)"])
        assert code == 0
        assert "canonical answers: 1  (infinite set)" in output
        assert "X=0" in output

    def test_expansion(self, even_file):
        code, output = run_cli(
            ["answers", even_file, "even(X)", "--expand", "6"])
        assert code == 0
        for t in (0, 2, 4, 6):
            assert f"X={t}" in output
        assert "X=8" not in output


class TestSpec:
    def test_print(self, even_file):
        code, output = run_cli(["spec", even_file])
        assert code == 0
        assert "{2 -> 0}" in output

    def test_save(self, even_file, tmp_path):
        target = tmp_path / "spec.json"
        code, output = run_cli(["spec", even_file, "--save",
                                str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["p"] == 2


class TestClassify:
    def test_travel(self, travel_file):
        code, output = run_cli(["classify", travel_file])
        assert code == 0
        assert "multi-separable (Thm 6.5):   True" in output
        assert "plane: time-only" in output


class TestRepl:
    def test_session(self, even_file):
        code, output = run_cli(
            ["repl", even_file],
            stdin_text=":period\neven(6)\neven(7)\neven(X)\n:quit\n")
        assert code == 0
        assert "period: (b=0, p=2)" in output
        assert "yes" in output and "no" in output
        assert "'X': 0" in output

    def test_error_recovery(self, even_file):
        code, output = run_cli(
            ["repl", even_file],
            stdin_text="even(4\neven(4)\n:quit\n")
        assert code == 0
        assert "error:" in output
        assert "yes" in output


class TestAnalyze:
    def test_clean_program(self, travel_file):
        code, output = run_cli(["analyze", travel_file])
        assert code == 0
        assert "recursive predicates" in output

    def test_warnings_set_exit_code(self, tmp_path):
        path = tmp_path / "dead.tdd"
        path.write_text(
            "q(T+1, X) :- ghost(T, X).\n@temporal ghost. @temporal q.\n")
        code, output = run_cli(["analyze", str(path)])
        assert code == 1
        assert "TDD011" in output  # dead-rule


class TestLintCommand:
    def test_clean_file_exits_zero(self, even_file):
        code, output = run_cli(["lint", even_file])
        assert code == 0
        assert "0 error(s), 0 warning(s)" in output

    def test_error_gates_with_location(self, tmp_path):
        path = tmp_path / "unsafe.tdd"
        path.write_text("p(T+1, X) :- q(T, Y).\nq(0, a).\n")
        code, output = run_cli(["lint", str(path)])
        assert code == 1
        assert f"{path}:1:1: error[TDD002]" in output
        assert "X" in output
        assert "^" in output  # caret excerpt

    def test_max_severity_info_gates_warnings(self, tmp_path):
        path = tmp_path / "singleton.tdd"
        path.write_text(
            "p(T+1) :- q(T, X).\n@temporal p. @temporal q.\nq(0, a).\n")
        code, _ = run_cli(["lint", str(path)])
        assert code == 0  # warnings tolerated by default
        code, output = run_cli(["lint", str(path),
                                "--max-severity", "info"])
        assert code == 1
        assert "TDD008" in output

    def test_select_and_ignore(self, tmp_path):
        path = tmp_path / "unsafe.tdd"
        path.write_text("p(T+1, X) :- q(T, Y).\nq(0, a).\n")
        code, output = run_cli(["lint", str(path),
                                "--select", "TDD008"])
        assert code == 0
        assert "TDD002" not in output and "TDD008" in output
        code, output = run_cli(["lint", str(path),
                                "--ignore", "range-restriction"])
        assert code == 0
        assert "TDD002" not in output

    def test_unknown_code_exits_two(self, even_file, capsys):
        code, _ = run_cli(["lint", even_file, "--select", "TDD999"])
        assert code == 2
        assert "unknown diagnostic code" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        path = tmp_path / "unsafe.tdd"
        path.write_text("p(T+1, X) :- q(T, Y).\nq(0, a).\n")
        code, output = run_cli(["lint", str(path), "--format", "json"])
        assert code == 1
        payload = json.loads(output)
        assert payload["summary"]["error"] == 1
        entry = payload["files"][0]
        assert any(d["code"] == "TDD002" and d["line"] == 1
                   for d in entry["diagnostics"])

    def test_sarif_format(self, even_file):
        code, output = run_cli(["lint", even_file,
                                "--format", "sarif"])
        assert code == 0
        sarif = json.loads(output)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["tool"]["driver"]["name"]

    def test_multiple_files_aggregate(self, even_file, tmp_path):
        bad = tmp_path / "bad.tdd"
        bad.write_text("p(T+1, X) :- q(T, Y).\nq(0, a).\n")
        code, output = run_cli(["lint", even_file, str(bad)])
        assert code == 1
        assert even_file in output and str(bad) in output

    def test_shipped_examples_gate_clean(self):
        programs = sorted(str(p) for p in
                          TestShippedPrograms.PROGRAMS.glob("*.tdd"))
        code, _ = run_cli(["lint", *programs])
        assert code == 0


class TestParseErrorReporting:
    def test_syntax_error_has_location_and_caret(self, tmp_path,
                                                 capsys):
        path = tmp_path / "broken.tdd"
        path.write_text("p(T+1 X) :- q(T).\n")
        code, _ = run_cli(["run", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:1:7: error:" in err
        assert "p(T+1 X) :- q(T)." in err
        assert "^" in err
        assert "Traceback" not in err

    def test_validation_error_is_located(self, tmp_path, capsys):
        path = tmp_path / "unsafe.tdd"
        path.write_text("p(T+1, X) :- q(T, Y).\nq(0, a).\n")
        code, _ = run_cli(["classify", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:1:1: error:" in err
        assert "range-restricted" in err
        assert "Traceback" not in err


class TestTimeline:
    def test_renders_marks(self, even_file):
        code, output = run_cli(["timeline", even_file, "--until", "8"])
        assert code == 0
        assert "x.x.x.x.x" in output
        assert "period: (b=0, p=2)" in output

    def test_predicate_filter(self, travel_file):
        code, output = run_cli(
            ["timeline", travel_file, "--until", "12",
             "--predicates", "plane"])
        assert code == 0
        assert "plane(hunter)" in output
        assert "offseason" not in output


class TestReplExtras:
    def test_explain_command(self, even_file):
        code, output = run_cli(
            ["repl", even_file],
            stdin_text=":explain even(4)\n:quit\n")
        assert code == 0
        assert "[database]" in output
        assert "[by " in output

    def test_explain_rejects_open_atoms(self, even_file):
        code, output = run_cli(
            ["repl", even_file],
            stdin_text=":explain even(X)\n:quit\n")
        assert "ground atom" in output

    def test_timeline_command(self, even_file):
        code, output = run_cli(
            ["repl", even_file],
            stdin_text=":timeline 8\n:quit\n")
        assert "x.x.x.x.x" in output

    def test_help_lists_commands(self, even_file):
        code, output = run_cli(
            ["repl", even_file], stdin_text=":help\n:quit\n")
        assert ":explain" in output


class TestShippedPrograms:
    """The .tdd files under examples/programs/ must keep working."""

    PROGRAMS = Path(__file__).resolve().parent.parent / "examples" \
        / "programs"

    def test_travel_program(self):
        path = str(self.PROGRAMS / "travel.tdd")
        code, output = run_cli(["run", path])
        assert code == 0
        assert "period: (b=11, p=365)  [certified]" in output
        code, output = run_cli(["ask", path, "plane(12, hunter)"])
        assert code == 0 and output.strip() == "yes"

    def test_bounded_path_program(self):
        path = str(self.PROGRAMS / "bounded_path.tdd")
        code, output = run_cli(["classify", path])
        assert code == 0
        assert "inflationary (Thm 5.2 test): True" in output
        code, _ = run_cli(["ask", path, "exists K: path(K, a, e)"])
        assert code == 0

    def test_oncall_program(self):
        path = str(self.PROGRAMS / "oncall.tdd")
        code, output = run_cli(["run", path])
        assert code == 0
        assert "p=84" in output  # lcm(21, 28)
        # bo is on call on day 9 but on leave: not pageable.
        code, _ = run_cli(["ask", path, "pageable(9, bo)"])
        assert code == 1
        code, _ = run_cli(["ask", path, "pageable(8, bo)"])
        assert code == 0


class TestUnreadableFiles:
    def test_directory_as_program_file(self, tmp_path, capsys):
        code, _ = run_cli(["run", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot read program file" in err
        assert "Traceback" not in err

    def test_binary_file(self, tmp_path, capsys):
        path = tmp_path / "binary.tdd"
        path.write_bytes(bytes(range(256)))
        code, _ = run_cli(["run", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot read program file" in err
        assert "Traceback" not in err

    def test_missing_file_message(self, capsys):
        code, _ = run_cli(["ask", "/nonexistent/x.tdd", "even(0)"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestObservability:
    def test_stats_block(self, travel_file):
        code, output = run_cli(["run", travel_file, "--stats"])
        assert code == 0
        assert "-- eval stats --" in output
        assert "engine:" in output
        assert "rounds:" in output
        assert "period:" in output
        assert "join probes:" in output

    def test_stats_off_by_default(self, travel_file):
        code, output = run_cli(["run", travel_file])
        assert code == 0
        assert "eval stats" not in output

    def test_stats_on_every_subcommand(self, even_file):
        for argv in (["ask", even_file, "even(4)", "--stats"],
                     ["classify", even_file, "--stats"],
                     ["timeline", even_file, "--stats"]):
            _, output = run_cli(argv)
            assert "-- eval stats --" in output, argv

    def test_trace_writes_json_lines(self, even_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, _ = run_cli(["ask", even_file, "even(4)",
                           "--trace", str(trace)])
        assert code == 0
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        assert events, "trace file is empty"
        kinds = [e["event"] for e in events]
        # Schema 2: a run_start header precedes every engine event.
        assert kinds[0] == "run_start"
        assert events[0]["engine"] == "bt"
        assert events[0]["schema"] == 4
        assert events[0]["program"] == even_file
        assert len(events[0]["sha256"]) == 64
        assert kinds[1] == "eval_start"
        assert "round" in kinds
        assert "period" in kinds
        assert all("ts" in e for e in events)

    def test_unwritable_trace_path_is_clean(self, even_file, capsys):
        code, _ = run_cli(["run", even_file,
                           "--trace", "/nonexistent/dir/t.jsonl"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestProfileCommand:
    def test_table_cites_spans_and_sums_to_derived(self, travel_file):
        code, output = run_cli(["profile", travel_file])
        assert code == 0
        assert f"profile: {travel_file}  engine=bt" in output
        # Every proper rule is cited by file:line.
        assert f"{travel_file}:2" in output
        assert f"{travel_file}:3" in output
        assert "time(ms)" in output and "dup%" in output
        assert "facts derived:" in output

    def test_json_new_facts_sum_to_facts_derived(self, travel_file):
        code, output = run_cli(["profile", travel_file,
                                "--format", "json"])
        assert code == 0
        report = json.loads(output)
        assert report["engine"] == "bt"
        total = sum(r["new_facts"] for r in report["rules"])
        assert total == report["stats"]["facts_derived"] > 0
        assert report["stats"]["extra"]["rules"] == report["rules"]

    def test_folded_stack_format(self, travel_file):
        code, output = run_cli(["profile", travel_file, "--folded"])
        assert code == 0
        lines = output.strip().splitlines()
        assert lines
        for line in lines:
            # frame;frame ... count — count is the last token, integer µs.
            frames, count = line.rsplit(" ", 1)
            assert int(count) >= 0
            assert frames.startswith("bt;")
            assert f"{travel_file}:" in frames

    def test_engines_agree_on_derived_totals(self, even_file):
        _, bt_out = run_cli(["profile", even_file, "--format", "json"])
        _, verb_out = run_cli(["profile", even_file,
                               "--engine", "verbatim",
                               "--format", "json"])
        bt, verb = json.loads(bt_out), json.loads(verb_out)
        assert sum(r["new_facts"] for r in bt["rules"]) == \
            sum(r["new_facts"] for r in verb["rules"])

    def test_goal_directed_engine_requires_query(self, even_file,
                                                 capsys):
        for engine in ("magic", "topdown"):
            code, _ = run_cli(["profile", even_file,
                               "--engine", engine])
            assert code == 2, engine
            assert "--query" in capsys.readouterr().err

    def test_goal_directed_engine_with_query(self, even_file):
        code, output = run_cli(["profile", even_file,
                                "--engine", "magic",
                                "--query", "even(4)"])
        assert code == 0
        assert "answer=yes" in output

    def test_unparsable_query_is_located(self, even_file, capsys):
        code, _ = run_cli(["profile", even_file,
                           "--engine", "magic",
                           "--query", "even(T)"])
        assert code == 2
        assert "ground atom" in capsys.readouterr().err

    def test_missing_program_file(self, capsys):
        code, _ = run_cli(["profile", "/nonexistent/x.tdd"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_engine_exits_2_with_registry_error(self, even_file,
                                                        capsys):
        """--engine is validated against the engine registry, not a
        hard-coded argparse choices list: unknown names produce the
        lint-style `error:` line on stderr and exit code 2."""
        code, output = run_cli(["profile", even_file,
                                "--engine", "nope"])
        assert code == 2
        assert output == ""
        err = capsys.readouterr().err
        assert "error: unknown engine 'nope'" in err
        for name in ("bt", "compiled", "verbatim", "interval",
                     "magic", "topdown"):
            assert name in err

    def test_compiled_engine_profiles(self, travel_file):
        code, output = run_cli(["profile", travel_file,
                                "--engine", "compiled",
                                "--format", "json"])
        assert code == 0
        report = json.loads(output)
        assert report["engine"] == "compiled"
        assert report["stats"]["engine"] == "compiled"
        total = sum(r["new_facts"] for r in report["rules"])
        assert total == report["stats"]["facts_derived"] > 0

    @pytest.mark.parametrize("engine, name", [
        ("bt", "bt"), ("compiled", "compiled"),
        ("verbatim", "bt_verbatim"), ("topdown", "topdown")])
    def test_stats_block_reports_the_profiled_run(self, travel_file,
                                                  engine, name):
        """`profile --stats` prints the profiled run's accounts, not an
        empty block."""
        argv = ["profile", travel_file, "--engine", engine, "--stats"]
        if engine == "topdown":
            argv += ["--query", "plane(8, hunter)"]
        code, output = run_cli(argv)
        assert code == 0
        block = output.split("-- eval stats --")[1]
        assert f"engine:            {name}\n" in block
        rounds = int(block.split("rounds:")[1].split()[0])
        assert rounds > 0

    def test_compiled_and_bt_profiles_agree_on_derived(self, even_file):
        _, bt_out = run_cli(["profile", even_file, "--format", "json"])
        _, comp_out = run_cli(["profile", even_file,
                               "--engine", "compiled",
                               "--format", "json"])
        bt, comp = json.loads(bt_out), json.loads(comp_out)
        assert bt["stats"]["facts_derived"] == \
            comp["stats"]["facts_derived"]
        assert sum(r["new_facts"] for r in bt["rules"]) == \
            sum(r["new_facts"] for r in comp["rules"])


class TestEngineSelection:
    """--engine {bt,compiled} on the query-answering commands."""

    def test_ask_answers_match_across_engines(self, travel_file):
        for query, expected in (("plane(71, hunter)", 0),
                                ("plane(2, hunter)", 1)):
            bt_code, bt_out = run_cli(["ask", travel_file, query])
            c_code, c_out = run_cli(["ask", travel_file, query,
                                     "--engine", "compiled"])
            assert (bt_code, bt_out) == (c_code, c_out) == \
                (expected, "yes\n" if expected == 0 else "no\n")

    def test_stats_name_the_compiled_engine(self, even_file):
        code, output = run_cli(["ask", even_file, "even(4)",
                                "--engine", "compiled", "--stats"])
        assert code == 0
        assert "engine:" in output and "compiled" in output

    def test_answers_and_spec_accept_the_flag(self, even_file):
        code, output = run_cli(["answers", even_file, "even(X)",
                                "--engine", "compiled",
                                "--expand", "6"])
        assert code == 0
        assert "X=6" in output
        code, output = run_cli(["spec", even_file,
                                "--engine", "compiled"])
        assert code == 0
        assert "rewrite system:  {2 -> 0}" in output

    def test_warm_cache_hit_skips_evaluation(self, even_file, tmp_path):
        """Spec-cache compatibility: a warm hit answers from the
        persisted spec with zero evaluation rounds, whatever engine
        the request names."""
        cache = str(tmp_path / "spec.sqlite")
        code, cold = run_cli(["spec", even_file, "--cache", cache,
                              "--engine", "compiled"])
        assert code == 0
        code, warm = run_cli(["spec", even_file, "--cache", cache,
                              "--engine", "compiled", "--stats"])
        assert code == 0
        for line in cold.splitlines():
            assert line in warm
        assert "rounds:            0" in warm


class TestTraceviewCommand:
    def _record_trace(self, program_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, _ = run_cli(["run", program_file, "--trace", str(trace)])
        assert code == 0
        return trace

    def test_summarizes_convergence(self, travel_file, tmp_path):
        trace = self._record_trace(travel_file, tmp_path)
        code, output = run_cli(["traceview", str(trace)])
        assert code == 0
        assert f"trace: {trace}" in output
        assert "engine: bt" in output
        assert "schema: 4" in output
        assert "rounds:" in output
        assert "delta curve (derived/round):" in output
        assert "phases:" in output
        assert "period: (b=" in output
        assert "detected after round" in output

    def test_long_round_table_is_elided(self, tmp_path):
        trace = tmp_path / "long.jsonl"
        rounds = [json.dumps({"event": "round", "ts": 0.0,
                              "round": n, "delta": 1, "derived": 1,
                              "store": n})
                  for n in range(1, 41)]
        trace.write_text("\n".join(rounds) + "\n")
        code, output = run_cli(["traceview", str(trace)])
        assert code == 0
        assert "rounds: 40" in output
        assert "... 16 rounds elided ..." in output

    def test_corrupt_trace_line_is_located(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"event": "eval_start", "ts": 0.0}\n'
                         '{"event": "round", "derive\n')
        code, _ = run_cli(["traceview", str(trace)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{trace}:2:" in err
        assert "corrupt trace line" in err
        assert "^" in err

    def test_non_object_line_is_located(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("[1, 2, 3]\n")
        code, _ = run_cli(["traceview", str(trace)])
        assert code == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_missing_trace_file(self, capsys):
        code, _ = run_cli(["traceview", "/nonexistent/t.jsonl"])
        assert code == 2
        assert "cannot read trace file" in capsys.readouterr().err


class TestExplainCommand:
    def test_renders_derivation_tree(self, even_file):
        code, output = run_cli(["explain", even_file, "even(4)"])
        assert code == 0
        assert "even(4)" in output
        assert "[by " in output
        assert "[database]" in output

    def test_underivable_fact_exits_one(self, even_file):
        code, output = run_cli(["explain", even_file, "even(3)"])
        assert code == 1
        assert "not in the model" in output

    def test_open_atom_is_rejected(self, even_file, capsys):
        code, _ = run_cli(["explain", even_file, "even(T)"])
        assert code == 2
        assert "ground atom" in capsys.readouterr().err


class TestStaticAnalysisCLI:
    """The analyzer's CLI surfaces: analyze --format/--query, lint
    --query, profile's plan export, and the serve admission flag."""

    DEAD = """
goal(T+1, X) :- step(T, X).
goal(T+1, X) :- goal(T, X).
orphan(T+1, X) :- orphan(T, X).
step(T+1, X) :- step(T, X).
step(0, a).
orphan(0, b).
"""

    @pytest.fixture()
    def dead_file(self, tmp_path):
        path = tmp_path / "dead.tdd"
        path.write_text(self.DEAD)
        return str(path)

    def test_analyze_text_reports_the_class(self, travel_file):
        code, output = run_cli(["analyze", travel_file])
        assert code == 0
        assert "tractability class: time-only (tractable)" in output
        assert "predicted evaluation cost:" in output

    def test_analyze_json_carries_the_analysis(self, travel_file):
        code, output = run_cli(["analyze", travel_file,
                                "--format", "json"])
        assert code == 0
        report = json.loads(output)
        analysis = report["analysis"]
        assert analysis["tractability"]["class"] == "time-only"
        assert analysis["tractability"]["tractable"] is True
        assert analysis["predicted_cost"] > 0
        assert analysis["rule_costs"]
        for plan in analysis["rule_costs"].values():
            assert sorted(plan["order"]) == list(range(len(plan["order"])))
            assert all(s["est_matches"] >= 1.0 for s in plan["steps"])

    def test_analyze_query_arms_reachability(self, dead_file):
        code, output = run_cli(["analyze", dead_file,
                                "--query", "goal"])
        assert code == 1  # the unreachable rule is a warning
        assert "query goal:" in output
        assert "TDD018" in output

    def test_analyze_json_with_query_has_the_slice(self, dead_file):
        code, output = run_cli(["analyze", dead_file,
                                "--query", "goal",
                                "--format", "json"])
        report = json.loads(output)
        reach = report["analysis"]["reachability"]
        assert reach["query"] == "goal"
        assert reach["known"] is True
        assert reach["dead_rules"]
        assert "orphan" not in reach["predicates"]

    def test_lint_query_flag_fires_tdd018(self, dead_file):
        # TDD018 is a warning, so it gates at --max-severity info.
        code, output = run_cli(["lint", dead_file,
                                "--query", "goal",
                                "--max-severity", "info"])
        assert code == 1
        assert "TDD018" in output
        code, output = run_cli(["lint", dead_file,
                                "--max-severity", "info"])
        assert code == 0
        assert "TDD018" not in output

    def test_profile_compiled_exports_plans(self, travel_file):
        code, output = run_cli(["profile", travel_file,
                                "--engine", "compiled",
                                "--format", "json"])
        assert code == 0
        report = json.loads(output)
        assert report["plans"]
        for plan in report["plans"]:
            assert plan["est_cost"] > 0
            assert sorted(plan["order"]) == list(range(len(plan["order"])))
            for step in plan["steps"]:
                assert step["est_matches"] >= 1.0
                assert step["bound_vars"] >= 0

    def test_profile_compiled_table_lists_plans(self, travel_file):
        code, output = run_cli(["profile", travel_file,
                                "--engine", "compiled"])
        assert code == 0
        assert "join plans (cost-ordered):" in output

    def test_profile_bt_has_no_plans_key(self, even_file):
        _, output = run_cli(["profile", even_file, "--format", "json"])
        assert "plans" not in json.loads(output)

    def test_serve_parser_accepts_max_predicted_cost(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--max-predicted-cost", "5000"])
        assert args.max_predicted_cost == 5000.0
        args = build_parser().parse_args(["serve"])
        assert args.max_predicted_cost is None


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["run", "examples/programs/travel.tdd"],
    ["timeline", "examples/programs/travel.tdd"],
    ["why", "examples/programs/oncall.tdd", "pageable(22, ada)"],
])
def test_closed_stdout_pipe_exits_quietly(argv):
    """A reader that goes away (``repro run ... | head -1``) is not an
    unreadable program: exit 0, nothing on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, stderr
    assert stderr == b""
