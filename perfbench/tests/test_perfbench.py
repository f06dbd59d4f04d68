"""The benchmark's own tests: seeded generators, the answer checker,
the span analysis, and the run's failure modes.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import generate
import host
import serving
import tracing
from measure import environment, trimmed_mean
from oracle import DeadlineIgnored, Oracle, WrongAnswer
from repro.core.tdd import TDD
from repro.serve.cache import tdd_key

from conftest import BENCH, ROOT


@pytest.mark.parametrize("name", generate.WORKLOADS)
def test_same_seed_gives_byte_identical_stream(name):
    first = generate.stream_bytes(generate.make(name, 7), 300)
    again = generate.stream_bytes(generate.make(name, 7), 300)
    assert first == again


@pytest.mark.parametrize("name", generate.WORKLOADS)
def test_different_seed_gives_different_stream(name):
    assert (generate.stream_bytes(generate.make(name, 7), 300)
            != generate.stream_bytes(generate.make(name, 8), 300))


def _rule_text(tdd: TDD) -> str:
    return "\n".join(sorted(str(r) for r in tdd.rules if not r.is_fact))


@pytest.mark.parametrize("name", ("cold-spec", "tier-mixed"))
def test_cold_programs_have_distinct_keys_and_rule_text(name):
    workload = generate.make(name, 3)
    stream = itertools.islice(workload.requests(), 3000)
    cold = [r.program for r in stream if r.cold][:60]
    cold += [r.program for r in workload.probe_requests(5)]
    assert len(cold) >= 40
    tdds = [TDD.from_text(text) for text in cold]
    assert len({tdd_key(tdd) for tdd in tdds}) == len(cold)
    assert len({_rule_text(tdd) for tdd in tdds}) == len(cold)


def test_tier_working_set_programs_are_distinct():
    workload = generate.make("tier-mixed", 3)
    programs = {r.program for r in workload.warmup_requests()}
    assert len(programs) == len(workload.working_set) >= 160
    keys = {tdd_key(TDD.from_text(text)) for text in programs}
    assert len(keys) == len(programs)


def test_result_records_cache_sizes_next_to_working_set():
    stamp = environment(ROOT, servers=1)
    for key in ("nproc", "python", "git_commit", "server_processes",
                "parse_memo_size", "spec_cache_memory_size"):
        assert key in stamp


def test_open_loop_schedule_is_seeded():
    workload = generate.make("tier-mixed", 5)
    offsets = workload.schedule(50.0, 10.0)
    assert offsets == generate.make("tier-mixed", 5).schedule(50.0, 10.0)
    assert offsets == sorted(offsets) and len(offsets) == 500


@pytest.fixture(scope="module")
def warm_oracle():
    workload = generate.make("warm-ask", 2)
    return workload, Oracle(workload)


def _reference_response(oracle, request) -> dict:
    expected = oracle.expected[request.ref]
    return {"ok": True, "answer": expected}


def test_checker_accepts_reference_and_counts_non_answers(warm_oracle):
    workload, oracle = warm_oracle
    asks = [r for r in itertools.islice(workload.requests(), 200)
            if r.kind == "ask"]
    assert oracle.check(asks[0], _reference_response(oracle, asks[0]))
    assert not oracle.check(asks[0], {"ok": False, "error": "refused"})
    assert not oracle.check(asks[0], None)


def test_checker_fails_on_one_flipped_answer(warm_oracle):
    workload, oracle = warm_oracle
    ask = next(r for r in workload.requests() if r.kind == "ask")
    response = _reference_response(oracle, ask)
    response["answer"] = not response["answer"]
    with pytest.raises(WrongAnswer):
        oracle.check(ask, response)


@pytest.fixture(scope="module")
def cold_oracle():
    workload = generate.make("cold-spec", 2)
    return workload, Oracle(workload)


def test_deadline_request_must_come_back_degraded(cold_oracle):
    workload, oracle = cold_oracle
    probe = workload.probe_requests(1)[0]
    assert probe.deadline is not None
    response = _reference_response(oracle, probe)
    response["degraded"] = True
    assert oracle.check(probe, response)
    del response["degraded"]
    with pytest.raises(DeadlineIgnored):
        oracle.check(probe, response)


def test_quietest_blocks_are_taken_in_order_of_steal():
    steals = [0.30, 0.00, 0.02, 0.10, 0.01]
    lengths = [1.0, 1.0, 1.0, 1.0, 1.0]
    assert host.quietest(steals, lengths, 3.0) == {1, 2, 4}
    assert host.quietest(steals, lengths, 2.5) == {1, 2, 4}
    assert host.quietest(steals, [0.5] * 5, 2.0) == {1, 2, 3, 4}
    assert host.quietest(steals, lengths, 0.0) == set()


def test_steal_between_weights_windows_by_overlap():
    meter = host.StealMeter()
    meter.starts = [0.0, 1.0, 2.0]
    meter.ends = [1.0, 2.0, 3.0]
    meter.shares = [0.0, 0.10, 0.50]
    assert meter.steal_between(0.5, 1.5) == pytest.approx(0.05)
    assert meter.steal_between(1.0, 3.0) == pytest.approx(0.30)
    assert meter.steal_between(5.0, 6.0) == 0.0
    assert meter.clean_seconds() == 1.0


@pytest.mark.parametrize("name", generate.WORKLOADS)
def test_every_block_holds_the_same_mix(name):
    workload = generate.make(name, 4)
    block = workload.block
    stream = list(itertools.islice(workload.requests(), 4 * block))
    mixes = [sorted((r.ref[0], r.kind, r.cold,
                     r.ref[1] in workload.templates[r.ref[0]].opens)
                    for r in stream[i:i + block])
             for i in range(0, len(stream), block)]
    if name == "tier-mixed":
        # Reads walk the Zipf ranks and writes cycle through four
        # sizes; what a block fixes is its one write.
        mixes = [sum(1 for m in mix if m[2]) for mix in mixes]
    assert all(mix == mixes[0] for mix in mixes)


def test_overshoot_is_a_trimmed_mean():
    # Two clusters (10 and 16 ms) and two outliers: the outliers are
    # trimmed, the clusters weigh by their shares.
    values = [10.0] * 12 + [16.0] * 4 + [1.0, 90.0]
    assert trimmed_mean(values) == pytest.approx((10.0 * 12 + 16.0 * 4)
                                                 / 16)
    assert trimmed_mean([]) == 0.0


def test_reference_server_times_requests_and_stops():
    reference = serving.Reference()
    try:
        times = reference.burst(5)
    finally:
        reference.stop()
    assert len(times) == 5 and all(t > 0 for t in times)
    assert reference.proc.poll() is not None


def _span(name, start_ms, end_ms, span_id, parent, pid):
    return {"name": name, "start": start_ms * 10 ** 6,
            "end": end_ms * 10 ** 6, "id": span_id, "parent": parent,
            "request": "r", "pid": pid, "error": False}


def test_span_self_times_and_cross_process_links():
    spans = [
        _span(tracing.CLIENT_SPAN, 0, 100, "1:1", None, 1),
        _span("serve.service.serve_batch", 10, 90, "2:1", None, 2),
        _span("core.queries.evaluate", 20, 60, "2:2", "2:1", 2),
        _span("core.queries.parse_query", 15, 20, "2:3", "2:1", 2),
    ]
    analysis = tracing.Analysis(spans, requests=1)
    assert spans[1]["parent"] == "1:1"
    assert [s["self"] / 10 ** 6 for s in spans] == [20, 35, 40, 5]
    assert analysis.accounting_error() == 0.0
    ranking = dict(analysis.self_ms_per_request())
    assert ranking["core.queries.evaluate"] == 40.0
    assert max(ranking, key=ranking.get) == "core.queries.evaluate"


def test_unlinked_span_shows_as_accounting_error():
    spans = [
        _span(tracing.CLIENT_SPAN, 0, 100, "1:1", None, 1),
        _span("serve.service.serve_batch", 90, 130, "2:1", None, 2),
    ]
    assert tracing.Analysis(spans, 1).accounting_error() == 0.4


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_fails_outright_on_a_flipped_answer():
    done = _run(["--workload", "warm-ask", "--seed", "1", "--seconds",
                 "1", "--flip-answer", "3"], ROOT)
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False


def test_run_refuses_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "warm-ask", "--seed", "1", "--seconds",
                 "1"], str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
