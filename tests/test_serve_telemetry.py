"""End-to-end telemetry over HTTP: trace propagation, /metrics,
access logs, the slow-query log, error-body consistency, and the
16-thread reconciliation invariant (request counter == histogram
count == /query access-log lines).

Also covers HTTP/1.1 keep-alive (many asks over one connection, and
refusals that close it) and ``repro top`` against a live server.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import socket
import threading
import time

import pytest

from repro import __version__
from repro.cli import main
from repro.obs import TRACE_SCHEMA, ListSink, Telemetry, Tracer
from repro.serve import AccessLog

from conftest import wait_until

EVEN = "even(T+2) :- even(T).\neven(0).\n"
THREADS = 16
PER_THREAD = 4


class TestHealthz:
    def test_reports_version_and_trace_schema(self, serve_endpoint):
        point = serve_endpoint()
        response, raw = point.request("GET", "/healthz")
        assert response.status == 200
        data = json.loads(raw)
        assert data == {"ok": True, "version": __version__,
                        "trace_schema": TRACE_SCHEMA}
        assert int(response.getheader("Content-Length")) == len(raw)


class TestErrorBodies:
    def test_oversized_body_is_413_with_json_and_length(self, serve_endpoint):
        point = serve_endpoint(max_body_bytes=1024)
        big = json.dumps({"program": "x" * 2048, "query": "q"})
        response, raw = point.request("POST", "/query", big)
        assert response.status == 413
        data = json.loads(raw)
        assert "exceeds" in data["error"]
        assert int(response.getheader("Content-Length")) == len(raw)
        assert response.getheader("Content-Type") \
            == "application/json"
        assert response.getheader("Connection") == "close"

    def test_default_limit_rejects_over_max_body_bytes(self, serve_endpoint):
        """The refusal happens on Content-Length alone — the server
        answers 413 before the oversized body is even sent."""
        from repro.serve import MAX_BODY_BYTES
        point = serve_endpoint()
        with socket.create_connection(("127.0.0.1", point.port),
                                      timeout=30) as sock:
            sock.sendall((
                "POST /query HTTP/1.1\r\n"
                "Host: 127.0.0.1\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                "\r\n").encode("ascii"))
            response = http.client.HTTPResponse(sock)
            response.begin()
            raw = response.read()
        assert response.status == 413
        assert "error" in json.loads(raw)
        assert response.getheader("Connection") == "close"

    def test_400_has_json_body_and_length(self, serve_endpoint):
        point = serve_endpoint()
        response, raw = point.request("POST", "/query",
                                 "{not json")
        assert response.status == 400
        assert "error" in json.loads(raw)
        assert int(response.getheader("Content-Length")) == len(raw)

    def test_transport_errors_still_logged_with_trace_id(self, serve_endpoint):
        point = serve_endpoint(max_body_bytes=64)
        point.request("POST", "/query", "y" * 100)
        wait_until(lambda: len(point.log_records()) == 1)
        (record,) = point.log_records()
        assert record["status"] == 413
        assert re.fullmatch(r"[0-9a-f]{32}", record["trace_id"])


def _exchange(connection, method: str, path: str, body=None,
              headers=None, **kwargs):
    """One request on a held-open connection; ``(response, raw)``."""
    connection.request(method, path, body, headers or {}, **kwargs)
    response = connection.getresponse()
    return response, response.read()


def _ask(connection, query: str):
    response, raw = _exchange(
        connection, "POST", "/query",
        json.dumps({"program": EVEN, "query": query}),
        {"Content-Type": "application/json"})
    assert response.status == 200, raw
    return response, json.loads(raw)["responses"][0]


class TestKeepAlive:
    """Replies are HTTP/1.1 with TCP_NODELAY: one connection (and one
    handler thread) serves a whole sequence of asks."""

    @staticmethod
    def _asks_share_one_connection(port: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)
        try:
            _ask(connection, "even(0)")  # computes and caches the spec
            sock = connection.sock
            started = time.monotonic()
            for n in range(20):
                response, answer = _ask(connection, f"even({n})")
                assert response.version == 11
                assert response.will_close is False
                assert connection.sock is sock
                assert answer["ok"] and answer["answer"] is (n % 2 == 0)
            elapsed = time.monotonic() - started
        finally:
            connection.close()
        # Nagle plus a delayed ACK stalls a reply ~40 ms: >= 0.8 s.
        assert elapsed < 0.5, f"20 asks took {elapsed:.3f} s"

    def test_single_process(self, serve_endpoint):
        self._asks_share_one_connection(serve_endpoint().port)

    def test_tier_front_end(self, tier):
        self._asks_share_one_connection(tier(workers=1).port)

    @pytest.mark.parametrize("path, headers, chunked", [
        ("/nope", {}, False),
        ("/query", {"Content-Length": "junk"}, False),
        ("/query", {"Content-Length": "-5"}, False),
        ("/query", {"Transfer-Encoding": "chunked"}, True),
    ], ids=["unknown-path", "unreadable-length", "negative-length",
            "chunked"])
    def test_refusal_before_body_read_closes_connection(
            self, serve_endpoint, path, headers, chunked):
        """A reply sent with the body still unread must close the
        connection; otherwise the body would be parsed as the next
        request line and every later reply would be off by one."""
        point = serve_endpoint()
        connection = http.client.HTTPConnection("127.0.0.1", point.port,
                                                timeout=30)
        body = json.dumps({"program": EVEN, "query": "even(3)"})
        try:
            response, raw = _exchange(
                connection, "POST", path,
                [body.encode("utf-8")] if chunked else body,
                {"Content-Type": "application/json", **headers},
                encode_chunked=chunked)
            assert 400 <= response.status < 500
            assert "error" in json.loads(raw)
            assert response.getheader("Connection") == "close"
            response, answer = _ask(connection, "even(4)")
            assert answer["ok"] and answer["answer"] is True
        finally:
            connection.close()


class TestTracePropagation:
    def test_client_trace_id_reaches_response_log_and_spans(
            self, serve_endpoint):
        point = serve_endpoint()
        supplied = "feedface00112233feedface00112233"
        response, data = point.post_query(
            {"program": EVEN, "query": "even(4)"},
            headers={"X-Repro-Trace-Id": supplied})
        assert response.status == 200
        # 1. echoed on the response headers and in the JSON body
        assert response.getheader("X-Repro-Trace-Id") == supplied
        assert data["responses"][0]["trace_id"] == supplied
        # 2. in the access-log line of the same request
        wait_until(lambda: len(point.log_records()) == 1)
        (record,) = point.log_records()
        assert record["trace_id"] == supplied
        assert record["path"] == "/query"
        assert record["status"] == 200
        assert record["kind"] == "ask"
        assert record["cache"] == "computed"
        assert record["program"] == data["responses"][0]["key"][:12]
        assert record["duration_ms"] >= 0.0
        # 3. on every exported span of the request, root to leaf
        assert {e["trace_id"] for e in point.sink.events} \
            == {supplied}
        names = {e["name"] for e in point.sink.events}
        assert {"http.request", "parse", "cache.lookup",
                "spec.compute", "answer"} <= names
        roots = [e for e in point.sink.events
                 if e["parent"] is None]
        assert [r["name"] for r in roots] == ["http.request"]
        assert roots[0]["attrs"]["status"] == 200

    def test_fresh_trace_id_minted_when_absent_or_invalid(
            self, serve_endpoint):
        point = serve_endpoint()
        response, data = point.post_query(
            {"program": EVEN, "query": "even(0)"},
            headers={"X-Repro-Trace-Id": "utter junk"})
        echoed = response.getheader("X-Repro-Trace-Id")
        assert re.fullmatch(r"[0-9a-f]{32}", echoed)
        assert data["responses"][0]["trace_id"] == echoed

    def test_batch_log_line_uses_lists(self, serve_endpoint):
        point = serve_endpoint()
        point.post_query({"requests": [
            {"program": EVEN, "query": "even(0)"},
            {"program": EVEN, "query": "even(X)",
             "kind": "answers"},
        ]})
        wait_until(lambda: len(point.log_records()) == 1)
        (record,) = point.log_records()
        assert record["n"] == 2
        assert record["kind"] == ["ask", "answers"]
        assert len(record["program"]) == 2


class TestMetricsEndpoint:
    SAMPLE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9.eE+-]+$")

    def _scrape(self, point):
        response, raw = point.request("GET", "/metrics")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith(
            "text/plain")
        return raw.decode("utf-8")

    def test_valid_prometheus_text_format(self, serve_endpoint):
        point = serve_endpoint()
        point.post_query({"program": EVEN, "query": "even(2)"})
        text = self._scrape(point)
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line.startswith("#"):
                assert self.SAMPLE.match(line), line
        # every sample has HELP + TYPE metadata
        names = {line.split("{")[0].split(" ")[0].rsplit("_bucket")[0]
                 .rsplit("_sum")[0].rsplit("_count")[0]
                 for line in text.splitlines()
                 if not line.startswith("#")}
        typed = {line.split(" ")[2]
                 for line in text.splitlines()
                 if line.startswith("# TYPE ")}
        assert names <= typed

    def test_metrics_reconcile_with_stats(self, serve_endpoint):
        point = serve_endpoint()
        for t in (0, 3, 8):
            point.post_query({"program": EVEN, "query": f"even({t})"})
        text = self._scrape(point)
        _, raw = point.request("GET", "/stats")
        stats = json.loads(raw)

        def value(name):
            (line,) = [li for li in text.splitlines()
                       if li.split("{")[0].split(" ")[0] == name]
            return float(line.rsplit(" ", 1)[1])

        assert value("repro_requests_total") == 3
        assert value("repro_requests_total") == \
            stats["serve"]["requests"]
        assert value("repro_request_duration_seconds_count") == \
            stats["latency"]["count"] == 3
        assert value("repro_request_duration_seconds_sum") == \
            pytest.approx(stats["latency"]["sum_ms"] / 1e3,
                          abs=1e-3)


class TestSlowQueryLog:
    def test_slow_request_dumps_span_tree(self, serve_endpoint):
        point = serve_endpoint(slow_ms=0.0)  # everything is "slow"
        _, data = point.post_query({"program": EVEN, "query": "even(6)"})
        wait_until(lambda: len(point.log_records()) == 2)
        records = point.log_records()
        slow = [r for r in records if r.get("slow_query")]
        assert len(slow) == 1
        tree = slow[0]["spans"]
        assert tree["name"] == "http.request"
        assert slow[0]["trace_id"] == tree["trace_id"] \
            == data["responses"][0]["trace_id"]
        child_names = {c["name"] for c in tree["children"]}
        assert {"parse", "answer"} <= child_names
        assert tree["duration_ms"] >= 0.0

    def test_fast_threshold_suppresses_dump(self, serve_endpoint):
        point = serve_endpoint(slow_ms=60000.0)
        point.post_query({"program": EVEN, "query": "even(0)"})
        wait_until(lambda: len(point.log_records()) >= 1)
        assert not [r for r in point.log_records()
                    if r.get("slow_query")]


class TestConcurrentReconciliation:
    def test_metrics_stats_and_access_log_agree(self, serve_endpoint):
        """The acceptance invariant: after 16 threads x 4 singleton
        requests, the Prometheus request counter, the histogram
        count, ``/stats``, and the number of ``/query`` access-log
        lines are all exactly THREADS * PER_THREAD."""
        point = serve_endpoint()
        barrier = threading.Barrier(THREADS)
        errors: list[BaseException] = []

        def run(worker: int) -> None:
            try:
                barrier.wait()
                for i in range(PER_THREAD):
                    response, data = point.post_query({
                        "program": EVEN,
                        "query": f"even({worker + i})"})
                    assert response.status == 200
                    assert data["responses"][0]["ok"]
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(w,))
                   for w in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors

        expected = THREADS * PER_THREAD
        wait_until(lambda: len(
            [r for r in point.log_records()
             if r["path"] == "/query"]) == expected)
        _, raw = point.request("GET", "/stats")
        stats = json.loads(raw)
        response, raw = point.request("GET", "/metrics")
        text = raw.decode("utf-8")

        def value(name):
            (line,) = [li for li in text.splitlines()
                       if li.split("{")[0].split(" ")[0] == name]
            return float(line.rsplit(" ", 1)[1])

        assert stats["serve"]["requests"] == expected
        assert value("repro_requests_total") == expected
        assert value("repro_request_duration_seconds_count") \
            == expected
        assert stats["latency"]["count"] == expected
        assert sum(n for _, n in stats["latency"]["buckets"]) \
            == expected
        query_lines = [r for r in point.log_records()
                       if r["path"] == "/query"]
        assert len(query_lines) == expected
        # one access-log line and one histogram observation per
        # request; the sums reconcile across the three surfaces
        assert value("repro_request_duration_seconds_sum") == \
            pytest.approx(stats["latency"]["sum_ms"] / 1e3,
                          abs=1e-2)
        # cache accounting still consistent under interleaving
        cache = stats["cache"]
        assert cache["lookups"] == (cache["mem_hits"]
                                    + cache["disk_hits"]
                                    + cache["misses"])
        # every request produced a root span with the right status
        roots = [e for e in point.sink.events
                 if e["name"] == "http.request"
                 and e["attrs"].get("path") == "/query"]
        assert len(roots) == expected
        assert len({e["trace_id"] for e in roots}) == expected


class TestStatsJsonGate:
    """The CI gate in benchmarks/check_stats_json.py understands the
    new ``latency`` block."""

    @staticmethod
    def _checker():
        import importlib.util
        import pathlib
        path = (pathlib.Path(__file__).parent.parent / "benchmarks"
                / "check_stats_json.py")
        spec = importlib.util.spec_from_file_location(
            "check_stats_json", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _dump(self, latency):
        from repro.obs import EvalStats
        from repro.serve import QueryRequest, QueryService, SpecCache
        service = QueryService(cache=SpecCache())
        for t in (0, 1, 2):
            service.serve(QueryRequest(program=EVEN,
                                       query=f"even({t})"))
        stats = EvalStats(engine="bt", rounds=1)
        service.attach_stats(stats)
        payload = stats.to_dict()
        if latency is not None:
            payload["extra"]["latency"] = latency
        return {"benchmarks": [{"fullname": "bench::case",
                                "extra_info":
                                    {"eval_stats": payload}}]}

    def test_real_latency_block_passes(self):
        checker = self._checker()
        from repro.obs import LatencyHistogram
        histogram = LatencyHistogram()
        for ms in (0.5, 3.0, 40.0, 999.0, 99999.0):
            histogram.observe(ms)
        dump = self._dump(histogram.to_dict())
        assert checker.check(dump) == []

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda la: la.pop("p95"), "missing"),
        (lambda la: la.__setitem__("count", la["count"] + 1),
         "sum(latency bucket counts)"),
        (lambda la: la["buckets"][0].__setitem__(0, -1.0),
         "strictly increasing"),
        (lambda la: la["buckets"][-1].__setitem__(0, 123.0),
         "expected 'inf'"),
        (lambda la: la["buckets"][1].__setitem__(1, -2),
         "non-negative integers"),
        (lambda la: la.__setitem__("p50", la["p99"] + 1.0),
         "not ordered"),
    ])
    def test_broken_latency_blocks_fail(self, mutate, fragment):
        checker = self._checker()
        from repro.obs import LatencyHistogram
        histogram = LatencyHistogram()
        for ms in (0.5, 3.0, 40.0):
            histogram.observe(ms)
        latency = histogram.to_dict()
        mutate(latency)
        problems = checker.check(self._dump(latency))
        assert problems, "expected the gate to flag the mutation"
        assert any(fragment in p for p in problems), problems

    def test_speedup_field_validated(self):
        """The compiled-engine benches record a measured
        ``speedup_vs_seminaive`` ratio; the gate accepts positive
        numbers and rejects everything else (absent is fine)."""
        checker = self._checker()
        dump = self._dump(None)
        record = dump["benchmarks"][0]
        assert checker.check(dump) == []  # absent: no complaint
        record["extra_info"]["speedup_vs_seminaive"] = 6.4
        assert checker.check(dump) == []
        for bad in (0, -1.5, True, "6x", None):
            record["extra_info"]["speedup_vs_seminaive"] = bad
            problems = checker.check(dump)
            assert any("speedup_vs_seminaive" in p
                       for p in problems), bad


class TestTopCommand:
    def test_renders_dashboard_frames(self, serve_endpoint):
        point = serve_endpoint()
        point.post_query({"program": EVEN, "query": "even(0)"})
        out = io.StringIO()
        code = main(["top", "--url", point.url, "--iterations", "2",
                     "--interval", "0.01"], out=out)
        assert code == 0
        rendered = out.getvalue()
        assert f"repro top — {point.url}" in rendered
        assert "QPS" in rendered
        assert "p50" in rendered and "p99" in rendered
        assert "requests   1 total" in rendered
        # second frame has a rate (a number, not the "-" placeholder)
        frames = rendered.count("repro top —")
        assert frames == 2

    def test_unreachable_server_exits_2(self):
        out = io.StringIO()
        code = main(["top", "--url", "http://127.0.0.1:1",
                     "--iterations", "1"], out=out)
        assert code == 2

    def test_host_port_flags_build_url(self, serve_endpoint):
        point = serve_endpoint()
        out = io.StringIO()
        code = main(["top", "--host", "127.0.0.1",
                     "--port", str(point.port),
                     "--iterations", "1"], out=out)
        assert code == 0
        assert f"http://127.0.0.1:{point.port}" in out.getvalue()


class TestAccessLogDurability:
    def test_each_record_is_on_disk_before_write_returns(self,
                                                         tmp_path):
        """The log is line-buffered and flushed per record: a reader
        (or a crash) immediately after write() sees the full line —
        no close() required."""
        path = tmp_path / "access.log"
        log = AccessLog(path)
        log.write({"ts": 1.0, "trace_id": "t1", "method": "POST",
                   "path": "/query", "status": 200,
                   "duration_ms": 1.25})
        lines = path.read_text().splitlines()
        assert len(lines) == 1 == log.lines
        assert json.loads(lines[0])["trace_id"] == "t1"

    def test_reopening_appends_rather_than_truncates(self, tmp_path):
        path = tmp_path / "access.log"
        AccessLog(path).write({"run": 1})
        AccessLog(path).write({"run": 2})
        runs = [json.loads(line)["run"]
                for line in path.read_text().splitlines()]
        assert runs == [1, 2]
