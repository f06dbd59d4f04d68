"""Launching ``repro serve`` and driving it over keep-alive HTTP.

The server always runs as a subprocess (so the load generator never
shares its interpreter lock) with its shipped defaults plus
``--port 0``; the tier additionally gets ``--workers 2 --cache FILE``.
Load comes from this process alone: at most 2 threads, each owning one
keep-alive connection.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Union

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_SERVE = os.path.join(HERE, "traced_serve.py")
REFERENCE = os.path.join(HERE, "reference.py")

#: Longest wait for a server to bind and print its address.
START_TIMEOUT = 60.0
#: Longest wait for a stopped server (and its workers) to exit.
STOP_TIMEOUT = 30.0
#: Per-request socket timeout.
REQUEST_TIMEOUT = 60.0

_ADDRESS = re.compile(r"serving on http://[^\s:]+:(\d+)")


class BenchmarkError(Exception):
    """The run cannot produce a valid measurement."""


def trace_id(phase: int, index: int) -> str:
    """The ``X-Repro-Trace-Id`` of one request: 16 hex characters, the
    first four naming the phase (so spans can be filtered by it)."""
    return f"{phase:04x}{index:012x}"


def phase_of(request_id: Union[str, None]) -> int:
    return int(request_id[:4], 16) if request_id else -1


class Server:
    """One ``repro serve`` subprocess (single process or tier)."""

    def __init__(self, root: str, extra: list,
                 span_dir: Union[str, None] = None):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        if span_dir is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            env["PERFBENCH_SPAN_DIR"] = span_dir
            command = [sys.executable, TRACED_SERVE, "serve"]
        command += ["--port", "0", *extra]
        self.port: Union[int, None] = None
        self.worker_pids: list = []
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self.port = self._await_address()

    def _await_address(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchmarkError(
                    f"repro serve exited with status "
                    f"{self.proc.returncode} before binding")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if ready:
                match = _ADDRESS.search(self.proc.stdout.readline())
                if match:
                    return int(match.group(1))
        self.stop()
        raise BenchmarkError("repro serve did not bind in time")

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=REQUEST_TIMEOUT)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stats(self) -> dict:
        stats = self.get("/stats")
        if "workers" in stats:
            self.worker_pids = [row["pid"] for row in stats["workers"]
                                if row.get("pid")]
        return stats

    def pids(self) -> list:
        return [self.proc.pid, *self.worker_pids]

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server's processes."""
        self.stats()
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError as exc:
                raise BenchmarkError(
                    f"cannot read the memory of server pid {pid}: "
                    f"{exc}") from exc
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown, which also stops a
        tier's workers), then wait for every process to end."""
        if self.proc.poll() is None:
            try:
                if self.port is not None:
                    self.stats()  # learn the tier's worker pids
            except (OSError, http.client.HTTPException, ValueError):
                pass
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT
        for pid in self.worker_pids:
            while _running(pid):
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    deadline = time.monotonic() + STOP_TIMEOUT
                time.sleep(0.05)


class Reference:
    """The reference server (:mod:`reference`) and one keep-alive
    connection to it."""

    #: Requests sent and discarded after start (imports, first
    #: allocations).
    WARMUP = 30

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, REFERENCE],
                                     stdout=subprocess.PIPE, text=True)
        self._connection = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("reference on port "):
                raise BenchmarkError("the reference server did not start")
            self._connection = http.client.HTTPConnection(
                "127.0.0.1", int(line.split()[-1]),
                timeout=REQUEST_TIMEOUT)
            self.burst(self.WARMUP)
        except BaseException:
            self.stop()
            raise

    def burst(self, count: int) -> list:
        """Send ``count`` reference requests one after another; their
        times in milliseconds."""
        body = json.dumps({"n": reference.WORK_SIZE})
        times = []
        for _ in range(count):
            started = time.monotonic()
            self._connection.request(
                "POST", "/", body, {"Content-Type": "application/json"})
            self._connection.getresponse().read()
            times.append((time.monotonic() - started) * 1e3)
        return times

    def stop(self) -> None:
        if self._connection is not None:
            self._connection.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class Connection:
    """One keep-alive connection POSTing single-request batches."""

    def __init__(self, port: int):
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT)

    def post(self, items: list, request_id: str) -> list:
        """POST ``items``; the list of response objects, or raises
        :class:`OSError`/:class:`http.client.HTTPException`/
        :class:`ValueError` on a transport or HTTP failure."""
        body = json.dumps({"requests": items}).encode("utf-8")
        self._connection.request(
            "POST", "/query", body,
            {"Content-Type": "application/json",
             "X-Repro-Trace-Id": request_id})
        response = self._connection.getresponse()
        payload = response.read()
        if response.status != 200:
            raise ValueError(f"HTTP {response.status}: {payload[:200]!r}")
        return json.loads(payload)["responses"]

    def close(self) -> None:
        self._connection.close()


class Sample:
    """The client-side record of one request."""

    __slots__ = ("request", "request_id", "due", "sent", "ready", "done",
                 "response")

    def __init__(self, request, request_id: str, due: float):
        self.request = request
        self.request_id = request_id
        self.due = due
        self.ready = due
        self.sent = self.done = 0.0
        self.response: Union[dict, None] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


def _send(connection: Connection, sample: Sample) -> None:
    sample.sent = time.monotonic()
    try:
        responses = connection.post([sample.request.wire()],
                                    sample.request_id)
        sample.response = responses[0] if len(responses) == 1 else None
    except (OSError, http.client.HTTPException, ValueError, KeyError):
        sample.response = None
    sample.done = time.monotonic()


def reconnecting(port: int, connection: Connection,
                 sample: Sample) -> Connection:
    """Send; after a failed request open a fresh connection so one
    broken socket cannot fail every later request."""
    _send(connection, sample)
    if sample.response is None:
        connection.close()
        connection = Connection(port)
    return connection


def never() -> bool:
    return False


def closed_loop(port: int, requests, seconds: float, phase: int,
                done=never, first: int = 0) -> list:
    """One connection, one request at a time, until ``seconds`` pass or
    ``done()`` turns true.  Request ids count from ``first``."""
    samples = []
    connection = Connection(port)
    stop_at = time.monotonic() + seconds
    try:
        for index, request in enumerate(requests, first):
            now = time.monotonic()
            if now >= stop_at or done():
                break
            sample = Sample(request, trace_id(phase, index), now)
            connection = reconnecting(port, connection, sample)
            samples.append(sample)
    finally:
        connection.close()
    return samples


def open_loop(port: int, requests, offsets: list, phase: int,
              connections: int, done=never, first: int = 0) -> list:
    """Send request ``i`` at ``start + offsets[i]`` over ``connections``
    threads, each with its own keep-alive connection, until the
    schedule ends or ``done()`` turns true; the requests sent.  Request
    ids count from ``first``.

    A request waits for a free connection when all are busy (that wait
    is the system's backlog and counts in its latency, which runs from
    the due time).  ``ready`` is when the request could first have gone
    out; ``sent - ready`` is the generator's own lag.
    """
    requests = list(itertools.islice(requests, len(offsets)))
    start = time.monotonic() + 0.05
    samples = [Sample(request, trace_id(phase, index), start + offset)
               for index, (request, offset)
               in enumerate(zip(requests, offsets), first)]
    cursor = iter(samples)
    lock = threading.Lock()

    def run() -> None:
        connection = Connection(port)
        try:
            while True:
                with lock:
                    sample = None if done() else next(cursor, None)
                if sample is None:
                    return
                sample.ready = max(sample.due, time.monotonic())
                delay = sample.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                connection = reconnecting(port, connection, sample)
        finally:
            connection.close()

    threads = [threading.Thread(target=run) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for sample in samples if sample.sent]


def warm_up(port: int, requests: list, phase: int) -> list:
    """Load the working set: one batched POST per 32 programs (the
    front-end forwards each worker's share of a batch in parallel)."""
    samples = []
    connection = Connection(port)
    try:
        for start in range(0, len(requests), 32):
            chunk = requests[start:start + 32]
            responses = connection.post([r.wire() for r in chunk],
                                        trace_id(phase, start))
            for request, response in zip(chunk, responses):
                sample = Sample(request, trace_id(phase, start), 0.0)
                sample.response = response
                samples.append(sample)
    finally:
        connection.close()
    return samples
