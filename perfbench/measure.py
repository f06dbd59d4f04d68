"""One run of one workload: set-up, timed phase, checks, metrics."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import generate
import host
import serving
import tracing
from oracle import Oracle
from serving import BenchmarkError, Server

PHASE_WARMUP, PHASE_TIMED, PHASE_PROBE = 0xa, 0xb, 0xc

#: Servers per end-to-end run: each is set up (``setup_s`` is the
#: median of their set-up times) and gets an equal share of the timed
#: phase and of the deadline probes, so that a server process that
#: happens to run fast or slow moves a run by a third of its effect.
SETUPS = 3
#: Deadline requests sent after the timed phases (cold-spec's stream
#: carries more; the overshoot is their median).  Each costs about
#: 10-30 ms.
PROBES = 90
#: A tier-mixed run is marked invalid in its record when the
#: generator's own p99 lag exceeds this (the schedule was not kept, so
#: the loop was not open).
LAG_BOUND_MS = 20.0
#: Largest allowed |Σ layer self times − Σ traced end-to-end times|,
#: as a share of the latter.
TRACE_TOLERANCE = 0.02
#: A traced run alternates untraced and traced windows this many
#: times (which of the two goes first alternates too).
TRACE_PAIRS = 4
#: ``trace.overhead_ratio`` outside this band is recorded as
#: unresolved: host noise, not the spans, decided it.
TRACE_RATIO_BAND = (0.9, 1.3)
#: Share of deadline requests dropped from each end before their
#: overshoot is averaged.
OVERSHOOT_TRIM = 0.1
#: Reference requests per burst (see :mod:`reference`); a run sends a
#: burst just before and just after each server's timed share.
REFERENCE_BURST = 150
#: The reference request's median time (ms) on the host the benchmark
#: was written on (2-core VM, quiet stretch): timing metrics are scaled
#: to a host on which the reference takes this long.
REFERENCE_MS = 2.5
#: Connections (and generator threads) per workload.
CONNECTIONS = {"warm-ask": 1, "cold-spec": 1, "tier-mixed": 2}
#: The tail percentile each workload supports: at least ten samples
#: lie beyond it in a run.
TAIL = {"warm-ask": 99, "cold-spec": 90, "tier-mixed": 99}
WORKERS = 2

END_TO_END = {
    "setup_s": "s", "latency_ms_p50": "ms", "latency_ms_tail": "ms",
    "throughput_rps": "1/s", "success_ratio": "ratio",
    "deadline_overshoot_ms_mean": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serve.server.overhead_ms_p50": "ms",
    "serve.router.hop_ms_p50": "ms",
    "serve.router.hop_ms_p99": "ms",
    "serve.router.retried_requests": "count",
    "serve.router.routing_key_us_p50": "us",
    "serve.workers.balance": "ratio",
    "serve.workers.restarts": "count",
    "serve.service.self_ms_p50": "ms",
    "serve.service.degraded_ratio": "ratio",
    "serve.service.spec_computes": "count",
    "core.tdd.from_text_per_request": "ratio",
    "core.tdd.from_text_ms_p50": "ms",
    "serve.cache.tdd_key_ms_p50": "ms",
    "serve.cache.lookup_us_p50": "us",
    "serve.cache.mem_hit_ratio": "ratio",
    "serve.cache.disk_hits": "count",
    "serve.cache.evictions": "count",
    "serve.cache.put_ms_p50": "ms",
    "core.queries.parse_query_us_p50": "us",
    "core.queries.evaluate_us_p50": "us",
    "core.queries.answers_us_p50": "us",
    "temporal.bt.windows_per_spec": "count",
    "temporal.bt.wasted_window_ratio": "ratio",
    "temporal.bt.evaluate_window_ms_per_spec": "ms",
    "temporal.bt.evaluate_window_share": "ratio",
    "datalog.compiled.to_temporal_store_ms_per_spec": "ms",
    "temporal.store.states_ms_per_spec": "ms",
    "temporal.periodicity.find_minimal_period_ms_per_spec": "ms",
    "core.spec.spec_from_result_ms_p50": "ms",
    "core.spec.primary_facts_p50": "count",
    "bench.generator_lag_ms_p99": "ms",
    "trace.overhead_ratio": "ratio",
}


def percentile(values: list, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def trimmed_mean(values: list) -> float:
    """Mean of the middle ``1 - 2 * OVERSHOOT_TRIM`` of ``values`` (0 for
    none).  Used for the deadline overshoot: deadline requests return in
    two clusters a few milliseconds apart as the host speeds up and
    slows down (the clusters last a few hundred milliseconds), so a
    median jumps between the clusters from run to run where the trimmed
    mean moves with their shares."""
    ordered = sorted(values)
    trim = int(len(ordered) * OVERSHOOT_TRIM)
    middle = ordered[trim:len(ordered) - trim]
    return statistics.mean(middle) if middle else 0.0


def nproc() -> int:
    """Cores this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def environment(root: str, servers: int) -> dict:
    """What a result must be read against."""
    from repro.serve.cache import SpecCache
    from repro.serve.service import PARSE_MEMO_SIZE
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": nproc(), "python": platform.python_version(),
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "server_processes": servers,
            "parse_memo_size": PARSE_MEMO_SIZE,
            "spec_cache_memory_size": SpecCache().memory_size}


class Run:
    """Drives one workload against fresh servers and checks answers."""

    def __init__(self, root: str, name: str, seed: int, seconds: float,
                 rate: float, flip_answer=None):
        self.root = root
        self.name = name
        self.seconds = seconds
        self.rate = rate
        self.flip_answer = flip_answer
        connections = CONNECTIONS[name]
        cores = nproc()
        if connections > cores:
            raise BenchmarkError(
                f"{name} needs {connections} generator threads and "
                f"connections, more than nproc={cores}")
        self.workload = generate.make(name, seed)
        self.oracle = Oracle(self.workload)
        self.scratch = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        os.makedirs(self.scratch, exist_ok=True)
        self._caches = 0
        self.checked = self.failed = 0
        self.reference = None

    def close(self) -> None:
        if self.reference is not None:
            self.reference.stop()
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- servers ---------------------------------------------------------

    def _server_args(self) -> list:
        if self.name != "tier-mixed":
            return []
        self._caches += 1
        cache = os.path.join(self.scratch, f"specs-{self._caches}.sqlite")
        return ["--workers", str(WORKERS), "--cache", cache]

    def setup(self, span_dir=None) -> tuple:
        """Launch a server and load the working set; (server, seconds)."""
        started = time.monotonic()
        server = Server(self.root, self._server_args(), span_dir)
        try:
            self._check(serving.warm_up(server.port,
                                        self.workload.warmup_requests(),
                                        PHASE_WARMUP))
        except BaseException:
            server.stop()
            raise
        return server, time.monotonic() - started

    def timed(self, server: Server, seconds: float, requests,
              done=serving.never, first: int = 0) -> list:
        """Send the next of ``requests`` (an iterator over the
        workload's stream) for at most ``seconds``, or until
        ``done()``."""
        if self.name == "tier-mixed":
            offsets = self.workload.schedule(self.rate, seconds)
            return serving.open_loop(server.port, requests, offsets,
                                     PHASE_TIMED, CONNECTIONS[self.name],
                                     done, first)
        return serving.closed_loop(server.port, requests, seconds,
                                   PHASE_TIMED, done, first)

    # -- answers ---------------------------------------------------------

    def _check(self, samples: list) -> None:
        for sample in samples:
            self.checked += 1
            if not self.oracle.check(sample.request, sample.response):
                self.failed += 1

    def _flip(self, samples: list) -> None:
        """Self-test hook: negate the n-th boolean answer."""
        if self.flip_answer is None:
            return
        answers = [s for s in samples if s.response
                   and isinstance(s.response.get("answer"), bool)]
        if answers:
            target = answers[self.flip_answer % len(answers)].response
            target["answer"] = not target["answer"]

    # -- metrics ---------------------------------------------------------

    def _metrics(self, shares: list, scaled: bool = True) -> dict:
        """Timing metrics over the servers' shares of a run.  Each share
        holds its set-up time, kept samples, kept seconds, kept deadline
        probes and speed factor; with ``scaled`` every time of a share is
        multiplied by its factor (an open loop's throughput is its
        offered rate and is left alone)."""
        def factor(share: dict) -> float:
            return share["speed"] if scaled else 1.0

        latencies = [s.latency_ms * factor(share) for share in shares
                     for s in share["timed"]]
        overshoots = [(s.done - s.sent - s.request.deadline) * 1e3
                      * factor(share) for share in shares
                      for s in share["timed"] + share["probes"]
                      if s.request.deadline is not None]
        answered = sum(1 for share in shares for s in share["timed"]
                       if s.response and s.response.get("ok"))
        seconds = sum(share["seconds"] * (1.0 if self.name == "tier-mixed"
                                          else factor(share))
                      for share in shares)
        return {
            "setup_s": statistics.median(share["setup_s"] * factor(share)
                                         for share in shares),
            "latency_ms_p50": percentile(latencies, 50),
            "latency_ms_tail": percentile(latencies, TAIL[self.name]),
            "throughput_rps": answered / seconds if seconds > 0 else 0.0,
            "deadline_overshoot_ms_mean": trimmed_mean(overshoots),
        }

    def end_to_end(self) -> tuple:
        """The ``--trace 0`` run: (metrics, details).

        ``SETUPS`` servers run one after another, each timed for an
        equal share of ``seconds`` and then sent its share of the
        deadline probes.  Each share runs on until the host has given
        it its seconds of quiet windows (or ``host.EXTEND`` times
        that), and the timing metrics use its whole blocks of the
        request stream with the least steal (see :mod:`host`).  The
        times of each share are then scaled to the reference host
        speed: by ``REFERENCE_MS`` over the median time of the reference
        requests sent in bursts just before and after it (see
        :mod:`reference`)."""
        share_s = self.seconds / SETUPS
        block = self.workload.block
        requests = self.workload.requests()
        probe_requests = self.workload.probe_requests(PROBES)
        shares, samples, probes, windows, rss = [], [], [], [], []
        self.reference = serving.Reference()
        for index in range(SETUPS):
            server, seconds = self.setup()
            try:
                reference_ms = self.reference.burst(REFERENCE_BURST)
                with host.StealMeter() as meter:
                    got = self.timed(
                        server, share_s * host.EXTEND, requests,
                        done=lambda: meter.clean_seconds() >= share_s,
                        first=len(samples))
                    asked = serving.closed_loop(
                        server.port, iter(probe_requests[index::SETUPS]),
                        float("inf"), PHASE_PROBE, first=len(probes))
                reference_ms += self.reference.burst(REFERENCE_BURST)
                rss.append(server.peak_rss_mb())
                processes = len(server.pids())
            finally:
                server.stop()
            samples += got
            probes += asked
            # Whole blocks only: a trailing part-block is checked but
            # not timed.
            blocks = [got[i:i + block]
                      for i in range(0, len(got) - block + 1, block)]
            spans = [(b[0].due, max(s.done for s in b)) for b in blocks]
            steals = [meter.steal_between(*span) for span in spans]
            lengths = [end - start for start, end in spans]
            kept = host.quietest(steals, lengths, share_s)
            kept_s = sum(lengths[i] for i in kept)
            # The deadline probes: those sent in quiet windows, and at
            # least the quieter half of them.
            ranked = sorted(asked, key=lambda s: meter.steal_between(
                s.sent, s.done))
            quiet = sum(1 for s in ranked if meter.steal_between(
                s.sent, s.done) <= host.STEAL_BOUND)
            reference_p50 = statistics.median(reference_ms)
            shares.append({
                "setup_s": seconds,
                "timed": [s for i in sorted(kept) for s in blocks[i]],
                "seconds": kept_s,
                "probes": ranked[:max(quiet, (len(ranked) + 1) // 2)],
                "speed": REFERENCE_MS / reference_p50,
                "steal": (sum(steals[i] * lengths[i] for i in kept) / kept_s
                          if kept_s else 0.0)})
            windows.append(dict(meter.summary(), blocks=len(blocks),
                                blocks_kept=len(kept),
                                reference_ms_p50=reference_p50))
        self._flip(samples)
        self._check(samples + probes)
        metrics = self._metrics(shares)
        metrics["success_ratio"] = (self.checked - self.failed) / self.checked
        metrics["peak_rss_mb"] = statistics.median(rss)
        timed = [s for share in shares for s in share["timed"]]
        details = self._details(timed, processes)
        kept_s = sum(share["seconds"] for share in shares)
        steal = (sum(share["steal"] * share["seconds"] for share in shares)
                 / kept_s if kept_s else 0.0)
        if steal > host.STEAL_NOISY:
            self._invalid(details,
                          f"the timed blocks lost {steal:.0%} of their CPU "
                          f"to host steal (more than "
                          f"{host.STEAL_NOISY:.0%})")
        details.update(unscaled=self._metrics(shares, scaled=False),
                       speed=[share["speed"] for share in shares],
                       peak_rss_mb=rss, host=windows, steal_kept=steal,
                       block=block, sent=len(samples),
                       timed_seconds=kept_s,
                       deadline_samples=sum(
                           1 for share in shares
                           for s in share["timed"] + share["probes"]
                           if s.request.deadline is not None))
        return metrics, details

    @staticmethod
    def _invalid(details: dict, reason: str) -> None:
        """Mark the run record invalid: the run still reports, but its
        numbers measured the host (or the generator) as much as the
        program."""
        details["valid"] = False
        details.setdefault("invalid_reasons", []).append(reason)
        print(f"warning: run invalid: {reason}", file=sys.stderr)

    def _details(self, samples: list, processes: int) -> dict:
        lag = [(s.sent - s.ready) * 1e3 for s in samples]
        details = environment(self.root, processes)
        details.update(
            workload=self.name, seed=self.workload.seed,
            seconds=self.seconds, samples=len(samples),
            tail_percentile=TAIL[self.name],
            connections=CONNECTIONS[self.name],
            working_set=len(self.workload.working_set),
            cold_requests=sum(1 for s in samples if s.request.cold),
            generator_lag_ms_p99=percentile(lag, 99),
            lag_bound_ms=LAG_BOUND_MS)
        details["valid"] = True
        if self.name == "tier-mixed":
            details["rate_rps"] = self.rate
            if details["generator_lag_ms_p99"] > LAG_BOUND_MS:
                self._invalid(details,
                              f"generator lag p99 "
                              f"{details['generator_lag_ms_p99']:.1f} ms "
                              f"exceeds {LAG_BOUND_MS} ms, so the schedule "
                              f"was not kept")
        return details

    def traced(self) -> tuple:
        """The ``--trace 1`` run: an untraced server (response fields,
        ``/stats`` counters) and a traced one (layer spans), both up
        at once and driven in alternating windows, so that host noise
        falls on both alike."""
        span_dir = os.path.join(self.scratch, "spans")
        os.makedirs(span_dir, exist_ok=True)
        servers = {}
        try:
            servers[False], _ = self.setup()
            servers[True], _ = self.setup(span_dir)
            before = servers[False].stats()
            streams = {False: self.workload.requests(),
                       True: self.workload.requests()}
            halves = {False: [], True: []}
            window = self.seconds / (2 * TRACE_PAIRS)
            ratios = []
            for pair in range(TRACE_PAIRS):
                p50 = {}
                for traced in ((False, True) if (pair + self.workload.seed)
                               % 2 == 0 else (True, False)):
                    got = self.timed(servers[traced], window,
                                     streams[traced],
                                     first=len(halves[traced]))
                    halves[traced] += got
                    p50[traced] = percentile(
                        [s.latency_ms for s in got], 50)
                if p50[False]:
                    ratios.append(p50[True] / p50[False])
            after = servers[False].stats()
            processes = len(servers[False].pids())
        finally:
            for server in servers.values():
                server.stop()
        plain, traced = halves[False], halves[True]
        self._check(plain + traced)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(self._counters(before, after, plain))
        spans = [s for s in tracing.load_spans(span_dir)
                 if serving.phase_of(s["request"]) == PHASE_TIMED]
        pid = os.getpid()
        for index, sample in enumerate(traced):
            spans.append({"name": tracing.CLIENT_SPAN,
                          "start": int(sample.sent * 1e9),
                          "end": int(sample.done * 1e9),
                          "id": f"{pid}:{index}", "parent": None,
                          "request": sample.request_id, "pid": pid,
                          "error": sample.response is None})
        analysis = tracing.Analysis(spans, len(traced))
        metrics.update(analysis.metrics())
        error = analysis.accounting_error()
        if error > TRACE_TOLERANCE:
            raise BenchmarkError(
                f"layer self times differ from the traced end-to-end "
                f"time by {error:.1%} (tolerance {TRACE_TOLERANCE:.0%})")
        ratio = statistics.median(ratios) if ratios else 0.0
        metrics["trace.overhead_ratio"] = ratio
        details = self._details(plain, processes)
        metrics["bench.generator_lag_ms_p99"] = details[
            "generator_lag_ms_p99"]
        low, high = TRACE_RATIO_BAND
        details.update(
            trace_accounting_error=error,
            trace_tolerance=TRACE_TOLERANCE,
            trace_overhead_ratios=ratios,
            trace_overhead_band=list(TRACE_RATIO_BAND),
            trace_overhead_resolved=low <= ratio <= high,
            traced_latency_ms_p50=percentile(
                [s.latency_ms for s in traced], 50),
            untraced_latency_ms_p50=percentile(
                [s.latency_ms for s in plain], 50),
            self_ms_per_request=analysis.self_ms_per_request())
        return metrics, details

    def _counters(self, before: dict, after: dict, samples: list) -> dict:
        """Per-layer numbers from response fields and ``/stats``."""
        def delta(block: str, name: str) -> int:
            return after[block][name] - before[block][name]

        # The service's own time (tier: the worker's) against the
        # client's, from send to receipt.
        gaps = [(s.done - s.sent) * 1e3 - s.response["duration_ms"]
                for s in samples
                if s.response and s.response.get("ok")]
        requests = delta("serve", "requests")
        lookups = delta("cache", "lookups")
        metrics = {
            "serve.service.degraded_ratio":
                delta("serve", "degraded") / requests if requests else 0.0,
            "serve.service.spec_computes": delta("serve", "spec_computes"),
            "serve.cache.mem_hit_ratio":
                delta("cache", "mem_hits") / lookups if lookups else 0.0,
            "serve.cache.disk_hits": delta("cache", "disk_hits"),
            "serve.cache.evictions": delta("cache", "evictions"),
        }
        if "frontend" not in after:
            metrics["serve.server.overhead_ms_p50"] = percentile(gaps, 50)
            return metrics
        routed_before = before["frontend"]["routed"]
        shares = [count - routed_before.get(worker, 0)
                  for worker, count in after["frontend"]["routed"].items()]
        metrics.update({
            "serve.router.hop_ms_p50": percentile(gaps, 50),
            "serve.router.hop_ms_p99": percentile(gaps, 99),
            "serve.router.retried_requests":
                delta("frontend", "retried_requests"),
            "serve.workers.balance": (min(shares) / max(shares)
                                      if len(shares) == WORKERS
                                      and max(shares) else 0.0),
            "serve.workers.restarts": delta("frontend", "worker_restarts"),
        })
        return metrics
