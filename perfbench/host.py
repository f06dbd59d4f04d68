"""The host's CPU steal, sampled in windows while a run measures.

On a virtual machine the hypervisor can take CPU time away from the
guest; ``/proc/stat`` counts it as *steal*.  Steal slows every process
of a run at once (client, server, tier workers), and on a 2-core VM
each point of steal slows a closed-loop request by two to three.  A run
therefore times in whole *blocks* of its request stream (a block holds
every kind of request at its share, see ``Workload.block``) and keeps
the quietest of them:

* the timed phase runs until the host has given it the asked-for
  seconds of windows with steal at most :data:`STEAL_BOUND`, or until
  :data:`EXTEND` times the asked-for seconds have passed;
* the timing metrics use the blocks with the least steal, as many as
  cover the asked-for seconds (all answers are still checked);
* a run whose kept blocks lost more than :data:`STEAL_NOISY` of their
  CPU on average is marked ``valid: false`` in the run record: it
  measured the host as much as the program.

Blocks are kept by steal alone, never by latency, so a change that
slows the program slows the kept blocks as much as the others.
"""

from __future__ import annotations

import threading
import time

#: Window length (seconds) over which steal is measured.
WINDOW_S = 0.25
#: A window is clean while steal took at most this share of its CPU
#: time (all cores).
STEAL_BOUND = 0.05
#: The timed phase may run this many times its asked-for length while
#: it collects clean windows.
EXTEND = 1.2
#: A run whose kept blocks lost more than this share of their CPU time
#: to steal, on average, is marked invalid in the run record.
STEAL_NOISY = 0.2


def cpu_ticks() -> tuple:
    """(steal, total) jiffies over all cores; (0, 0) where
    ``/proc/stat`` cannot be read (steal then reads as 0)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return 0, 0
    values = [int(field) for field in fields]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values)


class StealMeter:
    """Closes a window every :data:`WINDOW_S` seconds in a background
    thread and records ``(start, end, steal share)`` for it."""

    def __init__(self, length: float = WINDOW_S):
        self.length = length
        self.starts: list = []
        self.ends: list = []
        self.shares: list = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._tick, daemon=True)
        self._mark = (0.0, (0, 0))

    def __enter__(self) -> "StealMeter":
        self._mark = (time.monotonic(), cpu_ticks())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._close()

    def _tick(self) -> None:
        while not self._stop.wait(self.length):
            self._close()

    def _close(self) -> None:
        now, ticks = time.monotonic(), cpu_ticks()
        with self._lock:
            start, (steal, total) = self._mark
            if now <= start:
                return
            spent = ticks[1] - total
            share = (ticks[0] - steal) / spent if spent > 0 else 0.0
            self.starts.append(start)
            self.ends.append(now)
            self.shares.append(share)
            self._mark = (now, ticks)

    def clean_seconds(self) -> float:
        """Seconds of closed clean windows."""
        with self._lock:
            return sum(end - start for start, end, share
                       in zip(self.starts, self.ends, self.shares)
                       if share <= STEAL_BOUND)

    def steal_between(self, since: float, until: float) -> float:
        """Steal share of the closed windows overlapping [since, until],
        weighted by their overlap with it (0 where none does)."""
        spent = stolen = 0.0
        with self._lock:
            for start, end, share in zip(self.starts, self.ends,
                                         self.shares):
                overlap = min(end, until) - max(start, since)
                if overlap > 0:
                    spent += overlap
                    stolen += share * overlap
        return stolen / spent if spent else 0.0

    def summary(self) -> dict:
        """For the run record."""
        spent = sum(end - start for start, end
                    in zip(self.starts, self.ends))
        return {
            "steal_share": (sum(share * (end - start) for start, end, share
                                in zip(self.starts, self.ends,
                                       self.shares)) / spent
                            if spent else 0.0),
            "windows": len(self.shares),
            "clean_windows": sum(1 for s in self.shares
                                 if s <= STEAL_BOUND),
        }


def quietest(steals: list, lengths: list, seconds: float) -> set:
    """Indices of the blocks with the least steal (``steals[i]``, ties
    to the earlier block), taken in order of steal until their
    ``lengths`` cover ``seconds``."""
    chosen, covered = set(), 0.0
    for i in sorted(range(len(steals)), key=lambda i: (steals[i], i)):
        if covered >= seconds:
            break
        chosen.add(i)
        covered += lengths[i]
    return chosen
