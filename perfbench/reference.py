"""The reference server: the benchmark's yardstick for host speed.

The benchmark runs on shared virtual machines whose speed drifts by a
third or more over minutes, with no steal to show for it (a neighbour
busy on the shared caches, memory bus or clock).  Every process of a
run slows alike, so a run times this fixed server too, in bursts next
to its timed phases, and scales its timing metrics by
``REFERENCE_MS / median reference time`` (see :mod:`measure`).

The server is the benchmark's own code, never the program's: a change
to the program leaves the reference time alone and shows in full.  Each
request does what the program's requests do in miniature, in the same
interpreter: an HTTP round trip on a keep-alive connection, a JSON body
in and out, and a fixed fixpoint over a small relation with sets,
dicts and tuples.

Run as ``python3 perfbench/reference.py``; it prints its port and
serves until terminated.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

#: Size of the relation each request closes over.
WORK_SIZE = 2000


def work(n: int) -> int:
    """Reachability from 0 over the edges ``i -> 7i + 3 mod n``, by a
    semi-naive fixpoint, plus a pass of integer formatting."""
    successors: dict = {}
    for a, b in {(i, (i * 7 + 3) % n) for i in range(n)}:
        successors.setdefault(a, []).append(b)
    reached, frontier = set(), {0}
    while frontier:
        new = set()
        for a in frontier:
            for b in successors.get(a, ()):
                if b not in reached:
                    reached.add(b)
                    new.add(b)
        frontier = new
    return len(reached) + sum(len(str(i)) for i in range(n))


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Header and body go out as separate writes; without this the
    # client's delayed ACK adds 40 ms to every request.
    disable_nagle_algorithm = True

    def do_POST(self) -> None:
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        body = json.dumps({"ok": True,
                           "answer": work(request["n"])}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    server = HTTPServer(("127.0.0.1", 0), Handler)
    print(f"reference on port {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
