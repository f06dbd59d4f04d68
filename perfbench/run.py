"""The repo benchmark: ``python3 perfbench/run.py --workload NAME``.

Run from the root of a checkout.  Drives ``repro serve`` (built from the
checkout's ``src/``) with one of the workloads ``warm-ask``,
``cold-spec`` or ``tier-mixed``, checks every answer against references
computed in this process, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  The line
before it is a JSON record of the run (environment, sample counts,
working-set size against the program's cache sizes).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys

EXIT_NO_RESULT = 2
EXIT_WRONG = 1


def parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm-ask", "cold-spec", "tier-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=60.0,
                        help="tier-mixed open-loop request rate (1/s)")
    parser.add_argument("--flip-answer", type=int, default=None,
                        metavar="N",
                        help="self-test: negate the N-th boolean answer "
                             "before checking (the run must fail)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("error: run from the root of a checkout (no src/repro "
              "here)", file=sys.stderr)
        return EXIT_NO_RESULT
    sys.path.insert(0, os.path.join(root, "src"))
    from measure import END_TO_END, PER_LAYER, Run
    from oracle import DeadlineIgnored, WrongAnswer
    from serving import BenchmarkError

    try:
        run = Run(root, args.workload, args.seed, args.seconds, args.rate,
                  flip_answer=args.flip_answer)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    correct = True
    try:
        metrics, details = run.traced() if args.trace else run.end_to_end()
    except (WrongAnswer, DeadlineIgnored) as exc:
        # The program answered wrongly, or answered a request whose
        # deadline it cannot meet off the degraded path: the run fails.
        print(f"error: {exc}", file=sys.stderr)
        correct, metrics, details = False, {}, {"wrong_answer": str(exc)}
    except (BenchmarkError, OSError, http.client.HTTPException,
            ValueError) as exc:
        # No measurement (a server that did not start or answer the
        # warm-up): no result line.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    finally:
        run.close()
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"perfbench": details}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.checked, 1),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else EXIT_WRONG


if __name__ == "__main__":
    sys.exit(main())
