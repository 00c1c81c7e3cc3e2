"""One workload process: set up, answer the warm-up query, run the timed pass.

Started by run.py in a fresh interpreter, so module-level tables built on
first use count as set-up.  --spawned-at is the parent's wall clock just
before the spawn; set-up time runs from there to the warm-up answer.  Reads
the queries as JSON on stdin, then (unless --setup-only) runs the closed
loop, and prints one JSON line with the set-up time and every sample.

    python3 bench/worker.py --workload eval_cold --spawned-at T --seconds 20 \
        [--trace] [--count N] < queries.json

The loop cycles through the query list in the order given, one query at a
time, and stops after the first completed query past the deadline (never
before every query has run once), or after exactly --count queries.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    queries = json.load(sys.stdin)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Runner

    runner = Runner(args.workload, lambda name, fn: fn)
    ok = runner.warmup()
    out = {"setup_s": time.time() - args.spawned_at, "warmup_ok": ok}
    if args.setup_only or not ok:
        print(json.dumps(out), flush=True)
        return

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        runner = Runner(args.workload, tracer.span, tracer)

    samples = []
    n = len(queries)
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while True:
        if i % n == 0:
            runner.new_round()
        query = queries[i % n]
        t0 = time.perf_counter()
        try:
            answer = runner.run(query)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        samples.append([i % n, time.perf_counter() - t0, answer])
        i += 1
        if i == n:  # every query has run once; later rounds only fragment the heap
            out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.count is not None:
            if i >= args.count:
                break
        elif i >= n and time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start

    out["elapsed_s"] = elapsed
    out["samples"] = samples
    if args.trace:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
