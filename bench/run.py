"""The subsum benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload eval_cold --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are found from this
file).  Each workload is a closed loop: one client, one worker process, no
threads.  The steps of one run:

1. Make the seed's queries (workloads.py).
2. --trace 0: start SETUP_RUNS fresh interpreters, half of the extra ones
   before and half after the one that runs the timed pass; each imports
   subsum and answers a tiny warm-up query.  setup_s is their median time
   from spawn to that answer.  The pass runs for --seconds and gives
   throughput, latencies and peak RSS.
   --trace 1: run the untraced pass, then a traced pass over exactly the same
   queries in a second fresh worker; report the per-layer split, the fitted
   exponents (eval_cold) and traced/untraced wall time.
3. Check every answer against reference.py; a mismatch or exception counts
   as failed.  The traced run also checks its counters (self_check).
4. Print a readable report, then the result object as the last line.

Exits non-zero without a result when subsum's sources are missing or a
worker dies.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from math import isqrt
from pathlib import Path

# One process, no threads: numpy's BLAS would start a thread per core at
# import, which spins on the other core and made set-up time swing by 30 %.
# Set before numpy loads here; the workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import metrics  # noqa: E402
import reference  # noqa: E402
from workloads import DEFAULT_SEED, EXPRESSIONS, WORKLOADS, make_queries, query_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
RUN_BUDGET_S = 170  # a whole run, workers included, ends within this


class WorkerError(RuntimeError):
    pass


def spawn(workload, queries, deadline, *extra):
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--spawned-at", repr(time.time()), *extra]
    try:
        done = subprocess.run(cmd, input=json.dumps(queries), capture_output=True, text=True,
                              cwd=ROOT, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker for {workload} ran past the {RUN_BUDGET_S} s run budget") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerError(f"worker for {workload} failed (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Checked:
    """Samples of one pass, checked against the references."""

    def __init__(self, queries, result, refs):
        self.elapsed = result["elapsed_s"]
        whole = len(result["samples"]) // len(queries) * len(queries)
        # Latency statistics use whole rounds only, so every query weighs the same.
        self.latencies = [latency for _, latency, _ in result["samples"][:whole]]
        self.attempted = len(result["samples"])
        self.distinct = len({qi for qi, _, _ in result["samples"]})
        self.failures = []
        for qi, _, answer in result["samples"]:
            want = refs.get(query_key(queries[qi]))
            if answer != want:
                self.failures.append((queries[qi], answer, want))

    @property
    def correct(self):
        return self.attempted - len(self.failures)


def describe_pass(checked):
    print(f"timed pass: {checked.attempted} queries ({checked.distinct} distinct) "
          f"in {checked.elapsed:.2f} s")


def end_to_end(setups, passed, checked):
    tail, pct, n = metrics.tail(checked.latencies)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_qps": checked.correct / checked.elapsed,
        "latency_p50_s": statistics.median(checked.latencies),
        "latency_tail_s": tail,
        "peak_rss_mib": passed["rss_mib"],
    }
    print(f"setup runs: {len(setups)} fresh interpreters, "
          f"{', '.join(f'{s:.3f}' for s in sorted(setups))} s")
    print(f"latency_tail_s is p{pct:.1f}: {metrics.TAIL_BEYOND} of {n} samples lie beyond it")
    return values


def fits(queries, samples):
    """combinator.fit_slope/fit_gap per expression; 0 where it has no samples."""
    from subsum import expr_deceleration, parse_expr

    points = defaultdict(list)
    for qi, latency, _ in samples:
        text, x = queries[qi]
        points[text].append((x, latency))
    out = {}
    for text, (slug, _, _) in EXPRESSIONS.items():
        slope = gap = 0.0
        if len(points[text]) >= 2:
            slope = metrics.loglog_slope(points[text])
            gap = slope - float(expr_deceleration(parse_expr(text)))
            print(f"fit {text!r}: slope {slope:.3f}, symbolic {expr_deceleration(parse_expr(text))}")
        out[f"combinator.fit_slope.{slug}"] = {"value": slope, "unit": "exponent"}
        out[f"combinator.fit_gap.{slug}"] = {"value": gap, "unit": "exponent"}
    return out


def self_check(workload, queries, traced, values, absent):
    """Counter self-check of the traced run; returns a list of problems."""
    problems = []
    for name in metrics.nonzero_counters(workload):
        if name not in absent and not values[name]["value"]:
            problems.append(f"{name} is 0 on {workload}")
    if workload == "eval_cold" and "base_summatory.mertens.calls" not in absent:
        got = traced["trace"]["by_tag"]["base_summatory.mertens"].get("mu * id", 0)
        want = sum(isqrt(isqrt(queries[qi][1])) for qi, _, _ in traced["samples"]
                   if queries[qi][0] == "mu * id")
        print(f"self-check: mertens calls under 'mu * id' {got}, sum of ikrt(x, 4) {want}")
        if got != want:
            problems.append(f"mertens calls under 'mu * id' {got} != sum ikrt(x, 4) {want}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "subsum" / "__init__.py").is_file():
        sys.exit(f"error: subsum sources not found under {SRC}")
    sys.path.insert(0, str(SRC))

    queries = make_queries(args.workload, args.seed)
    seconds = str(args.seconds)
    print(f"workload {args.workload}, seed {args.seed}, {len(queries)} distinct queries, "
          f"closed loop, 1 client")
    try:
        if args.trace:
            passed = spawn(args.workload, queries, deadline, "--seconds", seconds)
            count = str(len(passed["samples"]))
            traced = spawn(args.workload, queries, deadline, "--count", count, "--trace")
            runs = [passed, traced]
        else:
            # Probes before and after the pass sample the machine at two times.
            probes = [spawn(args.workload, [], deadline, "--setup-only")["setup_s"]
                      for _ in range((SETUP_RUNS - 1) // 2)]
            passed = spawn(args.workload, queries, deadline, "--seconds", seconds)
            probes += [spawn(args.workload, [], deadline, "--setup-only")["setup_s"]
                       for _ in range(SETUP_RUNS - 1 - len(probes))]
            setups = probes + [passed["setup_s"]]
            runs = [passed]
    except WorkerError as exc:
        sys.exit(f"error: {exc}")

    if not all(run["warmup_ok"] for run in runs):
        print("warm-up answer wrong")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return

    t0 = time.perf_counter()
    refs = reference.references(args.workload, queries, args.seed)
    print(f"references: {len(refs)} answers in {time.perf_counter() - t0:.2f} s")
    checks = [Checked(queries, run, refs) for run in runs]
    attempted = sum(c.attempted for c in checks)
    failures = [f for c in checks for f in c.failures]
    for query, answer, want in failures[:5]:
        print(f"FAILED {query}: got {answer}, want {want}")

    describe_pass(checks[0])
    problems, moves = [], {}
    if args.trace:
        values, absent = metrics.per_layer_metrics(traced["trace"])
        moves = {name: (m, where) for name, _, _, m, where in metrics.per_layer_specs()}
        untraced = passed["samples"] if args.workload == "eval_cold" else []
        values.update(fits(queries, untraced))
        values["trace.overhead_ratio"] = {"value": traced["elapsed_s"] / passed["elapsed_s"],
                                         "unit": "ratio"}
        problems = self_check(args.workload, queries, traced, values, absent)
        for name in absent:
            print(f"absent: {name} (its wrapped name no longer exists)")
        for problem in problems:
            print(f"SELF-CHECK FAILED: {problem}")
    else:
        e2e = end_to_end(setups, passed, checks[0])
        values = {name: {"value": v, "unit": metrics.END_TO_END[name][0]} for name, v in e2e.items()}

    for name, metric in values.items():
        note = f"  (moves {moves[name][0]}; mostly in {moves[name][1]})" if name in moves else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": values,
    }))


if __name__ == "__main__":
    main()
