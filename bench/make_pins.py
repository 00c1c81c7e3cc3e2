"""Regenerate pins.json: the default seed's answers, by the slow routes.

    python3 bench/make_pins.py        # about two minutes on a 2-core box

* eval workloads: the pointwise sieve `algorithm_m_sum` up to x = 3e7 (this
  covers every `mu` query); above that, `eval_with_split` at the second split
  point of reference.py, on a fresh evaluator per query, which must agree
  with `eval` at the evaluator's own split.
* parity: `segmented_prime_count`.
* sieve: the brute-force oracle (`brute_summatory_batch`).

Every pinned value is also compared with the run-time reference route of
reference.py, so the two routes vouch for each other.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_queries, query_key  # noqa: E402

SIEVE_PIN_MAX = 30_000_000


def pin_eval(queries):
    from subsum import SummatoryEvaluator, algorithm_m_sum

    out = {}
    for text, x in queries:
        ev = SummatoryEvaluator(text)
        if x <= SIEVE_PIN_MAX:
            out[query_key([text, x])] = algorithm_m_sum(ev.pointwise, x)
        else:
            value = ev.eval_with_split(x, reference.SECOND_SPLIT[text])
            if value != SummatoryEvaluator(text).eval(x):
                sys.exit(f"{text} at {x}: the two split points disagree")
            out[query_key([text, x])] = value
    return out


def pin_parity(queries):
    from subsum import segmented_prime_count

    return {query_key([a, b]): segmented_prime_count(a, b) & 1 for a, b in queries}


def pin_sieve(queries):
    from subsum import SummatoryEvaluator
    from subsum.oracle import brute_summatory_batch

    texts = sorted({text for text, _ in queries})
    xs = sorted({x for _, x in queries})
    table = brute_summatory_batch([SummatoryEvaluator(t).pointwise for t in texts], xs)
    return {query_key([t, x]): table[texts.index(t)][xs.index(x)] for t, x in queries}


PIN = {"eval_cold": pin_eval, "eval_shared": pin_eval, "parity": pin_parity, "sieve": pin_sieve}


def main():
    pins = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        queries = make_queries(workload, DEFAULT_SEED)
        pinned = PIN[workload](queries)
        runtime = reference.COMPUTE[workload](queries)
        bad = [key for key in pinned if pinned[key] != runtime[key]]
        if bad:
            sys.exit(f"{workload}: pinned and run-time references disagree at {bad}")
        pins[workload] = pinned
        print(f"{workload}: {len(pinned)} answers pinned", flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
