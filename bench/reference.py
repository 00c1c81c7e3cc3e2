"""Reference answers, computed away from the code paths being timed.

For the default seed the answers are pinned in `pins.json` (see
`make_pins.py`).  For any other seed they are computed here, after the timed
pass, by routes the timed pass does not take:

* Mertens values: `mertens_ref`, a numpy quotient-array implementation with
  its own Moebius sieve (no `subsum` code).
* Prime-count parity: `prime_count_ref`, a numpy segmented sieve.
* Convolution expressions with x <= SIEVE_REF_MAX: prefix sums of the
  pointwise sieve `algorithm_m` over the expression's descriptor.
* Larger convolution expressions: `eval_with_split` at a second split point
  (the evaluator's own split + 1/20, listed in SECOND_SPLIT), on one
  evaluator per expression; the result must not depend on the split.
* Sieve workload sums: the evaluator (closed forms, Mertens, the split
  identity), which never runs the segmented summing loop.
"""

import json
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, query_key

PINS = Path(__file__).resolve().parent / "pins.json"
SIEVE_REF_MAX = 300_000
SECOND_SPLIT = {
    "mu * id": Fraction(4, 5),
    "mu * id2": Fraction(4, 5),
    "one^3": Fraction(13, 20),
    "one^4": Fraction(11, 20),
    "mu@2 * tau2": Fraction(17, 20),
    "id * one": Fraction(11, 20),
    "chi4 * one": Fraction(11, 20),
    "(one * chi4)^2": Fraction(11, 20),
    "mu@2 * (one^4)": Fraction(43, 60),
}


def _primes(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def _mobius(limit):
    """mu(0..limit): sign from primes <= sqrt(limit), one cofactor check."""
    mu = np.ones(limit + 1, dtype=np.int64)
    rad = np.ones(limit + 1, dtype=np.int64)
    for p in _primes(isqrt(limit)).tolist():
        mu[::p] *= -1
        rad[::p] *= p
        mu[:: p * p] = 0
    n = np.arange(limit + 1, dtype=np.int64)
    mu[rad != n] *= -1  # exactly one prime factor above sqrt(limit) remains
    mu[0] = 0
    return mu


def mertens_ref(x):
    """M(x) from M(v) = 1 - sum_{n=2..v} M(v//n) over v in {x//k}."""
    if x < 1:
        return 0
    u = min(x, max(isqrt(x) + 1, int(x ** (2 / 3))))
    small = np.cumsum(_mobius(u))
    if x <= u:
        return int(small[x])
    kmax = x // (u + 1)  # x // k > u exactly for k <= kmax
    big = np.zeros(kmax + 1, dtype=np.int64)  # big[k] = M(x // k)
    for k in range(kmax, 0, -1):
        v = x // k
        s = isqrt(v)
        ns = np.arange(2, s + 1, dtype=np.int64)
        kn = k * ns
        head = np.where(kn <= kmax, big[np.minimum(kn, kmax)], small[np.minimum(v // ns, u)])
        qs = np.arange(1, v // (s + 1) + 1, dtype=np.int64)
        counts = v // qs - np.maximum(v // (qs + 1), s)
        big[k] = 1 - int(head.sum()) - int((counts * small[qs]).sum())
    return int(big[1])


_base_primes = np.empty(0, dtype=np.int64)


def prime_count_ref(a, b):
    """#{p prime : a <= p <= b} by a numpy segmented sieve."""
    global _base_primes
    lo = max(a, 2)
    if lo > b:
        return 0
    root = isqrt(b)
    if _base_primes.size == 0 or _base_primes[-1] < root:
        _base_primes = _primes(max(root, 1 << 16))
    base = _base_primes[_base_primes <= root]
    flags = np.ones(b - lo + 1, dtype=bool)
    width = flags.size
    first = np.maximum(base * base, (lo + base - 1) // base * base)
    for p, f in zip(base[base <= width].tolist(), first[base <= width].tolist()):
        flags[f - lo :: p] = False
    rest = first[(base > width) & (first <= b)]
    flags[rest - lo] = False
    return int(np.count_nonzero(flags))


def _exact_prefix(values):
    top = int(np.abs(values).max(initial=0))
    if top * values.size < 1 << 62:
        return np.cumsum(values, dtype=np.int64)
    return np.cumsum(values.astype(object))


def eval_references(queries):
    """Reference F(x) for [expression, x] queries of the eval workloads."""
    from subsum import SummatoryEvaluator, algorithm_m

    out = {}
    by_expr = {}
    for text, x in queries:
        by_expr.setdefault(text, set()).add(x)
    for text, xs in by_expr.items():
        ev = SummatoryEvaluator(text)
        if text == "mu":
            out.update({query_key([text, x]): mertens_ref(x) for x in xs})
            continue
        small = [x for x in xs if x <= SIEVE_REF_MAX]
        if small:
            prefix = _exact_prefix(algorithm_m(ev.pointwise, max(small)).values)
            out.update({query_key([text, x]): int(prefix[x]) for x in small})
        for x in sorted(set(xs) - set(small)):
            out[query_key([text, x])] = ev.eval_with_split(x, SECOND_SPLIT[text])
    return out


def parity_references(queries):
    return {query_key([a, b]): prime_count_ref(a, b) & 1 for a, b in queries}


def sieve_references(queries):
    from subsum import SummatoryEvaluator

    out = {}
    evaluators = {}
    for text, x in queries:
        if text == "mu":
            out[query_key([text, x])] = mertens_ref(x)
            continue
        ev = evaluators.setdefault(text, SummatoryEvaluator(text))
        out[query_key([text, x])] = ev.eval(x)
    return out


COMPUTE = {
    "eval_cold": eval_references,
    "eval_shared": eval_references,
    "parity": parity_references,
    "sieve": sieve_references,
}


def references(workload, queries, seed):
    """query key -> expected answer; pinned for the default seed."""
    if seed == DEFAULT_SEED:
        pinned = json.loads(PINS.read_text())[workload]
        missing = [q for q in queries if query_key(q) not in pinned]
        if missing:
            raise LookupError(f"{len(missing)} {workload} queries have no pinned answer")
        return pinned
    return COMPUTE[workload](queries)
