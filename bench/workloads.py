"""Workload definitions: seeded query generation and the per-query calls.

Every workload is a fixed list of distinct queries (one "round") made from
the seed.  Sizes sit on a log-spaced grid across each band; the seed moves
every x by up to 4 % around its grid point and picks the parity interval
lengths, so every seed gives different integers with the same cost profile.
The order of a round is one fixed shuffle per workload, the same for every
seed: peak memory and garbage-collection timing depend on allocation order,
and a seeded order made them differ by 15 % from seed to seed.

The query calls at the bottom run inside the worker process; they touch only
`SummatoryEvaluator`, its `.pointwise` descriptors, `interval_prime_parity`
and `algorithm_m_sum`, each looked up on its module at call time so that the
traced run's wrappers apply.
"""

import math
import random

DEFAULT_SEED = 0
WORKLOADS = ("eval_cold", "eval_shared", "parity", "sieve")

# expression -> (slug used in metric names, cold band lo, cold band hi).
# Each band spans 2.5 decades; its top grid point costs about 0.3-0.5 s cold
# on a 2-core box, so one round of all grid points fits a third of a run.
EXPRESSIONS = {
    "mu * id": ("phi", 8e3, 2.5e6),
    "mu * id2": ("jordan2", 8e3, 2.5e6),
    "mu": ("mu", 1.3e5, 4e7),
    "one^3": ("tau3", 5e6, 1.5e9),
    "one^4": ("tau4", 4e5, 1.2e8),
    "mu@2 * tau2": ("tau2_star", 6e7, 2e10),
    "id * one": ("sigma1", 3.5e7, 1.1e10),
    "chi4 * one": ("r4", 3.5e7, 1.1e10),
    "(one * chi4)^2": ("gauss_t2", 7e4, 2.2e7),
    "mu@2 * (one^4)": ("tau2_sq", 2.4e5, 7.5e7),
}
COLD_POINTS = 5  # grid points per cold band
SHARED_POINTS = 5  # x values per expression within one decade
SHARED_DECADE = (1 / 20, 1 / 2)  # that decade, as fractions of the cold top

# Descriptors summed pointwise by the sieve workload: atoms plus derived
# expressions whose values stay well inside signed 64 bits at x = 3e6.
SIEVE_EXPRESSIONS = (
    "one", "id", "chi4", "mu", "tau2",
    "id * one", "chi4 * one", "mu * id", "one^3", "one^4",
    "mu@2 * tau2", "mu@2 * (one^4)", "(one * chi4)^2",
)
SIEVE_BAND = (1e5, 3e6)
SIEVE_POINTS = 5  # odd, so the median latency falls inside a size cluster

PARITY_BAND = (1e10, 3e12)  # left endpoint a
PARITY_LENGTH = (1, 1e6)  # b - a + 1
PARITY_POINTS = 36
# (exponent j, grid fraction of the band): intervals built around p^j.
PARITY_STRADDLES = ((2, 0.2), (2, 0.7), (3, 0.45), (4, 0.9))

JITTER = 0.04  # relative move of x around its grid point

# Tiny first query of each workload, answered before the timed pass; the
# expected values come from the brute-force oracle.
WARMUP = {
    "eval": ("mu * id", 10**4, 30397486),
    "parity": (100, 1000, 1),  # 143 primes in [100, 1000]
    "sieve": ("tau2", 10**4, 93668),
}


def _grid(lo, hi, points, rng):
    """`points` log-spaced sizes in [lo, hi], each moved by the seed."""
    span = math.log(hi / lo)
    out = []
    for i in range(points):
        centre = lo * math.exp(span * (i + 0.5) / points)
        out.append(int(centre * math.exp(JITTER * (2 * rng.random() - 1))))
    return out


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def make_queries(workload, seed):
    """The seed's round for a workload, as a list of JSON-ready lists."""
    rng = random.Random(f"{workload}:{seed}")
    order = random.Random(workload)
    queries = []
    if workload == "eval_cold":
        for text, (_, lo, hi) in EXPRESSIONS.items():
            queries += [[text, x] for x in _grid(lo, hi, COLD_POINTS, rng)]
    elif workload == "eval_shared":
        f_lo, f_hi = SHARED_DECADE
        for text, (_, _, hi) in EXPRESSIONS.items():
            queries += [[text, x] for x in _grid(hi * f_lo, hi * f_hi, SHARED_POINTS, rng)]
    elif workload == "parity":
        for a in _grid(*PARITY_BAND, PARITY_POINTS, rng):
            length = int(math.exp(rng.uniform(*map(math.log, PARITY_LENGTH))))
            queries.append([a, a + length - 1])
        lo, hi = PARITY_BAND
        for j, frac in PARITY_STRADDLES:
            p = int((lo * (hi / lo) ** frac) ** (1 / j))
            while not _is_prime(p):
                p += 1
            below, above = (int(math.exp(rng.uniform(0, math.log(1e3)))) for _ in range(2))
            queries.append([p**j - below, p**j + above])
    elif workload == "sieve":
        for text in SIEVE_EXPRESSIONS:
            queries += [[text, x] for x in _grid(*SIEVE_BAND, SIEVE_POINTS, rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    order.shuffle(queries)
    return queries


def query_key(query):
    return "|".join(str(part) for part in query)


# --- calls made inside the worker --------------------------------------------


class Runner:
    """Runs one workload's queries; `span(name, fn)` wraps the top-level calls.

    `new_round` is called before each pass over the query list.  For
    eval_shared it drops the evaluators, so every round starts cold and
    shares only within itself.
    """

    def __init__(self, workload, span, tracer=None):
        import subsum.combinator
        import subsum.multfn
        import subsum.parity

        self.workload = workload
        self.tracer = tracer
        self._combinator = subsum.combinator
        self._multfn = subsum.multfn
        self._parity = subsum.parity
        self._build = span("combinator.build", lambda text: self._combinator.SummatoryEvaluator(text))
        self._eval = span("combinator.eval", lambda ev, x: ev.eval(x))
        self._shared = {}
        self._pointwise = {}
        if workload == "sieve":
            for text in SIEVE_EXPRESSIONS:
                self._pointwise[text] = self._combinator.SummatoryEvaluator(text).pointwise
        self._serial = 0
        self._round = 0

    def warmup(self):
        """Answer the tiny warm-up query; True when it is right."""
        if self.workload == "parity":
            a, b, want = WARMUP["parity"]
            return self._parity.interval_prime_parity(a, b).parity == want
        if self.workload == "sieve":
            text, x, want = WARMUP["sieve"]
            return self._multfn.algorithm_m_sum(self._pointwise[text], x) == want
        text, x, want = WARMUP["eval"]
        return self._combinator.SummatoryEvaluator(text).eval(x) == want

    def new_round(self):
        self._shared = {}
        self._round += 1

    def run(self, query):
        tracer = self.tracer
        self._serial += 1
        if tracer is not None:
            tracer.query = self._serial
            tracer.tag = query[0]
        if self.workload == "parity":
            return self._parity.interval_prime_parity(*query).parity
        text, x = query
        if self.workload == "sieve":
            return self._multfn.algorithm_m_sum(self._pointwise[text], x)
        if self.workload == "eval_cold":
            ev = self._build(text)
        else:
            ev = self._shared.get(text)
            if ev is None:
                ev = self._shared[text] = self._build(text)
        if tracer is not None:  # one scope per evaluator, for table-rebuild counts
            tracer.scope = self._serial if self.workload == "eval_cold" else (self._round, text)
        return self._eval(ev, x)
