"""Sharing one evaluator, and the parity module caches, between threads."""

import random
import sys
import threading

import numpy as np

import subsum.parity
from subsum.arith import segmented_prime_count
from subsum.combinator import SummatoryEvaluator
from subsum.multfn import algorithm_m


def _run_threads(n_threads, work):
    """Run work(i) in n_threads threads started together; re-raise the first error."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def body(i):
        try:
            barrier.wait(120)
            work(i)
        except Exception as exc:  # reported in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads), "worker threads did not finish"
    if errors:
        raise errors[0]


def test_shared_evaluator_across_threads():
    # Prefix tables grow while other threads read them; a reader must never
    # see a table shorter than the one it asked for.
    xs = random.Random(7).sample(range(1000, 200001), 320)
    prefix = np.cumsum(algorithm_m(SummatoryEvaluator("tau2 * id").pointwise, 200000).values)
    want = {x: int(prefix[x]) for x in xs}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            ev = SummatoryEvaluator("tau2 * id")

            def work(i):
                rng = random.Random(trial * 100 + i)
                for x in rng.sample(xs, 40):
                    assert ev.eval(x) == want[x], x

            _run_threads(8, work)
    finally:
        sys.setswitchinterval(old)


def test_interval_prime_parity_across_threads(monkeypatch):
    monkeypatch.setattr(subsum.parity, "_mu_cache", None)  # the threads grow it from empty
    rng = random.Random(11)
    intervals = []
    for a_hi in (10**3, 10**9, 10**10, 3 * 10**10, 10**11):
        a = rng.randrange(a_hi // 2, a_hi)
        intervals.append((a, a + rng.randrange(0, 20000)))
    want = {ab: segmented_prime_count(*ab) % 2 for ab in intervals}

    def work(i):
        for ab in intervals[i:] + intervals[:i]:
            assert subsum.parity.interval_prime_parity(*ab).parity == want[ab], ab

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(4, work)
    finally:
        sys.setswitchinterval(old)
