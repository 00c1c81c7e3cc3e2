"""Sharing one evaluator, and the process-wide tables, between threads."""

import random
import sys
import threading
import time
from itertools import accumulate

import numpy as np
import pytest

import subsum.base_summatory
import subsum.parity
from subsum.arith import GrowOnly, segmented_prime_count
from subsum.base_summatory import mertens
from subsum.combinator import SummatoryEvaluator
from subsum.multfn import algorithm_m
from subsum.oracle import brute_summatory_batch, mobius_values


@pytest.fixture
def empty_t2_table(monkeypatch):
    """A fresh, empty shared T2 table for every tau2 node (parity's too); the threads grow it."""
    table = GrowOnly(subsum.base_summatory._tau2_and_t2)
    monkeypatch.setattr(subsum.base_summatory, "T2_TABLE", table)
    return table


def _with_fast_switching(fn):
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fn()
    finally:
        sys.setswitchinterval(old)


def _parity_intervals():
    """Intervals whose right ends need mu tables from 31 to 3.2e5 cells."""
    rng = random.Random(11)
    intervals = []
    for a_hi in (10**3, 10**9, 10**10, 3 * 10**10, 10**11):
        a = rng.randrange(a_hi // 2, a_hi)
        intervals.append((a, a + rng.randrange(0, 20000)))
    return intervals


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


def test_grow_only_across_threads():
    # A slow build widens the window in which racing growers could both build,
    # or publish a shorter table after a longer one.  Under the one lock every
    # build at least doubles the last, and every reader gets a covering table.
    def build(m):
        built.append(m)
        time.sleep(1e-3)
        return np.arange(m + 1)

    sizes = range(100, 100001, 100)

    def trials():
        for trial in range(5):
            built.clear()
            table = GrowOnly(build)

            def work(i):
                for n in random.Random(trial * 100 + i).sample(sizes, 40):
                    assert len(table.covering(n)) > n, n

            _run_threads(8, work)
            assert all(b >= 2 * a for a, b in zip(built, built[1:])), built

    built = []
    _with_fast_switching(trials)


def test_shared_evaluator_across_threads():
    # Prefix tables grow while other threads read them; a reader must never
    # see a table shorter than the one it asked for.
    xs = random.Random(7).sample(range(1000, 200001), 320)
    prefix = np.cumsum(algorithm_m(SummatoryEvaluator("tau2 * id").pointwise, 200000).values)
    want = {x: int(prefix[x]) for x in xs}

    def trials():
        for trial in range(5):
            ev = SummatoryEvaluator("tau2 * id")

            def work(i):
                rng = random.Random(trial * 100 + i)
                for x in rng.sample(xs, 40):
                    assert ev.eval(x) == want[x], x

            _run_threads(8, work)

    _with_fast_switching(trials)


def test_interval_prime_parity_across_threads(empty_mu_table):
    intervals = _parity_intervals()
    want = {ab: segmented_prime_count(*ab) % 2 for ab in intervals}

    def work(i):
        for ab in intervals[i:] + intervals[:i]:
            assert subsum.parity.interval_prime_parity(*ab).parity == want[ab], ab

    _with_fast_switching(lambda: _run_threads(4, work))


def test_mertens_and_parity_share_mu_table_across_threads(empty_mu_table):
    # Mertens asks for short mu prefixes while parity grows the same table.
    limit = 3 * 10**5
    want_m = list(accumulate(mobius_values(limit)))
    xs = random.Random(5).sample(range(1, limit + 1), 120)
    intervals = _parity_intervals()
    want_p = {ab: segmented_prime_count(*ab) % 2 for ab in intervals}

    def work(i):
        if i % 2:
            for ab in intervals[i:] + intervals[:i]:
                assert subsum.parity.interval_prime_parity(*ab).parity == want_p[ab], ab
        else:
            for x in xs[i // 2 :: 2]:
                assert mertens(x) == want_m[x], x

    _with_fast_switching(lambda: _run_threads(4, work))


def test_array_t2_from_empty_table_across_threads(empty_t2_table):
    # Every thread's first tau2 half sum races to build the shared T2 table.
    texts = ("one^4", "mu@2 * tau2")
    xs = random.Random(13).sample(range(1000, 60001), 12)
    evs = [SummatoryEvaluator(text) for text in texts]
    brute = brute_summatory_batch([ev.pointwise for ev in evs], xs)
    want = {(text, x): w for text, ws in zip(texts, brute) for x, w in zip(xs, ws)}

    def work(i):
        for x in xs[i:] + xs[:i]:
            for text in texts[i % 2 :] + texts[: i % 2]:
                assert SummatoryEvaluator(text).eval(x) == want[text, x], (text, x)

    _with_fast_switching(lambda: _run_threads(4, work))
    assert len(empty_t2_table.covering(0)[1]) == subsum.base_summatory.T2_TABLE_LIMIT + 1


def test_mertens_mu_nodes_and_parity_race_from_empty_tables(empty_mu_table):
    # Mertens, the mu nodes of fresh evaluators and parity all grow the shared
    # (mu, M) table; each trial starts empty.
    texts = ("mu * id", "mu@2 * tau2")
    xs = random.Random(17).sample(range(1000, 50001), 12)
    brute = brute_summatory_batch([SummatoryEvaluator(text).pointwise for text in texts], xs)
    want = {(text, x): w for text, ws in zip(texts, brute) for x, w in zip(xs, ws)}
    want_m = list(accumulate(mobius_values(max(xs))))
    intervals = _parity_intervals()
    want_p = {ab: segmented_prime_count(*ab) % 2 for ab in intervals}

    def work(i):
        if i == 3:
            for ab in intervals:
                assert subsum.parity.interval_prime_parity(*ab).parity == want_p[ab], ab
            return
        for x in xs[i:] + xs[:i]:
            assert mertens(x) == want_m[x], x
            for text in texts[i % 2 :] + texts[: i % 2]:
                assert SummatoryEvaluator(text).eval(x) == want[text, x], (text, x)

    def trials():
        for _ in range(3):
            empty_mu_table()
            _run_threads(4, work)

    _with_fast_switching(trials)


def test_short_t2_differences_from_empty_prime_table_across_threads(monkeypatch):
    # Threads factoring short T2 differences race to grow the shared prime
    # table: each pass asks for primes up to a larger isqrt(b) than the last.
    import subsum.base_summatory as base

    rng = random.Random(19)
    pairs = [(b - rng.randrange(1, 40), b) for b in (rng.randrange(4**k, 4**(k + 1)) for k in range(10, 21))]
    want = [base.divisor_summatory(b) - base.divisor_summatory(a) for a, b in pairs]

    def work(i):
        for j in list(range(i, len(pairs))) + list(range(i)):
            a, b = pairs[j]
            got = base.divisor_summatory_interval(np.array([a]), np.array([b]))
            assert got.tolist() == [want[j]], pairs[j]

    def trials():
        for _ in range(3):
            monkeypatch.setattr(base, "_PRIMES", GrowOnly(base.primes_up_to))
            _run_threads(4, work)

    _with_fast_switching(trials)
