import time
from math import comb

import numpy as np
import pytest

from subsum import SummatoryEvaluator
from subsum.base_summatory import ATOM_NAMES, catalog_atom
from subsum.multfn import (
    CHI4,
    ID,
    ID2,
    MU,
    ONE,
    TAU2,
    PrimePowerFn,
    algorithm_m,
    algorithm_m_sum,
    convolve_prime_power,
    stretch_prime_power,
)
from subsum.oracle import brute_convolution, brute_pointwise


def test_algorithm_m_examples():
    assert algorithm_m(TAU2, 6).values[1:].tolist() == [1, 2, 2, 3, 2, 4]
    assert algorithm_m(MU, 6).values[1:].tolist() == [1, -1, -1, 0, -1, 1]
    assert algorithm_m(ONE, 37).values[1:].tolist() == [1] * 37


def test_algorithm_m_sum_examples():
    assert algorithm_m_sum(TAU2, 10) == 27
    assert algorithm_m_sum(MU, 10) == -1
    assert algorithm_m_sum(ONE, 10) == 10
    assert algorithm_m_sum(TAU2, 0) == 0


def test_algorithm_m_matches_factorization():
    atoms = [catalog_atom(name).pointwise for name in ATOM_NAMES]
    derived = [
        SummatoryEvaluator(text).pointwise
        for text in ("mu * id", "one^3", "mu@2 * tau2", "(one * chi4)^2", "mu@2 * (one^4)")
    ]
    for f in atoms + derived:
        got = algorithm_m(f, 10**4)
        for n in range(1, 10**4 + 1):
            assert got[n] == brute_pointwise(f, n), (f.name, n)


def test_algorithm_m_sum_matches_prefix():
    for f in (TAU2, MU, ID, CHI4):
        prefix = np.cumsum(algorithm_m(f, 10**4).values)
        xs = list(range(1, 257)) + [999, 1000, 1001, 4096, 9999, 10**4]
        for x in xs:
            assert algorithm_m_sum(f, x) == int(prefix[x]), (f.name, x)


def test_algorithm_m_segmentation_boundaries():
    # crossing segment boundaries must not change anything
    import subsum.multfn as m

    old = m.SEGMENT
    try:
        m.SEGMENT = 64
        want = int(np.cumsum(algorithm_m(TAU2, 3000).values)[3000])
        assert algorithm_m_sum(TAU2, 3000) == want
        assert algorithm_m_sum(MU, 2999) == int(np.cumsum(algorithm_m(MU, 2999).values)[2999])
        # x = p^2 +- 1 and p^3 +- 1: runs of prime-power multiples start
        # inside a segment, and the last segment is short
        xs = [q + d for p in (31, 53, 97) for q in (p * p, p**3) if q < 10**5 for d in (-1, 1)]
        xs += [q + d for q in (7**3, 13**3, 17**3, 23**3) for d in (-1, 1)]
        for f in (TAU2, MU, CHI4, SummatoryEvaluator("mu@2 * tau2").pointwise):
            prefix = np.cumsum(algorithm_m(f, max(xs)).values)
            for x in xs:
                assert algorithm_m_sum(f, x) == int(prefix[x]), (f.name, x)
    finally:
        m.SEGMENT = old


def test_cell_overflow_detected():
    big = PrimePowerFn("big", lambda p, a: 1 << 40)
    with pytest.raises(OverflowError):
        algorithm_m(big, 16)  # cell 6 = 2*3 would hold 2^80 (sieve loop path)
    spiky = PrimePowerFn("spiky", lambda p, a: 1 if p in (3, 5) else 1 << 40)
    with pytest.raises(OverflowError):
        algorithm_m(spiky, 30)  # cell 14 = 2*7 overflows in the residual pass
    ok = PrimePowerFn("ok", lambda p, a: (1 << 40) if p == 2 else 1)
    assert algorithm_m(ok, 16)[4] == 1 << 40  # single factor still fits


def test_deep_level_overflow_detected():
    # only f(p^a), a >= 2, is large: 36 = 2^2 * 3^2 is the first cell over 64 bits
    deep = PrimePowerFn("deep", lambda p, a: (1 << 40) if a >= 2 else 1)
    assert algorithm_m(deep, 35)[8] == 1 << 40
    assert algorithm_m_sum(deep, 35) == sum(algorithm_m(deep, 35).values.tolist())
    for run in (algorithm_m, algorithm_m_sum):
        with pytest.raises(OverflowError):
            run(deep, 36)


def test_residual_overflow_in_later_segment():
    import subsum.multfn as m

    spiky = PrimePowerFn("spiky", lambda p, a: 1 if p in (3, 5) else 1 << 40)
    old = m.SEGMENT
    try:
        m.SEGMENT = 8  # x = 14: segments 1..8 and 9..14, primes <= 3
        assert algorithm_m_sum(spiky, 13) == sum(algorithm_m(spiky, 13).values.tolist())
        with pytest.raises(OverflowError):
            algorithm_m_sum(spiky, 14)  # cell 14 = 2 * 7: 7 is its residual prime
    finally:
        m.SEGMENT = old


def test_convolve_examples():
    tau = convolve_prime_power(ONE, ONE)
    for p in (2, 3, 5):
        for a in range(1, 7):
            assert tau.eval(p, a) == a + 1
    eps = convolve_prime_power(MU, ONE)
    assert all(eps.eval(p, a) == 0 for p in (2, 3, 5) for a in range(1, 7))
    phi = convolve_prime_power(ID, MU)
    assert phi.eval(5, 3) == 5**3 - 5**2


def test_nested_convolution_evaluates_each_prime_power_once():
    calls = []

    def counting_mu(p, a):
        calls.append((p, a))
        return MU.eval(p, a)

    h = PrimePowerFn("counting_mu", counting_mu)
    depth, a = 8, 12
    for _ in range(depth):
        h = convolve_prime_power(h, h)  # mu^(2^depth)
    assert h.eval(2, a) == (-1) ** a * comb(2**depth, a)
    # the innermost convolution asks for the atom at p^1..p^a once per h(p^i),
    # i <= a, and the levels above it add nothing: unmemoized, about (2a)^depth
    assert len(calls) == a * (a + 1)
    assert SummatoryEvaluator("mu^256").pointwise.eval(2, a) == comb(256, a)


def test_convolve_matches_brute_divisor_sum():
    pairs = [(ONE, ONE), (MU, ONE), (ID, MU), (TAU2, MU), (CHI4, ONE)]
    for f, g in pairs:
        h = convolve_prime_power(f, g)
        for n in range(1, 5001):
            assert brute_pointwise(h, n) == brute_convolution(f, g, 1, 1, n), (
                f.name,
                g.name,
                n,
            )


def test_convolve_commutative_associative_on_prime_powers():
    fs = (MU, TAU2, ID)
    for f, g in [(MU, TAU2), (ID, ONE), (CHI4, MU)]:
        fg = convolve_prime_power(f, g)
        gf = convolve_prime_power(g, f)
        for p in (2, 3, 5):
            for a in range(1, 7):
                assert fg.eval(p, a) == gf.eval(p, a)
    left = convolve_prime_power(convolve_prime_power(*fs[:2]), fs[2])
    right = convolve_prime_power(fs[0], convolve_prime_power(*fs[1:]))
    for p in (2, 3, 5):
        for a in range(1, 7):
            assert left.eval(p, a) == right.eval(p, a)


def test_stretch_examples():
    mu2 = stretch_prime_power(MU, 2)
    assert mu2.eval(3, 1) == 0
    assert mu2.eval(3, 2) == -1
    assert mu2.eval(3, 3) == 0
    assert stretch_prime_power(MU, 1) is MU
    sq = stretch_prime_power(ONE, 2)
    assert [sq.eval(2, a) for a in range(1, 5)] == [0, 1, 0, 1]


def test_stretch_pointwise_support():
    # g(n^k) = f(n) and 0 off perfect k-th powers
    g = stretch_prime_power(TAU2, 3)
    vals = algorithm_m(g, 1000)
    for n in range(1, 1001):
        root = round(n ** (1 / 3))
        if root**3 == n:
            assert vals[n] == brute_pointwise(TAU2, root)
        else:
            assert vals[n] == 0


def test_near_linear_runtime_ratio():
    def best(x):
        runs = []
        for _ in range(2):
            t0 = time.perf_counter()
            algorithm_m_sum(TAU2, x)
            runs.append(time.perf_counter() - t0)
        return min(runs)

    base, quad = best(10**6), best(4 * 10**6)
    assert quad / base <= 5.5, (base, quad)
