import time

import numpy as np
import pytest

from subsum.arith import sieve_smallest_factor
from subsum.multfn import (
    CHI4,
    ID,
    ID2,
    MU,
    ONE,
    POINTWISE_ATOMS,
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
    table = sieve_smallest_factor(10**4)
    for f in POINTWISE_ATOMS.values():
        got = algorithm_m(f, 10**4)
        for n in range(1, 10**4 + 1):
            want = 1
            for p, a in table.factorize(n):
                want *= f.eval(p, a)
            assert got[n] == want, (f.name, n)


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


def test_convolve_examples():
    tau = convolve_prime_power(ONE, ONE)
    for p in (2, 3, 5):
        for a in range(1, 7):
            assert tau.eval(p, a) == a + 1
    eps = convolve_prime_power(MU, ONE)
    assert all(eps.eval(p, a) == 0 for p in (2, 3, 5) for a in range(1, 7))
    phi = convolve_prime_power(ID, MU)
    assert phi.eval(5, 3) == 5**3 - 5**2


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
