import pytest

from subsum.arith import is_prime
from subsum.multfn import ID, MU, ONE, TAU2
from subsum.oracle import (
    brute_convolution,
    brute_pointwise,
    brute_summatory,
    brute_summatory_batch,
    factorize,
    mobius_values,
    smallest_prime_factors,
)


def test_brute_pointwise_examples():
    assert brute_pointwise(TAU2, 12) == 6
    assert brute_pointwise(MU, 12) == 0
    assert brute_pointwise(ID, 1) == 1
    assert brute_pointwise(MU, 2 * 3 * 5 * 7) == 1


def test_factorize():
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(10**12 - 11) == [(999999999989, 1)]  # big prime, trial path


def test_smallest_prime_factors_examples():
    spf = smallest_prime_factors(10)
    assert (spf[4], spf[9], spf[7]) == (2, 3, 7)
    assert smallest_prime_factors(100)[91] == 7
    assert smallest_prime_factors(2) == [0, 0, 2]
    assert smallest_prime_factors(1) == [0, 0]


def test_smallest_prime_factors_invariant():
    spf = smallest_prime_factors(10**4)
    assert len(spf) == 10**4 + 1
    for n in range(2, 10**4 + 1):
        p = spf[n]
        assert n % p == 0
        assert is_prime(p)
        for q in range(2, p):
            assert n % q != 0
        if n <= 300:  # agrees with the trial-division factorizer
            assert factorize(n)[0][0] == p


def test_brute_summatory_examples():
    assert brute_summatory(TAU2, 10) == 27
    assert brute_summatory(MU, 10) == -1
    assert brute_summatory(ONE, 10) == 10


def test_brute_summatory_batch_matches_single():
    checkpoints = [1, 2, 10, 97, 1000]
    batch = brute_summatory_batch([TAU2, MU], checkpoints)
    for j, x in enumerate(checkpoints):
        assert batch[0][j] == brute_summatory(TAU2, x)
        assert batch[1][j] == brute_summatory(MU, x)
    # unsorted checkpoints are mapped back to their positions
    shuffled = brute_summatory_batch([TAU2], [1000, 10, 97])
    assert shuffled[0] == [brute_summatory(TAU2, x) for x in (1000, 10, 97)]


def test_brute_convolution_examples():
    assert brute_convolution(MU, TAU2, 2, 1, 12) == 4  # unitary divisors of 12
    assert brute_convolution(ONE, ONE, 1, 1, 13) == 2
    assert brute_convolution(MU, ID, 1, 1, 1) == 1


def test_brute_convolution_symmetry():
    for n in range(1, 1001):
        assert brute_convolution(MU, TAU2, 1, 1, n) == brute_convolution(TAU2, MU, 1, 1, n)


def test_mobius_values():
    mu = mobius_values(20)
    assert mu[:13] == [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert sum(mobius_values(10)[1:]) == -1


def test_budget_guards():
    with pytest.raises(ValueError):
        brute_summatory(ONE, 10**7 + 1)
    with pytest.raises(ValueError):
        brute_convolution(ONE, ONE, 1, 1, 10**6 + 1)
