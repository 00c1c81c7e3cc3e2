import random
from fractions import Fraction

import numpy as np
import pytest

from subsum.base_summatory import (
    ATOM_NAMES,
    catalog_atom,
    chi4_summatory,
    divisor_summatory,
    divisor_summatory_interval,
    mertens,
    mobius_sieve,
    power_summatory,
)
from math import isqrt

from subsum.arith import I64_MAX, ikrt, is_prime
from subsum.oracle import mobius_values


def test_count_summatory():
    # the counting sum #{n <= x} is the catalog atom "one", i.e. power_summatory(0, x)
    count = catalog_atom("one").summatory
    for x in (0, 10, 10**12):
        assert count(x) == x
        assert power_summatory(0, x) == x


def test_power_summatory_examples():
    assert power_summatory(1, 10) == 55
    assert power_summatory(2, 4) == 30
    assert power_summatory(0, 7) == 7
    assert power_summatory(3, 3) == 36


def test_power_summatory_against_loops():
    sums = [0, 0, 0, 0]
    for n in range(1, 10**4 + 1):
        for k in range(4):
            sums[k] += n**k
        if n % 117 == 0 or n < 64:
            for k in range(4):
                assert power_summatory(k, n) == sums[k], (k, n)


def test_closed_forms_over_arrays_match_scalars():
    xs = np.array([0, 1, 2, 3, 4, 5, 999, 10**6 + 3, 2_480_000_000, 4_300_000_000])
    for k in range(4):
        want = [power_summatory(k, int(x)) for x in xs]
        assert [int(v) for v in power_summatory(k, xs)] == want, k
    want = [chi4_summatory(int(x)) for x in xs]
    assert [int(v) for v in chi4_summatory(xs)] == want
    with pytest.raises(ValueError):
        power_summatory(1, np.array([3, -1]))
    with pytest.raises(ValueError):
        chi4_summatory(np.array([-1]))
    with pytest.raises(ValueError):
        chi4_summatory(-1)
    with pytest.raises(OverflowError):  # one term past 128 bits fails the whole array
        power_summatory(3, np.array([1, 6 * 10**9, 2]))


def test_power_summatory_rejects_large_k():
    with pytest.raises(ValueError):
        power_summatory(4, 10)


def test_power_summatory_overflow():
    with pytest.raises(OverflowError):
        power_summatory(3, 1 << 62)


def test_chi4_summatory_examples():
    assert chi4_summatory(4) == 0
    assert chi4_summatory(5) == 1
    assert chi4_summatory(3) == 0
    assert chi4_summatory(0) == 0


def test_chi4_summatory_exhaustive():
    # against a running sum of chi4(n) = 1, 0, -1, 0 for n = 1, 2, 3, 4 (mod 4)
    chi4 = (1, 0, -1, 0)
    running = [0]
    for n in range(1, 10**6 + 1):
        running.append(running[-1] + chi4[(n - 1) % 4])
    for x, want in enumerate(running):
        assert chi4_summatory(x) == want, x
    got = chi4_summatory(np.arange(10**6 + 1, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == running


def test_chi4_summatory_at_input_cap():
    # I64_MAX = 3 (mod 4); an int64 array there must not wrap
    seam = list(range(I64_MAX - 3, I64_MAX + 1))
    want = [0, 1, 1, 0]
    assert [chi4_summatory(x) for x in seam] == want
    got = chi4_summatory(np.array(seam, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_mertens_examples():
    assert mertens(0) == 0
    assert mertens(10) == -1


def test_mertens_published_powers_of_ten():
    # M(10^k) for k = 0..10 (OEIS A084237)
    want = [1, -1, 1, 2, -23, -48, 212, 1037, 1928, -222, -33722]
    assert [mertens(10**k) for k in range(11)] == want


def _large_quotient_count(x):
    """How many k have x//k above the Mertens prefix table's bound u."""
    u = min(max(ikrt(x * x, 3), 1000), x)
    return x // (u + 1)


def test_mertens_against_linear_sieve():
    mu = mobius_values(10**5)
    prefix = np.cumsum(mu)
    for x in range(0, 2001):
        assert mertens(x) == int(prefix[x]), x
    rng = random.Random(5)
    for x in [rng.randrange(2000, 10**5) for _ in range(120)] + [10**4, 10**5]:
        assert mertens(x) == int(prefix[x]), x
    # the table holds M up to floor(x^(2/3)) = m^2 exactly at x = m^3
    for m in range(11, 47):
        for x in (m**3 - 1, m**3, m**3 + 1):
            assert mertens(x) == int(prefix[x]), x
    # the large-quotient array gains an entry where x // (u + 1) steps
    counts = [_large_quotient_count(x) for x in range(1000, 10**5 + 1)]
    steps = [x for x in range(1001, 10**5 + 1) if counts[x - 1000] != counts[x - 1001]]
    assert len(steps) > 40
    for x in steps:
        for y in (x - 1, x, min(x + 1, 10**5)):
            assert mertens(y) == int(prefix[y]), y


def test_mobius_sieve_matches_linear_sieve():
    want = mobius_values(3000)
    for limit in list(range(2001)) + [3000]:
        assert mobius_sieve(limit).tolist() == want[: limit + 1], limit


def test_mobius_sieve_at_block_and_square_seams(monkeypatch):
    # Limits on both sides of p^2 for p near sqrt(limit), where p joins the
    # sieving primes; then on both sides of block edges, with 64-cell blocks.
    import subsum.base_summatory as base

    want = mobius_values(1009**2 + 1)

    def check(limits):
        for limit in limits:
            assert mobius_sieve(limit).tolist() == want[: limit + 1], limit

    check(p * p + e for p in (997, 1009) for e in (-1, 0, 1))
    monkeypatch.setattr(base, "SEGMENT", 64)
    check(64 * k + e for k in (1, 2, 3, 50) for e in (-1, 0, 1))
    check(p * p + e for p in (31, 37, 97, 101) for e in (-1, 0, 1))


def test_mertens_at_shared_table_seams(empty_mu_table):
    # x at the prefix table's last cell u and at u +- 1 (u + 1 is the first
    # fill), and at cube seams, where x^(2/3) steps: each with the table
    # fresh, grown to u first, and grown far past x (a read).
    import subsum.base_summatory as base

    prefix = np.cumsum(mobius_values(10**6))
    u = 5000
    xs = [u - 1, u, u + 1, 7 * u + 3] + [m**3 + e for m in (17, 46, 99) for e in (-1, 0, 1)]
    for grow in (None, u, 2 * 10**6):
        for x in xs:
            empty_mu_table()
            if grow is not None:
                base.MERTENS_TABLE.covering(grow)
            assert mertens(x) == int(prefix[x]), (grow, x)
    assert base.MERTENS_TABLE.covering(0)[1].dtype == np.int32


def test_divisor_summatory_examples():
    assert divisor_summatory(0) == 0
    assert divisor_summatory(1) == 1
    assert divisor_summatory(10) == 27


def test_divisor_summatory_against_divisor_sieve():
    limit = 10**5
    counts = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        counts[d::d] += 1
    prefix = np.cumsum(counts)
    rng = random.Random(6)
    for x in list(range(1, 600)) + [rng.randrange(600, limit) for _ in range(400)] + [limit]:
        assert divisor_summatory(x) == int(prefix[x]), x


def _t2_bounds():
    """Seams of the table and of the hyperbola's isqrt, plus random bounds up to 1e12."""
    limit = 1 << 18
    rng = random.Random(12)
    xs = {0, limit - 1, limit, limit + 1}
    for m in (2, 3, 100, 511, 512, 513, 1000, 10**5, 10**6):
        xs |= {m * m - 1, m * m, m * m + 1}
    xs |= {rng.randrange(1, limit) for _ in range(200)}
    xs |= {rng.randrange(limit, 10**12) for _ in range(30)}
    return sorted(xs)


def test_divisor_summatory_over_arrays_matches_hyperbola():
    from subsum.base_summatory import _hyperbola

    xs = _t2_bounds()
    got = divisor_summatory(np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [_hyperbola(x) for x in xs]
    assert [divisor_summatory(x) for x in xs] == got.tolist()
    empty = divisor_summatory(np.array([], dtype=np.int64))
    assert empty.size == 0
    with pytest.raises(ValueError):
        divisor_summatory(np.array([5, -1], dtype=np.int64))
    with pytest.raises(ValueError):
        divisor_summatory(-1)


def test_divisor_summatory_array_switches_to_python_ints(monkeypatch):
    # An array is int64 exactly when max * (bit_length(max) + 1), which bounds
    # T2(max), fits; moving the cap moves the switch without a huge T2.
    import subsum.base_summatory as base

    for y in _t2_bounds():
        assert divisor_summatory(y) <= y * (y.bit_length() + 1)
    assert base._t2_fits_int64(10**17) and not base._t2_fits_int64(2**58)

    xs = np.array([7, 10**5, 10**6 + 1], dtype=np.int64)
    want = divisor_summatory(xs).tolist()
    bound = (10**6 + 1) * ((10**6 + 1).bit_length() + 1)
    for cap, dtype in ((bound, np.int64), (bound - 1, object)):
        monkeypatch.setattr(base, "I64_MAX", cap)
        got = divisor_summatory(xs)
        assert got.dtype == dtype and got.tolist() == want, cap


# --- T2(b) - T2(a) over arrays of pairs -----------------------------------------


def _check_pairs(pairs, monkeypatch=None):
    """divisor_summatory_interval against two divisor_summatory reads per pair;
    returns the bounds it sent through the hyperbola."""
    import subsum.base_summatory as base

    want = [divisor_summatory(b) - divisor_summatory(a) for a, b in pairs]
    hyperbolas = []
    if monkeypatch is not None:
        real = base._hyperbola
        monkeypatch.setattr(base, "_hyperbola", lambda x: hyperbolas.append(x) or real(x))
    a, b = (np.array(ends, dtype=np.int64) for ends in zip(*pairs))
    got = divisor_summatory_interval(a, b)
    assert got.tolist() == want, [(pair, g, w) for pair, g, w in zip(pairs, got, want) if g != w]
    if monkeypatch is not None:
        monkeypatch.setattr(base, "_hyperbola", real)
    return hyperbolas


def test_t2_interval_at_table_seam(monkeypatch):
    # b at 2^18 +- 1: two table reads up to the limit, factored or hyperbola past it
    limit = 1 << 18
    pairs = [(b - gap, b) for b in (limit - 1, limit, limit + 1) for gap in (1, 7, b)]
    assert _check_pairs(pairs, monkeypatch) == [limit + 1]  # only (0, 2^18 + 1) is long


def test_t2_interval_at_the_short_threshold(monkeypatch):
    # (b - a) * ratio <= isqrt(b) factors the interval; one more takes two hyperbolas
    import subsum.base_summatory as base

    for b in (10**9 + 7, 10**12 + 39, 3 * 10**12 + 1):
        gap = isqrt(b) // base._SHORT_RATIO
        assert _check_pairs([(b - gap + 1, b), (b - gap, b)], monkeypatch) == [], b
        assert _check_pairs([(b - gap - 1, b)], monkeypatch) == [b, b - gap - 1], b


def test_t2_interval_at_the_root_cap(monkeypatch):
    # with the cap patched small: isqrt(b) at cap - 1 and cap factor, cap + 1 does not
    import subsum.base_summatory as base

    cap = 1000
    monkeypatch.setattr(base, "_SHORT_ROOT_CAP", cap)
    for root in (cap - 1, cap, cap + 1):
        for b in (root * root, (root + 1) ** 2 - 1):
            long = [b, b - 3] if root > cap else []
            assert _check_pairs([(b - 3, b)], monkeypatch) == long, b


def _largest_prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


def test_t2_interval_over_special_integers(monkeypatch):
    # p^2 with p the largest prime <= sqrt(b) (its exponent 2 is the last
    # division), powers of two and deep odd prime powers, highly composite n,
    # and n = m q with q a prime above sqrt(n) (the doubled cofactor) or n
    # itself prime
    import subsum.base_summatory as base

    pairs = []
    for root in (10**3, 10**5, 999_999, 1_732_050):
        p = _largest_prime_at_most(root)
        pairs += [(p * p - 1, p * p), (p * p - 5, p * p + 3), (p * p - p // base._SHORT_RATIO, p * p)]
    pairs += [(2**k - 3, 2**k + 3) for k in (19, 31, 40, 42)]
    pairs += [(2**40 - 1, 2**40)]
    for n in (3**25, 5**17, 7**14, 11**11, 9973**3):
        pairs += [(n - 1, n), (n - 5, n + 3)]
    pairs += [(2 * 3**25 - 1, 2 * 3**25)]
    for hcn in (720720, 735134400, 963761198400, 2248776129600):
        pairs += [(hcn - 1, hcn), (hcn - 6, hcn + 6)]
    q = _largest_prime_at_most(10**6)
    pairs += [(m * q - 1, m * q) for m in (2, 3, 997)] + [(q - 1, q), (10**12 + 38, 10**12 + 39)]
    assert is_prime(10**12 + 39)
    assert _check_pairs(pairs, monkeypatch) == []


def _t2_interval(pairs):
    a, b = (np.array(ends, dtype=np.int64) for ends in zip(*pairs))
    return divisor_summatory_interval(a, b)


def test_t2_interval_in_chunks_of_a_few_elements(monkeypatch):
    # the (pair, prime) work split into chunks of a few elements (one pair each)
    # and of a few thousand (several pairs each) gives the same sums
    import subsum.base_summatory as base

    rng = random.Random(21)
    pairs = []
    for _ in range(60):
        b = rng.choice((rng.randrange(1 << 18, 10**7), rng.randrange(10**7, 4 * 10**12)))
        pairs.append((b - rng.randrange(1, isqrt(b) // base._SHORT_RATIO + 1), b))
    want = [divisor_summatory(b) - divisor_summatory(a) for a, b in pairs]
    for chunk in (3, 2000, base._SHORT_CHUNK):
        monkeypatch.setattr(base, "_SHORT_CHUNK", chunk)
        assert _t2_interval(pairs).tolist() == want, chunk


def test_t2_interval_mixed_routes_and_checks(monkeypatch):
    # a = 0 and every route in one call; an int64 result exactly when T2(max b) fits
    import subsum.base_summatory as base

    rng = random.Random(22)
    pairs = [(0, 1), (0, 2), (0, 1 << 18), (0, (1 << 18) + 1), (0, 10**9)]
    for _ in range(100):
        b = rng.randrange(2, 10**12)
        pairs.append((max(0, b - rng.choice((1, 2, 10, 1000, 10**5))), b))
    want = [divisor_summatory(b) - divisor_summatory(a) for a, b in pairs]
    got = _t2_interval(pairs)
    assert got.dtype == np.int64 and got.tolist() == want
    top = max(b for _, b in pairs)
    monkeypatch.setattr(base, "I64_MAX", top * (top.bit_length() + 1) - 1)
    got = _t2_interval(pairs)
    assert got.dtype == object and got.tolist() == want
    monkeypatch.setattr(base, "I64_MAX", I64_MAX)
    for a, b in (([5], [5]), ([6], [5]), ([-1], [5])):
        with pytest.raises(ValueError):
            divisor_summatory_interval(np.array(a), np.array(b))
    empty = np.array([], dtype=np.int64)
    assert divisor_summatory_interval(empty, empty).size == 0


def test_catalog_atoms():
    assert set(ATOM_NAMES) == {"one", "id", "id2", "id3", "chi4", "mu", "tau2"}
    assert catalog_atom("mu").deceleration == Fraction(2, 3)
    assert catalog_atom("tau2").deceleration == Fraction(1, 3)
    assert catalog_atom("one").deceleration == 0
    assert catalog_atom("id3").deceleration == 0
    assert catalog_atom("chi4").summatory(5) == 1
    assert catalog_atom("tau2").summatory(10) == 27
    assert catalog_atom("tau2").takes_arrays and not catalog_atom("mu").takes_arrays
    assert catalog_atom("mu").covering is not None and catalog_atom("tau2").covering is not None
    assert [name for name in ATOM_NAMES if catalog_atom(name).interval] == ["tau2"]
    tau2, t2 = catalog_atom("tau2").covering(10)
    assert tau2.dtype == np.int16 and tau2[:11].tolist() == [0, 1, 2, 2, 3, 2, 4, 2, 4, 3, 4]
    assert t2.size > 1 << 18 and t2[10] == 27
    assert catalog_atom("id2").summatory(4) == 30
    assert catalog_atom("mu").pointwise.eval(7, 1) == -1
    with pytest.raises(ValueError):
        catalog_atom("zeta")
