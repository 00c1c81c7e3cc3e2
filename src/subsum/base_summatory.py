"""Base summatory routines: the catalog atoms every expression bottoms out in.

Power sums and the chi4 sum close in O(1), for one bound or for an int64
array of bounds at once.  The Mertens function reads M(q <= u) from one
process-wide (mu, M) table over 0..u, u >= x^(2/3) (MERTENS_TABLE, which every
mu node also reads; its mu is a slice of the int8 MU_TABLE).  x <= u is one
read; above it, M(x//k) for the k with x//k > u is filled bottom-up, largest k
first, each as M(v) = 1 - sum_{d=2..v} M(v//d) in three numpy arrays; that is
what gives the ~x^(2/3) running time the deceleration table records.
The divisor summatory also takes one bound or an int64 array of them: bounds
up to 2^18 are gathered from one process-wide (tau2, T2) table (T2_TABLE,
which every tau2 node reads), and each larger one runs the Dirichlet hyperbola
identity at the sqrt(x) split; its catalog deceleration stays 1/3, the best
known exponent for it, which this package does not implement (see README).
Differences T2(b) - T2(a) over arrays of pairs (divisor_summatory_interval,
the tau2 entry's `interval`) factor a short interval (a, b] over the primes
up to sqrt(b) instead of running two hyperbolas.
"""

from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple

import numpy as np

from . import multfn
from .arith import I64_MAX, SEGMENT, GrowOnly, exact_sum, ikrt, primes_up_to, wide_check
from .multfn import PrimePowerFn


def _largest_bound(x) -> int:
    """The largest bound in x (an int or an int64 array; 0 if empty); none may be negative."""
    low = high = x
    if isinstance(x, np.ndarray):
        low, high = (int(x.min()), int(x.max())) if x.size else (0, 0)
    if low < 0:
        raise ValueError("negative bound")
    return high


def power_summatory(k: int, x):
    """Sum_{n<=x} n^k in closed form, exact; catalog supports k <= 3.

    x is an int or an int64 array of bounds (summed element-wise).  The sum
    grows with x, so the largest bound gives the extreme term, which is
    checked against 128 bits; an array is summed in int64 when 3 times that
    term fits (no intermediate exceeds it), else on Python ints.
    """
    top = _largest_bound(x)
    if not 0 <= k <= 3:
        raise ValueError("power summatory catalog covers k <= 3")
    if k == 0:
        return x
    array = isinstance(x, np.ndarray)
    if array and 3 * power_summatory(k, top) > I64_MAX:
        x = x.astype(object)
    half = x * (x + 1) // 2  # consecutive integers: exact division
    value = half if k == 1 else half * (2 * x + 1) // 3 if k == 2 else half * half
    return value if array else wide_check(value)


def chi4_summatory(x):
    """Sum_{n<=x} chi4(n), chi4 the non-principal character mod 4: 1 when
    x % 4 is 1 or 2, that is when bits 0 and 1 of x differ, else 0.

    x is an int or an int64 array of bounds (element-wise).  Only shifts and
    bit operations run (no division, and no x + 1 that could wrap), and every
    value is 0 or 1, so an int64 array stays int64.
    """
    _largest_bound(x)
    return (x ^ x >> 1) & 1


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as int8 (mu(0) stored as 0).

    Only the primes p <= sqrt(limit) are sieved, one SEGMENT-sized block at a
    time: each flips the sign of its multiples and divides them out of `rest`
    once, and zeroes the multiples of p^2.  A squarefree n left with rest > 1
    has exactly one prime factor above sqrt(limit), so its sign flips once more.
    """
    if limit < 0:
        raise ValueError("negative sieve limit")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    primes = primes_up_to(isqrt(limit)).tolist()
    dtype = np.int32 if limit < 1 << 31 else np.int64
    for lo in range(0, limit + 1, SEGMENT):
        block = mu[lo : lo + SEGMENT]
        rest = np.arange(lo, lo + block.size, dtype=dtype)
        for p in primes:
            block[-lo % p :: p] *= -1
            rest[-lo % p :: p] //= p
            block[-lo % (p * p) :: p * p] = 0
        block[rest > 1] *= -1
    return mu


# mu(0..m) for a growing m, shared by every caller in the process.  The lambda
# looks mobius_sieve up at call time, so a wrapper bound to the module name
# (a tracer, say) sees each sieve.
MU_TABLE = GrowOnly(lambda m: mobius_sieve(m))


def _mu_and_mertens(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu(0..m), M(0..m)): M is int32 while m < 2^31, which |M(n)| <= n makes safe."""
    mu = MU_TABLE.covering(m)[: m + 1]
    return mu, np.cumsum(mu, dtype=np.int32 if m < 1 << 31 else np.int64)


# (mu, M) over 0..m for a growing m, 5 bytes a cell: Mertens and every mu node
# (parity's too) read it.
MERTENS_TABLE = GrowOnly(_mu_and_mertens)

# Prefix-table threshold: u ~ x^(2/3) balances the sieve against the
# large-quotient sums, which cost O(x / sqrt(u)) array elements overall.
_MERTENS_FLOOR = 1000


def mertens(x: int) -> int:
    """M(x) = sum_{n<=x} mu(n), exact."""
    if x < 0:
        raise ValueError("negative bound")
    # the table covers at least u ~ x^(2/3); all of it serves as the prefix
    small = MERTENS_TABLE.covering(min(max(ikrt(x * x, 3), _MERTENS_FLOOR), x))[1]
    u = small.size - 1
    if x <= u:
        return int(small[x])
    # large[k] = M(x//k) for the k with x//k > u, filled from the top down:
    # M(v) = 1 - sum_{d=2..v} M(v//d) with v = x//k and r = isqrt(v).  For
    # d <= r, v//d = x//(kd) is a large[k*d] already filled or at most u; the
    # d > r are grouped by their quotient q <= v//(r+1).  |M(q)| <= q and q
    # has at most v/q^2 + 1 such d, so every term fits int64.
    kmax = x // (u + 1)
    large = np.zeros(kmax + 1, dtype=np.int64)
    for k in range(kmax, 0, -1):
        v = x // k
        r = isqrt(v)
        top = min(r, kmax // k)
        qs = np.arange(1, v // (r + 1) + 1, dtype=np.int64)
        counts = v // qs - np.maximum(v // (qs + 1), r)
        terms = (
            large[2 * k : top * k + 1 : k],
            small[v // np.arange(top + 1, r + 1, dtype=np.int64)],
            counts * small[1 : qs.size + 1],
        )
        large[k] = 1 - exact_sum(np.concatenate(terms))
    return int(large[1])


def _tau2_and_t2(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(tau2(0..m), T2(0..m)): tau2 is int16 below 2^28 cells (tau2(n) < 2 sqrt n), else int32."""
    tau = multfn.algorithm_m(multfn.TAU2, m).values
    return tau.astype(np.int16 if m < 1 << 28 else np.int32), np.cumsum(tau, dtype=np.int64)


# (tau2, T2) over 0..m, at least 0..2^18, 10 bytes a cell: a T2 bound up to
# the limit is one read, and every tau2 node reads its values and prefix.
T2_TABLE_LIMIT = 1 << 18
T2_TABLE = GrowOnly(_tau2_and_t2)


def _t2_fits_int64(y: int) -> bool:
    """T2(y) <= I64_MAX, proven by T2(y) <= y (ln y + 1) < y (bit_length(y) + 1)."""
    return y * (y.bit_length() + 1) <= I64_MAX


# Divisors per numpy pass of the hyperbola: its two 256 KiB arrays stay in
# cache, which made it 1.45-2.3x faster than SEGMENT-sized passes for x from
# 1e10 to 1e16, and its transient memory is 0.5 MiB instead of 16 MiB.
_HYPERBOLA_BLOCK = 1 << 15


def _hyperbola(x: int) -> int:
    """T2(x) by the Dirichlet hyperbola identity, O(sqrt x)."""
    r = isqrt(x)
    # sum_{d<=r} x//d = (T2(x) + r^2) / 2 <= T2(x), so no partial sum wraps if T2(x) fits
    fits = _t2_fits_int64(x)
    s = 0
    for lo in range(1, r + 1, _HYPERBOLA_BLOCK):
        hi = min(lo + _HYPERBOLA_BLOCK - 1, r)
        q = x // np.arange(lo, hi + 1, dtype=np.int64)
        s += int(q.sum()) if fits else exact_sum(q)
    return wide_check(2 * s - r * r)


def divisor_summatory(x):
    """T2(x) = sum_{n<=x} tau2(n), exact.

    x is an int or an int64 array of bounds (summed element-wise).  Bounds up
    to T2_TABLE_LIMIT are read from T2_TABLE; each larger one runs the
    hyperbola.  An array is summed in int64 when T2(max) provably fits, else
    on Python ints.
    """
    top = _largest_bound(x)
    table = T2_TABLE.covering(T2_TABLE_LIMIT)[1]
    if not isinstance(x, np.ndarray):
        return int(table[x]) if x <= T2_TABLE_LIMIT else _hyperbola(x)
    dtype = np.int64 if _t2_fits_int64(top) else object
    out = table[np.minimum(x, T2_TABLE_LIMIT)].astype(dtype, copy=False)
    for i in np.flatnonzero(x > T2_TABLE_LIMIT).tolist():
        out[i] = _hyperbola(int(x[i]))
    return out


# A pair is short when (b - a) * _SHORT_RATIO <= isqrt(b) <= _SHORT_ROOT_CAP.
# The ratio sits at the crossover with the two hyperbolas: at
# b - a = isqrt(b) / 16 factoring one pair took 0.67-1.18x their time for b
# from 1e10 to 1.7e13, at isqrt(b) / 32 0.37-0.59x, at isqrt(b) / 8 1.2-2.5x
# (see README).  The cap (b < 4.4e12) bounds the prime table, below 2^22:
# 295,947 primes, 2.4 MB.  One numpy pass takes consecutive pairs up to
# _SHORT_CHUNK of work, a pair's work being its pi(isqrt b) (pair, p)
# elements plus 4 (b - a) for its cells and their fewer than 3 (b - a)
# multiples of a p; or one pair, of work at most
# pi(2^21) + 4 * 2^21 / 16 = 679,899.
_SHORT_RATIO = 16
_SHORT_ROOT_CAP = 1 << 21
_SHORT_CHUNK = 1 << 17

# The primes up to a growing limit, shared by every short pair and built on
# the first; the lambda looks primes_up_to up at call time, as MU_TABLE's
# does mobius_sieve.
_PRIMES = GrowOnly(lambda m: primes_up_to(m))


def _run_steps(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _factored_interval_sums(a: np.ndarray, b: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """sum_{a < n <= b} tau2(n) per pair, roots[i] = isqrt(b[i]), as int64.

    Every n of every interval is factored over the primes p <= isqrt(b): one
    % per (pair, p) finds the first multiple of p in (a, b], np.repeat lists
    them all, and a divide loop over the (pair, p) with a hit finds the
    multiples of p^2, p^3, ..., which give each n its exponent e of p.  What
    is left of n after its prime powers <= isqrt(b) is 1 or one prime
    > sqrt(b), so tau2(n) = prod (e + 1), doubled when that cofactor is a prime.
    """
    primes = _PRIMES.covering(int(roots.max()))
    counts = np.searchsorted(primes, roots, side="right")
    lengths = b - a
    work = np.cumsum(counts + 4 * lengths)
    out = np.empty(a.size, dtype=np.int64)
    start = 0
    while start < a.size:
        done = int(work[start - 1]) if start else 0
        stop = max(int(np.searchsorted(work, done + _SHORT_CHUNK, side="right")), start + 1)
        lo, size, count = a[start:stop], lengths[start:stop], counts[start:stop]
        first = np.cumsum(size) - size  # each pair's first n in the chunk's n array
        # (pair, p) for every p <= isqrt(b); a + gap is the first multiple of p past a
        p = np.concatenate([primes[:c] for c in count.tolist()])
        gap = p - np.repeat(lo, count) % p
        hit = np.flatnonzero(gap <= np.repeat(size, count))
        pair = np.searchsorted(np.cumsum(count), hit, side="right")
        p, gap = p[hit], gap[hit]
        many = (size[pair] - gap) // p + 1  # multiples of p in (a, b]
        # the n of each multiple, (pair, p) by (pair, p): index h, position at[h]
        steps = np.repeat(p, many)
        at = np.repeat(first[pair] + gap - 1, many) + _run_steps(many) * steps
        n = np.repeat(lo - first, size) + np.arange(1, size.sum() + 1)
        # tau2 and the part of n made of primes <= isqrt(b), exponent by exponent
        exponent = np.ones(steps.size, dtype=np.int64)
        smooth = np.ones(n.size, dtype=np.int64)
        np.multiply.at(smooth, at, steps)
        # level k >= 1 of a (pair, p): its m multiples of p^k are at h = i,
        # i + stride, ... (stride = p^(k-1)), and the first of them is q p^k
        i, stride, m, q = np.cumsum(many) - many, np.ones_like(p), many, (lo[pair] + gap) // p
        while True:
            t = -q % p  # the multiple t strides on is the first one of p^(k+1)
            live = np.flatnonzero(t < m)
            if not live.size:
                break
            p, i, stride, m, q, t = p[live], i[live], stride[live], m[live], q[live], t[live]
            i, m, q, stride = i + t * stride, (m - 1 - t) // p + 1, (q + t) // p, stride * p
            deeper = np.repeat(i, m) + _run_steps(m) * np.repeat(stride, m)
            exponent[deeper] += 1
            np.multiply.at(smooth, at[deeper], steps[deeper])
        tau = np.ones(n.size, dtype=np.int64)
        np.multiply.at(tau, at, exponent + 1)
        tau <<= smooth < n
        out[start:stop] = np.add.reduceat(tau, first)
        start = stop
    return out


def divisor_summatory_interval(a: np.ndarray, b: np.ndarray, summatory=divisor_summatory) -> np.ndarray:
    """T2(b) - T2(a) element-wise, for int64 arrays of pairs 0 <= a < b.

    A pair with b <= T2_TABLE_LIMIT is two reads from T2_TABLE.  A short pair,
    (b - a) * _SHORT_RATIO <= isqrt(b) <= _SHORT_ROOT_CAP (exact integer roots),
    sums tau2 over (a, b] by factoring the interval over the primes up to
    isqrt(b): O(pi(sqrt b) + (b - a) log log b) elements.  Every other pair
    takes T2(b) and T2(a) from one call of `summatory` (divisor_summatory, or
    the one an evaluator node reads T2 through).  The result is int64 when
    T2(max b) provably fits, else it holds Python ints.
    """
    _largest_bound(a)
    top = _largest_bound(b)
    if np.any(a >= b):
        raise ValueError("need a < b in every pair")
    out = np.empty(b.size, dtype=np.int64 if _t2_fits_int64(top) else object)
    table = T2_TABLE.covering(T2_TABLE_LIMIT)[1]
    small = b <= T2_TABLE_LIMIT
    out[small] = table[b[small]] - table[a[small]]
    large = np.flatnonzero(~small)
    roots = np.array([isqrt(y) for y in b[large].tolist()], dtype=np.int64)
    short = (b[large] - a[large] <= roots // _SHORT_RATIO) & (roots <= _SHORT_ROOT_CAP)
    if short.any():
        pick = large[short]
        out[pick] = _factored_interval_sums(a[pick], b[pick], roots[short])
    rest = large[~short]
    if rest.size:
        ends = summatory(np.concatenate((b[rest], a[rest])))
        out[rest] = ends[: rest.size] - ends[rest.size :]
    return out


class CatalogAtom(NamedTuple):
    pointwise: PrimePowerFn
    summatory: Callable[[int], int]
    deceleration: Fraction
    takes_arrays: bool = False  # summatory also maps an int64 array of bounds
    # covering(n): a shared (f, prefix) table over 0..m, m >= n; None: each node sieves its own
    covering: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None
    # interval(a, b): F(b) - F(a) over int64 arrays of pairs a < b; None: two summatory reads
    interval: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


_CATALOG: dict[str, CatalogAtom] = {
    "one": CatalogAtom(multfn.ONE, lambda x: power_summatory(0, x), Fraction(0), True),
    "id": CatalogAtom(multfn.ID, lambda x: power_summatory(1, x), Fraction(0), True),
    "id2": CatalogAtom(multfn.ID2, lambda x: power_summatory(2, x), Fraction(0), True),
    "id3": CatalogAtom(multfn.ID3, lambda x: power_summatory(3, x), Fraction(0), True),
    "chi4": CatalogAtom(multfn.CHI4, chi4_summatory, Fraction(0), True),
    "mu": CatalogAtom(
        multfn.MU, mertens, Fraction(2, 3), covering=lambda n: MERTENS_TABLE.covering(n)
    ),
    "tau2": CatalogAtom(
        multfn.TAU2, divisor_summatory, Fraction(1, 3), True,
        covering=lambda n: T2_TABLE.covering(max(n, T2_TABLE_LIMIT)),
        interval=divisor_summatory_interval,
    ),
}

ATOM_NAMES = tuple(sorted(_CATALOG))


def catalog_atom(name: str) -> CatalogAtom:
    """Pointwise descriptor, summatory routine and deceleration for an atom."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown atom {name!r}; catalog: {', '.join(ATOM_NAMES)}") from None
