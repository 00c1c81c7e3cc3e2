"""Base summatory routines: the catalog atoms every expression bottoms out in.

Power sums and character sums close in O(1)/O(period).  The Mertens function
uses the floor-value recursion M(x) = 1 - sum_{n=2..x} M(x//n) over the
O(sqrt x) distinct quotients, backed by a prefix table up to ~x^(2/3) taken
from the one process-wide mu table (MU_TABLE, which parity also reads); that
is what gives the ~x^(2/3) running time the deceleration table records.
The divisor summatory uses the Dirichlet hyperbola identity at the sqrt(x)
split; its catalog deceleration stays 1/3, the best known exponent for it,
which this package does not implement (see README).
"""

from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import multfn
from .arith import SEGMENT, GrowOnly, exact_sum, ikrt, primes_up_to, wide_check
from .multfn import PrimePowerFn

# chi4[(n - 1) % 4] is the non-principal character mod 4 at n: 1, 0, -1, 0.
CHI4_TABLE = (1, 0, -1, 0)


def power_summatory(k: int, x: int) -> int:
    """Sum_{n<=x} n^k in closed form, exact; catalog supports k <= 3."""
    if x < 0:
        raise ValueError("negative bound")
    if k == 0:
        return x
    half = x * (x + 1) // 2  # consecutive integers: exact division
    if k == 1:
        return wide_check(half)
    if k == 2:
        return wide_check(half * (2 * x + 1) // 3)
    if k == 3:
        return wide_check(half * half)
    raise ValueError("power summatory catalog covers k <= 3")


def character_summatory(chi: Sequence[int], x: int) -> int:
    """Sum_{n<=x} chi(n) for a periodic table chi[(n-1) % m] in O(m)."""
    m = len(chi)
    if m < 1:
        raise ValueError("character table must be non-empty")
    if x < 0:
        raise ValueError("negative bound")
    full, rem = divmod(x, m)
    return full * sum(chi) + sum(chi[:rem])


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as int8 (mu(0) stored as 0)."""
    if limit < 0:
        raise ValueError("negative sieve limit")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_up_to(limit).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


# mu(0..m) for a growing m, shared by every caller in the process.  The lambda
# looks mobius_sieve up at call time, so a wrapper bound to the module name
# (a tracer, say) sees each sieve.
MU_TABLE = GrowOnly(lambda m: mobius_sieve(m))

# Prefix-table threshold: u ~ x^(2/3) balances the sieve against the
# recursion, which costs O(x / sqrt(u)) block steps overall.
_MERTENS_FLOOR = 1000


def mertens(x: int) -> int:
    """M(x) = sum_{n<=x} mu(n), exact."""
    if x < 0:
        raise ValueError("negative bound")
    if x == 0:
        return 0
    u = max(ikrt(x * x, 3), _MERTENS_FLOOR)
    u = min(u, x)
    small = np.cumsum(MU_TABLE.covering(u)[: u + 1], dtype=np.int64)
    if x <= u:
        return int(small[x])
    memo: dict[int, int] = {}

    def rec(v: int) -> int:
        if v <= u:
            return int(small[v])
        hit = memo.get(v)
        if hit is not None:
            return hit
        total = 1
        d = 2
        while d <= v:
            q = v // d
            d_hi = v // q
            total -= (d_hi - d + 1) * rec(q)
            d = d_hi + 1
        memo[v] = total
        return total

    return rec(x)


def divisor_summatory(x: int) -> int:
    """T2(x) = sum_{n<=x} tau2(n) by the hyperbola identity, O(sqrt x)."""
    if x < 0:
        raise ValueError("negative bound")
    if x == 0:
        return 0
    r = isqrt(x)
    s = 0
    for lo in range(1, r + 1, SEGMENT):
        hi = min(lo + SEGMENT - 1, r)
        s += exact_sum(x // np.arange(lo, hi + 1, dtype=np.int64))
    return wide_check(2 * s - r * r)


class CatalogAtom(NamedTuple):
    pointwise: PrimePowerFn
    summatory: Callable[[int], int]
    deceleration: Fraction


_CATALOG: dict[str, CatalogAtom] = {
    "one": CatalogAtom(multfn.ONE, lambda x: power_summatory(0, x), Fraction(0)),
    "id": CatalogAtom(multfn.ID, lambda x: power_summatory(1, x), Fraction(0)),
    "id2": CatalogAtom(multfn.ID2, lambda x: power_summatory(2, x), Fraction(0)),
    "id3": CatalogAtom(multfn.ID3, lambda x: power_summatory(3, x), Fraction(0)),
    "chi4": CatalogAtom(
        multfn.CHI4, lambda x: character_summatory(CHI4_TABLE, x), Fraction(0)
    ),
    "mu": CatalogAtom(multfn.MU, mertens, Fraction(2, 3)),
    "tau2": CatalogAtom(multfn.TAU2, divisor_summatory, Fraction(1, 3)),
}

ATOM_NAMES = tuple(sorted(_CATALOG))


def catalog_atom(name: str) -> CatalogAtom:
    """Pointwise descriptor, summatory routine and deceleration for an atom."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown atom {name!r}; catalog: {', '.join(ATOM_NAMES)}") from None
