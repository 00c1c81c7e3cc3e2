"""Deceleration algebra, the convolution expression language, and its evaluator.

A deceleration is the exponent a for which a summatory F(x) is computable in
O(x^(a+eps)); they compose as exact rationals:

    convolution            dec h = (1 - ab) / (2 - a - b)
    k-fold power           dec f_k = 1 - (1 - a) / k
    stretched convolution  dec h = (1 - ab) / ((1-a) k2 + (1-b) k1)
    stretch s -> k*s       dec g = a / k

The evaluator turns an expression into exact sums via the three-term split

    H(x) = sum_{d <= x^(c/k1)} f(d) G((x/d^k1)^(1/k2))
         + sum_{d <= x^((1-c)/k2)} g(d) F((x/d^k2)^(1/k1))
         - F(x^(c/k1)) G(x^((1-c)/k2))

with the split point c chosen from the operand decelerations, pointwise
prefixes from the sieve in `multfn`, and all cutoffs computed by exact
integer root/power comparisons (never by float exponentials).

Every half sum builds its terms in numpy: one per d with f(d) != 0 up to
sqrt x, then one per equal-quotient block, with the arguments x // d^k
mapped through the exact integer root when the other operand is stretched.
An array atom (the closed forms one, id, id2, id3, chi4, and tau2) takes
all of them in one call; Mertens, stretch and convolution nodes take one
memoized call per argument, largest first.  One exact weighted sum follows.
An interval H(b) - H(a-1) is one pass when the cutoffs taken at a - 1 also
serve b: the cross term cancels, and each half sum holds both ends' terms
less those whose two arguments (after the root) agree.  Over tau2 the
paired terms are one call of its interval routine, T2(y_b) - T2(y_a) per
pair, which factors a short pair's interval instead of running two
hyperbolas.

Expression grammar ('*' convolution, '@k' stretch, '^k' convolution power;
'@'/'^' bind tighter than '*', which is left-associative):

    expr := term ( '*' term )*
    term := atom ( '@' UINT | '^' UINT )*
    atom := NAME | '(' expr ')'

NAME is one of the base catalog atoms: one, id, id2, id3, chi4, mu, tau2.

A k-fold power of `one` is rewritten as the power tau2^(k//2), times `one`
when k is odd, before anything else happens; the pointwise function is
identical and the deceleration then agrees with the closed form for
multidimensional divisor functions.  Every power f^k is evaluated by
repeated squaring, as f^(k//2) * f^(k//2) times f^(k mod 2), sharing the
half: O(log k) nodes, and the same deceleration as any grouping of the k
factors.  An expression's deceleration is the one its resolved root node
carries.  Other trees are computed exactly as written, so their symbolic
deceleration is grouping dependent; the jointly optimized Gaussian-divisor
values come from the dedicated `gaussian_dec`, not from the generic tree.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isqrt
from numbers import Rational
from typing import Union

import numpy as np

from .arith import (
    I64_MAX, GrowOnly, check_bound, exact_sum, ikrt, max_abs, sum_fits_int64, wide_check
)
from .base_summatory import ATOM_NAMES, catalog_atom
from .multfn import PrimePowerFn, algorithm_m, convolve_prime_power, stretch_prime_power

Deceleration = Fraction

# Below this argument the three-term identity degenerates (x^c ~ 1) and a
# direct sieve of the convolved descriptor is both simpler and faster.
SMALL_THRESHOLD = 1000


class DecelerationError(ValueError):
    """A deceleration precondition (a + b < 2, or range [0, 1]) failed."""


def _as_dec(value) -> Fraction:
    a = Fraction(value)
    if a < 0 or a > 1:
        raise DecelerationError(f"deceleration {a} outside [0, 1]")
    return a


def dec_convolve(a: Fraction, b: Fraction) -> Fraction:
    """Deceleration of f * g from those of f and g; requires a + b < 2."""
    return dec_generalized(a, 1, b, 1)


def dec_conv_power(a: Fraction, k: int) -> Fraction:
    """Deceleration of the k-fold convolution power of f."""
    a = _as_dec(a)
    if k < 1:
        raise ValueError("power order must be >= 1")
    if k == 1:
        return a
    if a == 1:
        raise DecelerationError("k-fold power rule requires dec f < 1")
    return 1 - (1 - a) / k


def dec_generalized(a: Fraction, k1: int, b: Fraction, k2: int) -> Fraction:
    """Deceleration of sum_{d1^k1 d2^k2 = n} f(d1) g(d2)."""
    a, b = _as_dec(a), _as_dec(b)
    if k1 < 1 or k2 < 1:
        raise ValueError("stretch orders must be >= 1")
    if a + b >= 2:
        raise DecelerationError("generalized rule requires a + b < 2")
    return (1 - a * b) / ((1 - a) * k2 + (1 - b) * k1)


def optimal_split(a: Fraction, k1: int, b: Fraction, k2: int) -> Fraction:
    """The split exponent c equalizing the two sums of the three-term identity."""
    a, b = _as_dec(a), _as_dec(b)
    if k1 < 1 or k2 < 1:
        raise ValueError("stretch orders must be >= 1")
    if a + b >= 2:
        raise DecelerationError("split rule requires a + b < 2")
    return Fraction((1 - b) * k1, (1 - a) * k2 + (1 - b) * k1)


def tau_k_dec(k: int) -> Fraction:
    """Deceleration of the k-dimensional divisor function tau_k.

    Positive orders follow the even/odd closed form built on dec tau2 = 1/3;
    negative orders are k-fold Moebius powers.  k = 0 and k = 1 are rejected
    (tau1 is the unit function, deceleration 0 via the catalog).
    """
    if k >= 2:
        if k % 2 == 0:
            return 1 - Fraction(4, 3 * k)
        return 1 - Fraction(4, 3 * k + 1)
    if k <= -1:
        return 1 - Fraction(1, 3 * (-k))
    raise ValueError("tau_k_dec covers k >= 2 and k <= -1")


def gaussian_dec(k: int) -> Fraction:
    """Deceleration for the norm-summed k-dimensional Gaussian divisor count.

    Convolves tau_k with the k-fold power of chi4 (deceleration 1 - 1/k);
    closes to 1 - 4/(7k) for even k and 1 - 4/(7k+1) for odd k.
    """
    if k < 1:
        raise ValueError("dimension must be >= 1")
    tau = Fraction(0) if k == 1 else tau_k_dec(k)
    return dec_convolve(tau, dec_conv_power(Fraction(0), k))


# --- expression AST ---------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Convolve:
    left: "SummatoryExpr"
    right: "SummatoryExpr"


@dataclass(frozen=True)
class Stretch:
    inner: "SummatoryExpr"
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("stretch order must be >= 1")


@dataclass(frozen=True)
class ConvPower:
    inner: "SummatoryExpr"
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("power order must be >= 1")


SummatoryExpr = Union[Atom, Convolve, Stretch, ConvPower]


class ExprSyntaxError(ValueError):
    """Parse failure; `offset` is the byte position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def parse_expr(text: str) -> SummatoryExpr:
    """Parse the expression grammar; whitespace is insignificant."""
    for i, ch in enumerate(text):
        if ord(ch) > 127:
            raise ExprSyntaxError("expression must be ASCII", i)
    n = len(text)
    pos = 0

    def skip() -> None:
        nonlocal pos
        while pos < n and text[pos] in " \t\r\n":
            pos += 1

    def parse_uint(op: str) -> int:
        nonlocal pos
        skip()
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ExprSyntaxError(f"expected integer after {op!r}", start)
        value = int(text[start:pos])
        if value == 0:
            raise ExprSyntaxError(f"order after {op!r} must be >= 1", start)
        return value

    def parse_atom() -> SummatoryExpr:
        nonlocal pos
        skip()
        if pos >= n:
            raise ExprSyntaxError("unexpected end of expression", pos)
        ch = text[pos]
        if ch == "(":
            pos += 1
            node = parse_chain()
            skip()
            if pos >= n or text[pos] != ")":
                raise ExprSyntaxError("expected ')'", pos)
            pos += 1
            return node
        if "a" <= ch <= "z":
            start = pos
            while pos < n and (text[pos].isdigit() or text[pos] == "_" or "a" <= text[pos] <= "z"):
                pos += 1
            name = text[start:pos]
            if name not in ATOM_NAMES:
                raise ExprSyntaxError(f"unknown atom {name!r}", start)
            return Atom(name)
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)

    def parse_term() -> SummatoryExpr:
        nonlocal pos
        node = parse_atom()
        skip()
        while pos < n and text[pos] in "@^":
            op = text[pos]
            pos += 1
            k = parse_uint(op)
            node = Stretch(node, k) if op == "@" else ConvPower(node, k)
            skip()
        return node

    def parse_chain() -> SummatoryExpr:
        nonlocal pos
        node = parse_term()
        skip()
        while pos < n and text[pos] == "*":
            pos += 1
            node = Convolve(node, parse_term())
            skip()
        return node

    root = parse_chain()
    skip()
    if pos != n:
        raise ExprSyntaxError("unexpected trailing input", pos)
    return root


def format_expr(expr: SummatoryExpr) -> str:
    """Render an AST back to grammar text; parse_expr(format_expr(e)) == e."""
    if isinstance(expr, Atom):
        return expr.name
    if isinstance(expr, (Stretch, ConvPower)):
        inner = format_expr(expr.inner)
        if isinstance(expr.inner, Convolve):
            inner = f"({inner})"
        op = "@" if isinstance(expr, Stretch) else "^"
        return f"{inner}{op}{expr.k}"
    left = format_expr(expr.left)
    right = format_expr(expr.right)
    if isinstance(expr.right, Convolve):  # '*' is left-associative
        right = f"({right})"
    return f"{left} * {right}"


def _canonicalize(expr: SummatoryExpr) -> SummatoryExpr:
    """Drop unit stretches/powers; write one^k as tau2^(k//2), times one if k is odd."""
    if isinstance(expr, Atom):
        return expr
    if isinstance(expr, Stretch):
        inner = _canonicalize(expr.inner)
        return inner if expr.k == 1 else Stretch(inner, expr.k)
    if isinstance(expr, Convolve):
        return Convolve(_canonicalize(expr.left), _canonicalize(expr.right))
    inner = _canonicalize(expr.inner)
    if expr.k == 1:
        return inner
    if inner == Atom("one"):
        pairs = _canonicalize(ConvPower(Atom("tau2"), expr.k // 2))
        return Convolve(pairs, inner) if expr.k % 2 else pairs
    return ConvPower(inner, expr.k)


def _hoist(expr: SummatoryExpr) -> tuple[SummatoryExpr, int]:
    """Split one stretch layer off a convolution operand (bare means k = 1)."""
    if isinstance(expr, Stretch):
        return expr.inner, expr.k
    return expr, 1


def expr_deceleration(expr: SummatoryExpr) -> Fraction:
    """Symbolic deceleration of the tree as written: that of its resolved root."""
    return _resolve(expr).dec


_DERIVED_TEXT = {
    "sigma1": "id * one",
    "r4": "chi4 * one",
    "phi": "mu * id",
    "jordan2": "mu * id2",
    "tau3": "one^3",
    "tau4": "one^4",
    "tau2_star": "mu@2 * tau2",
    "tau2_sq": "mu@2 * (one^4)",
    "gauss_t2": "(one * chi4)^2",
}

DERIVED_NAMES = tuple(sorted(_DERIVED_TEXT))


def catalog_derived(name: str) -> SummatoryExpr:
    """Expression tree for a named derived function (sigma1, phi, tau2_star, ...)."""
    try:
        return parse_expr(_DERIVED_TEXT[name])
    except KeyError:
        raise ValueError(
            f"unknown derived function {name!r}; catalog: {', '.join(DERIVED_NAMES)}"
        ) from None


# --- evaluator --------------------------------------------------------------


def _floor_power(x: int, e: Fraction) -> int:
    """floor(x**e) for rational 0 < e <= 1, by exact integer root extraction."""
    if x <= 1:
        return x
    return ikrt(x ** e.numerator, e.denominator)


def _root(ys: np.ndarray, k: int) -> np.ndarray:
    """The exact floor k-th roots of an int64 array of arguments."""
    return ys if k == 1 else np.array([ikrt(y, k) for y in ys.tolist()], dtype=np.int64)


def _dot(weights: np.ndarray, values: np.ndarray) -> int:
    """sum weights * values, exact: in int64 when no product can wrap, else on Python ints."""
    if not weights.size:
        return 0
    if weights.dtype != object and values.dtype != object:
        if max_abs(weights) * max_abs(values) <= I64_MAX:
            return exact_sum(weights * values)
    return int(np.dot(weights.astype(object), values.astype(object)))


class _Node:
    """Resolved expression node: pointwise descriptor + memoized summatory."""

    ppf: PrimePowerFn
    dec: Fraction
    # the summatory over an int64 array of bounds, for array atoms only
    array_summatory = None
    # F(b) - F(a) over int64 arrays of pairs a < b, for atoms whose catalog entry has one
    interval_summatory = None

    def __init__(self):
        self.memo: dict[int, int] = {}
        # covering(n): (f(0..m), prefix sums) for a growing m >= n
        self.covering = GrowOnly(self._sieve).covering

    def _sieve(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """f(0..m) and its prefix sums: int64 when they cannot wrap, else Python ints.

        A declared bound with B(m) * m <= 2^63 - 1 proves int64 without a scan."""
        vals = algorithm_m(self.ppf, m).values
        bound = self.ppf.bound
        fits = (bound is not None and bound(m) * m <= I64_MAX) or sum_fits_int64(vals)
        return vals, np.cumsum(vals, dtype=np.int64 if fits else object)

    def eval(self, x: int) -> int:
        raise NotImplementedError

    def eval_interval(self, a1: int, b: int) -> int:
        """H(b) - H(a1) for a1 < b."""
        return wide_check(self.eval(b) - self.eval(a1))


class _AtomNode(_Node):
    def __init__(self, name: str):
        super().__init__()
        entry = catalog_atom(name)
        self.ppf = entry.pointwise
        self.dec = entry.deceleration
        self._summatory = entry.summatory
        self.array_summatory = entry.summatory if entry.takes_arrays else None
        if entry.interval is not None:
            # the pairs it does not shorten read F through the summatory this node holds
            self.interval_summatory = partial(entry.interval, summatory=self._summatory)
        self.covering = entry.covering or self.covering

    def eval(self, x: int) -> int:
        if x <= 0:
            return 0
        hit = self.memo.get(x)
        if hit is None:
            hit = self.memo[x] = wide_check(self._summatory(x))
        return hit


class _StretchNode(_Node):
    def __init__(self, inner: _Node, k: int):
        super().__init__()
        self.inner = inner
        self.k = k
        self.ppf = stretch_prime_power(inner.ppf, k)
        self.dec = inner.dec / k

    def eval(self, x: int) -> int:
        if x <= 0:
            return 0
        return self.inner.eval(ikrt(x, self.k))


class _ConvNode(_Node):
    def __init__(self, fnode: _Node, k1: int, gnode: _Node, k2: int):
        super().__init__()
        self.fnode, self.k1 = fnode, k1
        self.gnode, self.k2 = gnode, k2
        self.ppf = convolve_prime_power(
            stretch_prime_power(fnode.ppf, k1), stretch_prime_power(gnode.ppf, k2)
        )
        self.dec = dec_generalized(fnode.dec, k1, gnode.dec, k2)
        self.split = optimal_split(fnode.dec, k1, gnode.dec, k2)

    def eval(self, x: int) -> int:
        if x <= 0:
            return 0
        hit = self.memo.get(x)
        if hit is not None:
            return hit
        if x <= SMALL_THRESHOLD:
            value = wide_check(int(self.covering(x)[1][x]))
        else:
            value = self.eval_identity(x, self.split)
        self.memo[x] = value
        return value

    @staticmethod
    def _half_sum(
        x: int, side: tuple[np.ndarray, np.ndarray], k_self: int, other: _Node, k_other: int, cut: int,
        a1: int | None = None,
    ) -> int:
        """sum_{d <= cut, side(d) != 0} side(d) * Other((x / d^k_self)^(1/k_other)),
        less the same sum at a1 < x when a1 is given.

        side is the (values, prefix) table of the summed operand, covering 0..cut.
        Each d <= D (D = min(cut, isqrt x) when k_self = 1, else cut) with
        side(d) != 0 is one term side(d) Other(x // d^k_self); the d in (D, cut]
        share quotients q < sqrt x and give one term per q, weighted by the
        prefix difference over the d with x // d = q.  Zero weights are dropped,
        so Other is checked against 128 bits on exactly the non-zero terms.  With
        a1, both ends take the D of a1; a d <= D whose two arguments agree after
        the k_other-th root cancels and is dropped; and the block terms of a1
        join with the opposite sign.  An atom with an interval routine (tau2)
        takes the paired d <= D terms as (a1 argument, x argument) pairs, one
        weight each; for any other Other both ends' arguments join the list with
        opposite weights.  The arguments fall from x, so a nested node's tables
        grow once; an array atom takes them all in one call, any other node one
        memoized eval each.
        """
        vals, pref = side
        dense = min(cut, isqrt(x if a1 is None else a1)) if k_self == 1 else cut
        ds = np.flatnonzero(vals[1 : dense + 1]) + 1
        weights, ys = vals[ds], x // ds**k_self
        total = 0
        if a1 is None:
            ys = _root(ys, k_other)
        else:
            # a d cancels when its two quotients, or their k_other-th roots, agree
            ya = a1 // ds**k_self
            moved = np.flatnonzero(ys != ya)
            ys, ya = _root(ys[moved], k_other), _root(ya[moved], k_other)
            kept = np.flatnonzero(ys != ya)
            weights, ys, ya = weights[moved[kept]], ys[kept], ya[kept]
            if other.interval_summatory is not None:
                total = _dot(weights, other.interval_summatory(ya, ys))
                weights, ys = weights[:0], ys[:0]
            else:
                weights, ys = np.concatenate((weights, -weights)), np.concatenate((ys, ya))
        ends = ((x, 1),) if a1 is None else ((x, 1), (a1, -1))
        for end, sign in ends if dense < cut else ():
            qs = np.arange(end // (dense + 1), end // cut - 1, -1, dtype=np.int64)
            block = pref[np.minimum(end // qs, cut)] - pref[np.maximum(end // (qs + 1), dense)]
            keep = np.flatnonzero(block)
            weights = np.concatenate((weights, sign * block[keep]))
            ys = np.concatenate((ys, _root(qs[keep], k_other)))
        if not ys.size:
            return total
        # ys[0] is x^(1/k_other), as f(1) = 1, unless its pair cancelled or took the interval routine
        if other.array_summatory is not None:
            values = other.array_summatory(ys)
        else:
            values = np.array([other.eval(y) for y in ys.tolist()], dtype=object)
        return total + _dot(weights, values)

    def eval_identity(self, x: int, c: Fraction) -> int:
        """The three-term splitting identity with split exponent c in (0, 1)."""
        if not 0 < c < 1:
            raise ValueError("split exponent must lie strictly between 0 and 1")
        if x <= 0:
            return 0
        d1 = _floor_power(x, c / self.k1)
        d2 = _floor_power(x, (1 - c) / self.k2)
        # Each half sum has the d = 1 term Other(x^(1/k_other)), as f(1) = 1.
        # When Other is an O(1) closed form (deceleration 0) that term is
        # evaluated first, so an input it overflows raises before any sieve.
        for node, k in ((self.gnode, self.k2), (self.fnode, self.k1)):
            if node.dec == 0:
                node.eval(ikrt(x, k))
        ftable = self.fnode.covering(d1)
        gtable = self.gnode.covering(d2)
        total = self._half_sum(x, ftable, self.k1, self.gnode, self.k2, d1)
        total += self._half_sum(x, gtable, self.k2, self.fnode, self.k1, d2)
        cross = int(ftable[1][d1]) * int(gtable[1][d2])
        return wide_check(total - cross)

    def eval_interval(self, a1: int, b: int) -> int:
        # v from the split at a1 and u the largest with u^k1 v^k2 <= a1: if also
        # b < (u+1)^k1 (v+1)^k2, both ends share the cutoffs and the cross term cancels
        if a1 > SMALL_THRESHOLD:
            v = _floor_power(a1, (1 - self.split) / self.k2)
            u = ikrt(a1 // v**self.k2, self.k1)
            if u**self.k1 * v**self.k2 <= a1 and b < (u + 1) ** self.k1 * (v + 1) ** self.k2:
                total = self._half_sum(b, self.fnode.covering(u), self.k1, self.gnode, self.k2, u, a1)
                total += self._half_sum(b, self.gnode.covering(v), self.k2, self.fnode, self.k1, v, a1)
                return wide_check(total)
        return super().eval_interval(a1, b)


def _resolve(expr: SummatoryExpr) -> _Node:
    cache: dict[SummatoryExpr, _Node] = {}

    def build(e: SummatoryExpr) -> _Node:
        node = cache.get(e)
        if node is not None:
            return node
        if isinstance(e, Atom):
            node = _AtomNode(e.name)
        elif isinstance(e, Stretch):
            node = _StretchNode(build(e.inner), e.k)
        elif isinstance(e, ConvPower):
            # f^k = f^(k//2) * f^(k//2) (* f when k is odd): O(log k) nodes
            half = build(e.inner if e.k < 4 else ConvPower(e.inner, e.k // 2))
            node = _ConvNode(half, 1, half, 1)
            if e.k % 2:
                node = _ConvNode(node, 1, build(e.inner), 1)
        else:
            f, k1 = _hoist(e.left)
            g, k2 = _hoist(e.right)
            node = _ConvNode(build(f), k1, build(g), k2)
        cache[e] = node
        return node

    return build(_canonicalize(expr))


class SummatoryEvaluator:
    """A bound expression mapping x to the exact sum of its function over n <= x.

    Memo tables are per evaluator and write-once per key, so one evaluator
    amortizes across many arguments; racing writers would only ever store
    equal values.  Pointwise prefix tables are `GrowOnly`, so one evaluator
    can be shared between threads.
    """

    def __init__(self, expr: SummatoryExpr | str):
        if isinstance(expr, str):
            expr = parse_expr(expr)
        self.expr = expr
        self._root = _resolve(expr)

    @property
    def deceleration(self) -> Fraction:
        return self._root.dec

    @property
    def pointwise(self) -> PrimePowerFn:
        return self._root.ppf

    def eval(self, x: int) -> int:
        return self._root.eval(check_bound(x))

    def eval_interval(self, a: int, b: int) -> int:
        """H(b) - H(a - 1) for 1 <= a <= b: one pass when one pair of cutoffs serves both."""
        a, b = check_bound(a), check_bound(b)
        if not 1 <= a <= b:
            raise ValueError("need 1 <= a <= b")
        return self._root.eval_interval(a - 1, b)

    def eval_with_split(self, x: int, c: Fraction) -> int:
        """Diagnostic: force the three-term identity with an explicit split c.

        The result is identical for every admissible c; only the cost moves.
        c must be an int or a Fraction, and the root a convolution.
        """
        if not isinstance(c, Rational):  # a float's Fraction has a huge numerator
            raise TypeError(f"split exponent must be an int or a Fraction, not {type(c).__name__}")
        if not isinstance(self._root, _ConvNode):
            raise ValueError("expression root is not a convolution")
        return self._root.eval_identity(check_bound(x), Fraction(c))
