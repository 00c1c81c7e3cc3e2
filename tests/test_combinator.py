import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from subsum.arith import ikrt
from subsum.base_summatory import catalog_atom
from subsum.combinator import (
    Atom,
    ConvPower,
    Convolve,
    DecelerationError,
    ExprSyntaxError,
    Stretch,
    SummatoryEvaluator,
    catalog_derived,
    DERIVED_NAMES,
    dec_conv_power,
    dec_convolve,
    dec_generalized,
    expr_deceleration,
    format_expr,
    gaussian_dec,
    optimal_split,
    parse_expr,
    tau_k_dec,
)
from subsum.multfn import PrimePowerFn, algorithm_m_sum
from subsum.oracle import brute_summatory_batch


def _fractions_up_to_denominator(dmax):
    out = set()
    for den in range(1, dmax + 1):
        for num in range(den + 1):
            out.add(Fraction(num, den))
    return sorted(out)


def test_dec_convolve_table_values():
    assert dec_convolve(Fraction(0), Fraction(0)) == Fraction(1, 2)
    assert dec_convolve(Fraction(2, 3), Fraction(0)) == Fraction(3, 4)
    assert dec_convolve(Fraction(1, 3), Fraction(1, 3)) == Fraction(2, 3)


def test_dec_convolve_precondition():
    with pytest.raises(DecelerationError):
        dec_convolve(Fraction(1), Fraction(1))
    with pytest.raises(DecelerationError):
        dec_convolve(Fraction(3, 2), Fraction(0))


def test_dec_convolve_symmetry_and_floor():
    decs = _fractions_up_to_denominator(12)
    for a in decs:
        for b in decs:
            if a + b >= 2:
                continue
            h = dec_convolve(a, b)
            assert h == dec_convolve(b, a)
            assert h >= max(a, b)  # convolution never beats its operands
            assert dec_generalized(a, 1, b, 1) == h


def test_dec_conv_power_values():
    assert dec_conv_power(Fraction(1, 3), 2) == Fraction(2, 3)
    assert dec_conv_power(Fraction(2, 3), 3) == Fraction(8, 9)
    a = Fraction(5, 7)
    assert dec_conv_power(a, 1) == a


def test_dec_conv_power_matches_repeated_convolve():
    for a in _fractions_up_to_denominator(12):
        if a == 1:
            continue
        acc = a
        for k in range(2, 7):
            acc = dec_convolve(acc, a)
            assert acc == dec_conv_power(a, k), (a, k)


def test_dec_generalized_table_values():
    assert dec_generalized(Fraction(2, 3), 2, Fraction(1, 3), 1) == Fraction(7, 15)
    assert dec_generalized(Fraction(2, 3), 2, Fraction(2, 3), 1) == Fraction(5, 9)
    assert dec_generalized(Fraction(0), 1, Fraction(0), 1) == Fraction(1, 2)


def test_optimal_split_values():
    assert optimal_split(Fraction(0), 1, Fraction(0), 1) == Fraction(1, 2)
    assert optimal_split(Fraction(2, 3), 1, Fraction(0), 1) == Fraction(3, 4)
    assert optimal_split(Fraction(2, 3), 2, Fraction(1, 3), 1) == Fraction(4, 5)


def test_tau_k_dec():
    assert tau_k_dec(2) == Fraction(1, 3)
    assert tau_k_dec(3) == Fraction(3, 5)
    assert tau_k_dec(-2) == Fraction(5, 6)
    for k in range(2, 11):
        want = 1 - Fraction(4, 3 * k) if k % 2 == 0 else 1 - Fraction(4, 3 * k + 1)
        assert tau_k_dec(k) == want
    for k in (0, 1):
        with pytest.raises(ValueError):
            tau_k_dec(k)


def test_gaussian_dec():
    assert gaussian_dec(1) == Fraction(1, 2)
    assert gaussian_dec(2) == Fraction(5, 7)
    assert gaussian_dec(3) == Fraction(9, 11)
    for k in range(1, 7):
        want = 1 - Fraction(4, 7 * k) if k % 2 == 0 else 1 - Fraction(4, 7 * k + 1)
        assert gaussian_dec(k) == want


def test_parse_examples():
    assert parse_expr("mu@2 * tau2") == Convolve(Stretch(Atom("mu"), 2), Atom("tau2"))
    assert parse_expr("(one*chi4)^2") == ConvPower(Convolve(Atom("one"), Atom("chi4")), 2)
    assert parse_expr("  mu ") == Atom("mu")
    assert parse_expr("mu@2^3") == ConvPower(Stretch(Atom("mu"), 2), 3)
    # '*' is left-associative
    assert parse_expr("one * id * mu") == Convolve(
        Convolve(Atom("one"), Atom("id")), Atom("mu")
    )


@pytest.mark.parametrize(
    "text,offset",
    [
        ("mu @", 4),
        ("", 0),
        ("(one", 4),
        ("one *", 5),
        ("one ^ 0", 6),
        ("mu@0", 3),
        ("one)", 3),
        ("2one", 0),
    ],
)
def test_parse_errors_with_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.offset == offset


def test_parse_unknown_atom():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("one * zeta")
    assert err.value.offset == 6


def test_parse_non_ascii():
    with pytest.raises(ExprSyntaxError):
        parse_expr("mu " + chr(0x22C6) + " one")  # a star operator from outside ASCII


def test_format_parse_roundtrip():
    for name in DERIVED_NAMES:
        tree = catalog_derived(name)
        assert parse_expr(format_expr(tree)) == tree
    deep = parse_expr("(mu@2 * (one * chi4)^2) * id@3 * tau2^2")
    assert parse_expr(format_expr(deep)) == deep


def test_catalog_derived_trees():
    assert catalog_derived("tau2_star") == Convolve(Stretch(Atom("mu"), 2), Atom("tau2"))
    assert catalog_derived("phi") == Convolve(Atom("mu"), Atom("id"))
    assert catalog_derived("r4") == Convolve(Atom("chi4"), Atom("one"))
    with pytest.raises(ValueError):
        catalog_derived("nope")


def test_expr_deceleration_table():
    assert expr_deceleration(parse_expr("mu@2 * tau2")) == Fraction(7, 15)
    assert expr_deceleration(parse_expr("mu@2 * (one^4)")) == Fraction(5, 9)
    assert expr_deceleration(parse_expr("mu * id")) == Fraction(3, 4)
    assert expr_deceleration(parse_expr("one * one")) == Fraction(1, 2)
    assert expr_deceleration(parse_expr("mu")) == Fraction(2, 3)
    assert expr_deceleration(parse_expr("mu@2")) == Fraction(1, 3)
    # one^k reproduces the divisor-function closed form
    for k in range(2, 11):
        assert expr_deceleration(ConvPower(Atom("one"), k)) == tau_k_dec(k), k
    # grouping-dependent tree value for the Gaussian pair (documented): the
    # jointly optimized 5/7 comes from gaussian_dec, not the generic tree
    assert expr_deceleration(parse_expr("(one * chi4)^2")) == Fraction(3, 4)
    assert gaussian_dec(2) == Fraction(5, 7)


def test_eval_examples():
    assert SummatoryEvaluator("one * one").eval(10) == 27
    assert SummatoryEvaluator("id * one").eval(10) == 87
    assert SummatoryEvaluator("mu * id").eval(10) == 32
    assert SummatoryEvaluator("mu@2 * tau2").eval(10) == 23
    ev = SummatoryEvaluator("mu")
    assert ev.eval(10) == -1
    assert ev.eval(0) == 0


def test_eval_matches_direct_sieve_above_threshold():
    for text in ("mu * id", "mu@2 * tau2", "one * chi4", "id * one"):
        ev = SummatoryEvaluator(text)
        for x in (999, 1000, 1001, 1500, 4096, 30000):
            assert ev.eval(x) == algorithm_m_sum(ev.pointwise, x), (text, x)


def test_eval_matches_brute_oracle():
    names = ["one", "mu", "tau2"] + list(DERIVED_NAMES)
    evs = {}
    for name in names:
        expr = Atom(name) if name in ("one", "mu", "tau2") else catalog_derived(name)
        evs[name] = SummatoryEvaluator(expr)
    checkpoints = list(range(1, 64)) + [100, 500, 999, 1000, 1001, 1500, 2000]
    brute = brute_summatory_batch([evs[n].pointwise for n in names], checkpoints)
    for i, name in enumerate(names):
        for j, x in enumerate(checkpoints):
            assert evs[name].eval(x) == brute[i][j], (name, x)


def test_split_invariance():
    ev = SummatoryEvaluator("mu * id")
    for x in (100, 1000, 10**4):
        want = ev.eval(x)
        for c in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            assert ev.eval_with_split(x, c) == want, (x, c)
    with pytest.raises(ValueError):
        SummatoryEvaluator("mu").eval_with_split(100, Fraction(1, 2))
    with pytest.raises(ValueError):
        ev.eval_with_split(100, Fraction(1))


def test_eval_with_split_rejects_non_rational_split():
    # Fraction(0.3) has numerator 5404319552844595: x to that power never ends.
    # x = 1 comes first, so a missing check fails here instead of at 10^6.
    import subsum.combinator as combinator

    def no_sieve(*args):
        raise AssertionError("a pointwise table was built")

    ev = SummatoryEvaluator("mu * id")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combinator, "algorithm_m", no_sieve)
        for x in (1, 10**6):
            for c in (0.3, 0.5, "1/2", None):
                with pytest.raises(TypeError):
                    ev.eval_with_split(x, c)
    assert ev.eval_with_split(10**6, Fraction(3, 10)) == ev.eval(10**6)


def test_numpy_integer_bounds_match_int_bounds():
    # Unconverted, an np.int64 bound wraps in the closed forms (id at 5e9, id2
    # at 3e6, id3 at 1e5) and fails inside ikrt, mertens and the hyperbola.
    cases = [
        ("id", 5 * 10**9),
        ("id2", 3 * 10**6),
        ("id3", 10**5),
        ("mu", 10**6),
        ("mu@2 * tau2", 10**6),
        ("mu * id", 3 * 10**9),
    ]
    for text, x in cases:
        want = SummatoryEvaluator(text).eval(x)
        got = SummatoryEvaluator(text).eval(np.int64(x))
        assert type(got) is int and got == want, (text, x)
    split = SummatoryEvaluator("mu * id").eval_with_split(np.int64(10**6), Fraction(1, 2))
    assert type(split) is int and split == SummatoryEvaluator("mu * id").eval(10**6)


def test_float_bounds_raise_type_error():
    import subsum.combinator as combinator
    import subsum.multfn as multfn
    from subsum.parity import interval_prime_parity

    def no_sieve(*args):
        raise AssertionError("a pointwise table was built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combinator, "algorithm_m", no_sieve)
        patch.setattr(multfn, "algorithm_m", no_sieve)
        for x in (1e6, 1.0, 0.0, np.float64(10)):
            with pytest.raises(TypeError):
                SummatoryEvaluator("mu * id").eval(x)
            with pytest.raises(TypeError):
                SummatoryEvaluator("mu * id").eval_with_split(x, Fraction(1, 2))
            with pytest.raises(TypeError):
                interval_prime_parity(1, x)
            with pytest.raises(TypeError):
                interval_prime_parity(x, 10**6)


def test_eval_monotone_for_nonnegative_functions():
    rng = random.Random(8)
    for name in ("one", "id", "tau2", "sigma1", "tau2_star"):
        expr = Atom(name) if name in ("one", "id", "tau2") else catalog_derived(name)
        ev = SummatoryEvaluator(expr)
        for _ in range(20):
            x = rng.randrange(1, 10**6)
            y = rng.randrange(x, 10**6 + 1)
            assert ev.eval(x) <= ev.eval(y), (name, x, y)


def test_evaluator_memo_write_once():
    ev = SummatoryEvaluator("mu * id")
    a = ev.eval(54321)
    memo_snapshot = dict(ev._root.memo)
    assert ev.eval(54321) == a
    assert ev._root.memo == memo_snapshot


def test_stretch_evaluation():
    # sum over n <= x of [n is a square] * mu(sqrt(n)) = M(isqrt(x))
    from subsum.base_summatory import mertens
    from subsum.arith import isqrt

    ev = SummatoryEvaluator("mu@2")
    for x in (1, 10, 99, 100, 12345):
        assert ev.eval(x) == mertens(isqrt(x))


def test_eval_rejects_bad_input():
    ev = SummatoryEvaluator("one * one")
    with pytest.raises(ValueError):
        ev.eval(-1)
    with pytest.raises(OverflowError):
        ev.eval(1 << 63)
    with pytest.raises(OverflowError):
        ev.eval_with_split(1 << 63, Fraction(1, 2))


def test_random_trees_against_oracle():
    from subsum.base_summatory import ATOM_NAMES

    rng = random.Random(99)

    def random_tree(depth):
        if depth == 0 or rng.random() < 0.35:
            return Atom(rng.choice(ATOM_NAMES))
        r = rng.random()
        if r < 0.5:
            return Convolve(random_tree(depth - 1), random_tree(depth - 1))
        if r < 0.75:
            return Stretch(random_tree(depth - 1), rng.randrange(1, 4))
        return ConvPower(random_tree(depth - 1), rng.randrange(1, 4))

    for _ in range(25):
        tree = random_tree(3)
        try:
            ev = SummatoryEvaluator(tree)
        except OverflowError:
            continue  # e.g. id3 composed until values leave 64 bits
        xs = sorted(rng.randrange(1, 4000) for _ in range(3)) + [1000, 1001]
        try:
            brute = brute_summatory_batch([ev.pointwise], xs)[0]
        except OverflowError:
            continue
        for want, x in zip(brute, xs):
            assert ev.eval(x) == want, (format_expr(tree), x)


def _chi4(p):
    return (0, 1, 0, -1)[p % 4]


# Powers f^k with their closed forms at p^a, built without the convolution
# rule: mu^k(p^a) = (-1)^a C(k, a), one^k(p^a) = C(a + k - 1, k - 1), and
# (one * chi4)^k = one^k * chi4^k with chi4 completely multiplicative.
_POWER_CLOSED_FORMS = {
    "mu^4": lambda p, a: (-1) ** a * comb(4, a),
    "mu^5": lambda p, a: (-1) ** a * comb(5, a),
    "mu^64": lambda p, a: (-1) ** a * comb(64, a),
    "one^9": lambda p, a: comb(a + 8, 8),
    "mu@2^5": lambda p, a: 0 if a % 2 else (-1) ** (a // 2) * comb(5, a // 2),
    "(one * chi4)^4": lambda p, a: sum(
        comb(i + 3, 3) * comb(a - i + 3, 3) * _chi4(p) ** (a - i) for i in range(a + 1)
    ),
}


def test_powers_by_squaring_against_oracle():
    xs = [1, 2, 63, 999, 1000, 1001, 4096, 9973, 10**4]
    evs = [SummatoryEvaluator(text) for text in _POWER_CLOSED_FORMS]
    closed = [PrimePowerFn(text, fn) for text, fn in _POWER_CLOSED_FORMS.items()]
    brute = brute_summatory_batch(closed + [ev.pointwise for ev in evs], xs)
    for i, (text, ev) in enumerate(zip(_POWER_CLOSED_FORMS, evs)):
        assert brute[len(evs) + i] == brute[i], text  # the resolved descriptor
        for want, x in zip(brute[i], xs):
            assert ev.eval(x) == want, (text, x)


def test_power_resolves_to_logarithmic_tree():
    from subsum.combinator import _ConvNode

    nodes, stack = set(), [SummatoryEvaluator("mu^1000")._root]
    while stack:
        node = stack.pop()
        if isinstance(node, _ConvNode) and id(node) not in nodes:
            nodes.add(id(node))
            stack += [node.fnode, node.gnode]
    assert len(nodes) <= 20
    assert expr_deceleration(parse_expr("mu^1000000")) == dec_conv_power(Fraction(2, 3), 10**6)


def _log_routes(monkeypatch):
    """Log atom summatory calls made through catalog_atom, and each half sum's Other.

    Returns (calls, half_sums): (atom, argument) per summatory call, and
    (atom, k_self) per half sum whose Other is an atom.  A node keeps the
    summatory it got when it was built, so patch before building evaluators.
    """
    import subsum.combinator as combinator

    real_atom, real_half_sum = combinator.catalog_atom, combinator._ConvNode._half_sum
    calls, half_sums, names = [], [], {}

    def logged_atom(name):
        entry = real_atom(name)

        def summatory(y, fn=entry.summatory):
            calls.append((name, y))
            return fn(y)

        names[summatory] = name
        return entry._replace(summatory=summatory)

    def logged_half_sum(x, side, k_self, other, k_other, cut):
        if isinstance(other, combinator._AtomNode):
            half_sums.append((names[other._summatory], k_self))
        return real_half_sum(x, side, k_self, other, k_other, cut)

    monkeypatch.setattr(combinator, "catalog_atom", logged_atom)
    monkeypatch.setattr(combinator._ConvNode, "_half_sum", staticmethod(logged_half_sum))
    return calls, half_sums


def _array_half_sums(calls, half_sums):
    """The (atom, k_self) of each half sum over an array atom, after checking
    that each made exactly one summatory call with an array."""
    over_arrays = [(name, k) for name, k in half_sums if catalog_atom(name).takes_arrays]
    array_calls = sorted(name for name, y in calls if isinstance(y, np.ndarray))
    assert array_calls == sorted(name for name, _ in over_arrays)
    return over_arrays


# Half sums whose other operand is a closed-form atom run over whole arrays;
# the seams are x = m^2 +- 1 (dense terms end at isqrt x) and x = m^4 +- 1.
_ARRAY_HALF_SUM_TEXTS = ("id * one", "chi4 * one", "mu * id", "mu * id2", "one^3", "id * mu@2")


def test_array_half_sums_against_oracle(monkeypatch):
    calls, half_sums = _log_routes(monkeypatch)
    xs = sorted(
        {x for m in (32, 33, 45, 100, 211, 316) for x in (m * m - 1, m * m, m * m + 1)}
        | {x for m in (6, 7, 10, 13, 17) for x in (m**4 - 1, m**4 + 1)}
        | {10**5}
    )
    evs = [SummatoryEvaluator(text) for text in _ARRAY_HALF_SUM_TEXTS]
    brute = brute_summatory_batch([ev.pointwise for ev in evs], xs)
    for text, ev, wants in zip(_ARRAY_HALF_SUM_TEXTS, evs, brute):
        for want, x in zip(wants, xs):
            assert ev.eval(x) == want, (text, x)
    # k_self = 1 and k_self = 2 ("id * mu@2") both ran over arrays
    assert {k for _, k in _array_half_sums(calls, half_sums)} == {1, 2}


# Half sums whose Other is stretched (k_other = 2, 3): over an array atom, over
# Mertens and over a convolution node; the seams are x = m^2, m^3, m^6 +- 1.
_STRETCHED_OTHER_TEXTS = (
    "tau2@2 * one", "mu * id@2", "one * chi4@3", "mu@3 * (one^3)", "(mu * id)@2 * one"
)


def test_stretched_other_half_sums_against_oracle():
    xs = sorted(
        {x for m in (32, 45, 100, 211, 316) for x in (m**2 - 1, m**2 + 1)}
        | {x for m in (10, 13, 21, 46) for x in (m**3 - 1, m**3 + 1)}
        | {x for m in (3, 4, 5, 6) for x in (m**6 - 1, m**6 + 1)}
        | {10**5}
    )
    evs = [SummatoryEvaluator(text) for text in _STRETCHED_OTHER_TEXTS]
    brute = brute_summatory_batch([ev.pointwise for ev in evs], xs)
    for text, ev, wants in zip(_STRETCHED_OTHER_TEXTS, evs, brute):
        for want, x in zip(wants, xs):
            assert ev.eval(x) == want, (text, x)


def test_mertens_called_once_per_argument(monkeypatch):
    # "mu * id" sums mu at x // d for d <= x^(1/4), one memoized call each:
    # a later change that batches Mertens must change this test on purpose.
    calls, _ = _log_routes(monkeypatch)
    for x in (10**6, 10**8 + 7, 3 * 10**9):
        calls.clear()
        SummatoryEvaluator("mu * id").eval(x)
        args = [y for name, y in calls if name == "mu"]
        assert len(args) == ikrt(x, 4), x
        assert all(type(y) is int for y in args), x


def test_gaussian_lattice_count_at_large_x():
    # sum_{n <= x} (chi4 * one)(n) = r2 summed / 4 = #{a >= 1, b >= 0 : a^2 + b^2 <= x}
    from math import isqrt

    ev = SummatoryEvaluator("chi4 * one")
    for x in (10**9, 10**10 + 7, 10**11 + 3, 10**12):
        want = sum(isqrt(x - a * a) + 1 for a in range(1, isqrt(x) + 1))
        assert ev.eval(x) == want, x


def test_sigma_sum_past_int64_terms():
    # above 4.3e9, y(y+1)/2 leaves int64: the array half sum runs on Python ints
    from math import isqrt

    def hyperbola(x):
        r = isqrt(x)
        s1 = lambda y: y * (y + 1) // 2
        return sum(d * (x // d) + s1(x // d) for d in range(1, r + 1)) - r * s1(r)

    ev = SummatoryEvaluator("id * one")
    for x in (4_300_000_001, 2**33 + 1, 10**10):
        assert ev.eval(x) == hyperbola(x), x


def test_array_half_sum_keeps_128_bit_raise_set():
    from subsum.arith import I128_MAX

    def s3(y):
        return (y * (y + 1) // 2) ** 2

    with pytest.raises(OverflowError):
        SummatoryEvaluator("id3 * one").eval(6 * 10**9)
    jordan3 = SummatoryEvaluator("mu * id3")  # its mu table, sized at 6e9, serves all three
    with pytest.raises(OverflowError):
        jordan3.eval(6 * 10**9)
    # The term mu(1) S3(x) leaves 128 bits, yet the total fits: jordan3(n) <= n^3,
    # and at most 7/8 n^3 for even n, so the total is at most S3(x) - S3(x // 2).
    x = 5_150_000_000
    assert s3(x) > I128_MAX >= s3(x) - s3(x // 2)
    with pytest.raises(OverflowError):
        jordan3.eval(x)
    assert jordan3.eval(4 * 10**9) == 59132057814303161433296391796430203460


# Half sums over tau2 run over whole arrays too, stretched or not.
_T2_HALF_SUM_TEXTS = (
    "one^3", "one^4", "mu@2 * tau2", "mu@2 * (one^4)", "tau2 * chi4", "tau2@2 * one"
)


def test_tau2_half_sums_against_oracle():
    xs = sorted(
        {x for m in (32, 33, 45, 100, 211, 316) for x in (m * m - 1, m * m, m * m + 1)}
        | {x for m in (6, 7, 10, 13, 17) for x in (m**4 - 1, m**4 + 1)}
        | {10**5}
    )
    evs = [SummatoryEvaluator(text) for text in _T2_HALF_SUM_TEXTS]
    brute = brute_summatory_batch([ev.pointwise for ev in evs], xs)
    for text, ev, wants in zip(_T2_HALF_SUM_TEXTS, evs, brute):
        for want, x in zip(wants, xs):
            assert ev.eval(x) == want, (text, x)


def test_tau2_half_sums_reach_array_path(monkeypatch):
    calls, half_sums = _log_routes(monkeypatch)
    k_selfs = set()
    for text in _T2_HALF_SUM_TEXTS:
        calls.clear()
        half_sums.clear()
        SummatoryEvaluator(text).eval(10**5)
        over_tau2 = [k for name, k in _array_half_sums(calls, half_sums) if name == "tau2"]
        assert over_tau2, text
        k_selfs.update(over_tau2)
    assert k_selfs == {1, 2}  # "mu@2 * tau2" sums mu at d^2


def test_overflow_raises_before_any_table(monkeypatch):
    # The d = 1 term id3(6e9) leaves 128 bits; no pointwise sieve runs first.
    import subsum.combinator as combinator

    def no_sieve(*args):
        raise AssertionError("a pointwise table was built")

    monkeypatch.setattr(combinator, "algorithm_m", no_sieve)
    for text in ("mu * id3", "id3 * mu", "id3 * one"):
        with pytest.raises(OverflowError):
            SummatoryEvaluator(text).eval(6 * 10**9)
