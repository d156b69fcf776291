"""Field-tower arithmetic: q-integers, canonical forms, degeneration maps."""

import operator
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from qvir import qcoeff
from qvir.qcoeff import (
    PoleAtQ1Error,
    RatFunc,
    S_I,
    S_ONE,
    S_T,
    S_ZERO,
    Scalar,
    eval_q1,
    laurent,
    q_minus_qinv,
    qint,
    qint_over_qsum,
    qint_ratio,
    taylor_q1,
)


def spow(k):
    return Scalar.s_power(k)


# the unit i^(p>>1)*t^(p&1) of each grade p
UNITS = (S_ONE, S_T, S_I, S_I * S_T)
ZERO = (Fraction(0), Fraction(0))
REF_ONE = {0: (Fraction(1), Fraction(0))}


def lp(coeffs):
    """The polynomial of {exponent: int or Fraction}, zeros dropped, built
    over the lcm of the denominators (which leaves no common content) and not
    through the engine."""
    cs = {k: Fraction(x) for k, x in coeffs.items() if x}
    if not cs:
        return qcoeff.LP_ZERO
    v, d = min(cs), lcm(*(x.denominator for x in cs.values()))
    return v, d, tuple(int(cs.get(k, 0) * d) for k in range(v, max(cs) + 1))


def as_dict(p):
    """The engine's polynomial s^v re/d as {exponent: nonzero Fraction}."""
    if not p:
        return {}
    v, d, re = p
    return {v + j: Fraction(x, d) for j, x in enumerate(re) if x}


# ---------------------------------------------------------------------------
# the Gaussian reference: values as Fraction pairs (re, im)
# ---------------------------------------------------------------------------
# The reference knows nothing of grades: it runs Gaussian arithmetic on
# pairs.  The engine's t-free values are real or imaginary, so they meet the
# reference through these conversions.

def to_pairs(p, imag):
    """A dict {exponent: Fraction} as Fraction pairs, times i when imag."""
    return {k: (Fraction(0), x) if imag else (x, Fraction(0)) for k, x in p.items()}


def graded_dict(p):
    """A dict of Fraction pairs, all real or all imaginary, as its dict of
    Fractions and its grade, 0 or 2."""
    imag = any(b for _, b in p.values())
    assert not (imag and any(a for a, _ in p.values())), f"{p} is neither real nor imaginary"
    return {k: pair[imag] for k, pair in p.items()}, 2 * imag


def ref_parts(x):
    """A Scalar, times 1/t when it is t-odd, as its (num, den) dicts of
    Fraction pairs, read off its tuples."""
    return to_pairs(as_dict(x.num), x.p & 2), to_pairs(as_dict(x.den), False)


def ref_of(x):
    """A t-free Scalar as its (num, den) dicts of Fraction pairs."""
    assert not x.p & 1
    return ref_parts(x)


def from_ref(num, den=REF_ONE):
    """The Scalar num/den of canonical pair dicts (num real or imaginary, den
    real and monic of lowest exponent 0), built without the engine's
    normalization."""
    num, p = graded_dict(num)
    den, dp = graded_dict(den)
    assert dp == 0
    return qcoeff._scalar(lp(num), qcoeff.LP_ONE if den == {0: 1} else lp(den), p)


def const(x):
    """The constant Scalar re + im*i of a pair x = (re, im) with a zero part."""
    return from_ref({0: x} if x != ZERO else {})


def pair_of(x):
    """A constant Scalar, times 1/t when it is t-odd, as its (re, im) Fraction pair."""
    num, den = ref_parts(x)
    assert den == REF_ONE and set(num) <= {0}
    return num.get(0, ZERO)


def is_mixed(p, q):
    """Whether two nonzero Scalars differ in grade, so that they have no sum."""
    return not p.is_zero() and not q.is_zero() and p.p != q.p


# the same examples, without hypothesis shrinking: the draws of the
# reference properties are costly to replay, so a failure is reported as found
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


# ---------------------------------------------------------------------------
# constants in Q(i): real or imaginary constants against Fraction pairs
# ---------------------------------------------------------------------------

# integers too, so the d = 1 fast paths are drawn often
fractions = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)
# a real or an imaginary constant, each half the time
pairs = st.tuples(fractions, st.booleans()).map(lambda xi: to_pairs({0: xi[0]}, xi[1])[0])
nonzero_pairs = pairs.filter(lambda p: p != ZERO)


def assert_matches(g, ref):
    """g is a canonical real or imaginary constant and equals the Fraction
    pair ref, also in its hash and in print."""
    assert g.p in (0, 2)
    assert_canonical_fraction(g)
    assert pair_of(g) == ref
    want = const(ref)
    assert g == want and hash(g) == hash(want)
    assert str(g) == ref_gaussian_str(*ref)


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_neg(x):
    return (-x[0], -x[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_gaussian_ring_ops_match_reference(x, y):
    # products of any two constants; sums and differences of one grade, while
    # a nonzero real and a nonzero imaginary constant have no sum and raise
    gx, gy = const(x), const(y)
    assert_matches(gx, x)
    assert_matches(gx * gy, ref_mul(x, y))
    assert_matches(-gx, ref_neg(x))
    if is_mixed(gx, gy):
        for op in (operator.add, operator.sub):
            with pytest.raises(qcoeff.MixedParityError):
                op(gx, gy)
    else:
        assert_matches(gx + gy, ref_add(x, y))
        assert_matches(gx - gy, ref_add(x, ref_neg(y)))
    assert (gx == gy) == (x == y)
    assert gx.is_zero() == (x == ZERO)


@settings(max_examples=200, deadline=None)
@given(pairs, nonzero_pairs)
def test_gaussian_division_matches_reference(x, y):
    gx, gy = const(x), const(y)
    assert_matches(gy.inverse(), ref_inverse(y))
    assert_matches(gx / gy, ref_mul(x, ref_inverse(y)))


@settings(max_examples=100, deadline=None)
@given(pairs, fractions, st.integers(-50, 50))
def test_gaussian_mixed_with_int_and_fraction(x, f, n):
    gx = const(x)
    if is_mixed(gx, Scalar.from_rat(n)):
        for bad in (lambda: gx + n, lambda: n - gx):
            with pytest.raises(qcoeff.MixedParityError):
                bad()
    else:
        assert_matches(gx + n, (x[0] + n, x[1]))
        assert_matches(n - gx, (n - x[0], -x[1]))
    assert_matches(n * gx, (n * x[0], n * x[1]))
    assert_matches(gx * f, (x[0] * f, x[1] * f))
    if f:
        assert_matches(gx / f, (x[0] / f, x[1] / f))
    if x != ZERO:
        assert_matches(f / gx, ref_mul((f, Fraction(0)), ref_inverse(x)))
    assert (Scalar.from_rat(f) == f) and (Scalar.from_rat(n) == n)


@settings(max_examples=100, deadline=None)
@given(fractions, fractions, fractions)
def test_polynomial_product_accumulates_exactly(w, x, y):
    # the s^0 coefficient of (w + x s)(1 + y/s) is w + x*y, summed in place
    p = qcoeff._lp_mul(lp({0: w, 1: x}), lp({0: 1, -1: y}))
    assert as_dict(p).get(0, 0) == w + x * y


def test_gaussian_zero_and_inverse_of_zero():
    zero = const((0, 4)) - const((0, 4))
    assert (zero.num, zero.den, zero.p) == (qcoeff.LP_ZERO, qcoeff.LP_ONE, 0)
    assert (const((Fraction(-5, 7), 0)) * 0).num == qcoeff.LP_ZERO
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        S_ONE / zero


def test_gaussian_from_fractions():
    g = Scalar.from_rat(Fraction(5, 6)) * S_I
    assert g.num == (0, 6, (5,)) and g.den is qcoeff.LP_ONE and g.p == 2
    assert pair_of(g) == (0, Fraction(5, 6))
    # a constant prints as a polynomial's s^0 coefficient
    assert str(g) == "5/6*i" and str(-g) == "-5/6*i" and str(-S_I) == "-i"
    assert str(Scalar.from_rat(Fraction(-3, 4))) == "-3/4" and str(S_I * 5) == "5*i"
    with pytest.raises(AttributeError):
        g.num = qcoeff.LP_ONE
    with pytest.raises(AttributeError):
        g.p = 1
    # unreduced input lands on the same canonical tuple
    half = Scalar((0, 4, (2,)))
    assert half == Scalar.from_rat(Fraction(1, 2)) and half.num == (0, 2, (1,))
    assert hash(half) == hash(Scalar.from_rat(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert RatFunc((0, 4, (2,)), (0, 1, (-2,))).num == (0, 4, (-1,))


def ref_gaussian_str(re, im):
    """The printed form of re + im*i, through the two Fraction parts."""
    if im == 0:
        return str(re)
    ims = "i" if abs(im) == 1 else f"{abs(im)}*i"
    if re == 0:
        return ims if im > 0 else "-" + ims
    return f"{re}{'+' if im > 0 else '-'}{ims}"


def test_gaussian_str_matches_the_fraction_reference():
    # every real a/d and imaginary a*i/d on the grid, where the part reduces
    # or not and |a/d| is 1 or not: the coefficient printer and the printed
    # constant print as the Gaussian printer prints (a/d, 0) and (0, a/d)
    for a, d in product(range(-7, 8), range(1, 7)):
        x = Fraction(a, d)
        assert qcoeff._coef_str(a, d, False) == ref_gaussian_str(x, 0)
        assert str(const((x, 0))) == ref_gaussian_str(x, 0)
        if a:
            assert qcoeff._coef_str(a, d, True) == ref_gaussian_str(0, x)
            assert str(const((0, x))) == ref_gaussian_str(0, x)


def test_laurent_takes_ints_and_fractions():
    # the real input path: one denominator for every coefficient, zeros dropped
    p = laurent({3: Fraction(1, 2), -1: 2, 0: 0, 1: Fraction(-2, 3)})
    assert p == (-1, 6, (12, 0, -4, 0, 3))
    assert p == lp({3: Fraction(1, 2), -1: 2, 1: Fraction(-2, 3)})
    assert laurent({}) == laurent({2: 0}) == qcoeff.LP_ZERO
    assert Scalar.from_rat(Fraction(-4, 6)).num == (0, 3, (-2,))
    assert Scalar.from_rat(0).num == qcoeff.LP_ZERO and Scalar.s_power(-3).num == (-3, 1, (1,))
    assert Scalar.i() == S_I == const((0, 1))
    assert (S_I.num, S_I.den, S_I.p) == (qcoeff.LP_ONE, qcoeff.LP_ONE, 2)


# ---------------------------------------------------------------------------
# representation guard: no Fraction stored inside the hot-path values
# ---------------------------------------------------------------------------

def polys_in(x):
    """Every nonzero polynomial tuple held by a Scalar."""
    return [p for p in (x.num, x.den) if p]


def test_gaussian_rationals_hold_only_ints():
    x = qint(7) * qint(5) / qint(3)
    # (s^2 - 1)(s/3 + 2) / ((s^2 - 1)(s - 3)) reduces through the polynomial gcd
    common = laurent({2: 1, 0: -1})
    num = qcoeff._lp_mul(common, laurent({1: Fraction(1, 3), 0: 2}))
    den = qcoeff._lp_mul(common, laurent({1: 1, 0: -3}))
    f = Scalar(num, den)
    assert f == Scalar(laurent({1: Fraction(1, 3), 0: 2}), laurent({1: 1, 0: -3}))
    # every polynomial is a tuple (v, d, re) of ints and a tuple of ints,
    # and so is every constant of the degeneration maps
    at_one = eval_q1((Scalar.from_rat(Fraction(1, 3)) + S_ONE) * S_I * S_T)
    _, h = taylor_q1(S_ONE / q_minus_qinv())
    seen = [p for y in (x, f, at_one, h) for p in polys_in(y)]
    assert any(p[1] != 1 for p in seen)
    for p in seen:
        assert type(p) is tuple and len(p) == 3
        v, d, re = p
        assert type(re) is tuple
        assert all(type(n) is int for n in (v, d, *re))


# ---------------------------------------------------------------------------
# q-integers
# ---------------------------------------------------------------------------

def test_qint_small_values():
    # [1] has no deformation, [0] vanishes
    assert qint(1) == S_ONE
    assert qint(0) == S_ZERO
    # [2] = (q^2-q^-2)/(q-q^-1) = q + q^-1, expanded by hand
    assert qint(2) == spow(2) + spow(-2)
    # [3] = q^2 + 1 + q^-2
    assert qint(3) == spow(4) + S_ONE + spow(-4)


def test_qint_is_ratio_of_q_powers():
    # definition check: [n]*(q - q^-1) == q^n - q^-n
    dq = q_minus_qinv()
    for n in range(-8, 9):
        assert qint(n) * dq == spow(2 * n) - spow(-2 * n)


@pytest.mark.parametrize("n", range(1, 25))
def test_qint_identities_window(n):
    # [2n] = [n]*(q^n + q^-n) and [-n] = -[n]
    assert qint(2 * n) == qint(n) * (spow(2 * n) + spow(-2 * n))
    assert qint(-n) == -qint(n)


def test_qint_over_qsum_matches_the_gcd_path():
    # [n]^2/[2n] and [n]/[2n], reduced by the polynomial gcd of the plain
    # quotients, against the closed form built in lowest terms
    for n in [m for m in range(-48, 49) if m]:
        qn, q2n = qint(n).num, qint(2 * n).num
        for a, num in ((1, qcoeff._lp_mul(qn, qn)), (0, qn)):
            got = qint_over_qsum(n, a)
            assert got == Scalar(num, q2n) and got.is_rational_sector(), (n, a)
        assert qint_over_qsum(n, 1) == qint(n) * qint(n) / qint(2 * n)
        assert qint_over_qsum(n, 0) == qint(n) / qint(2 * n)
    for n, a in ((0, 1), (0, 0), (3, 2)):
        with pytest.raises(ValueError):
            qint_over_qsum(n, a)


def test_qint_ratio_matches_the_division_path():
    # [kn]/[n] as a Laurent polynomial against the quotient of q-integers,
    # through Scalar division and through the gcd of a fresh fraction
    for k in (1, 2, 3):
        for n in [m for m in range(-48, 49) if m]:
            got = qint_ratio(k, n)
            assert got == qint(k * n) / qint(n), (k, n)
            assert got == Scalar(qint(k * n).num, qint(n).num), (k, n)
            assert got.den is qcoeff.LP_ONE and got.is_rational_sector()
    for k, n in ((0, 1), (2, 0)):
        with pytest.raises(ValueError):
            qint_ratio(k, n)


# ---------------------------------------------------------------------------
# tower relations and field axioms
# ---------------------------------------------------------------------------

def test_surd_relations():
    assert S_T * S_T == Scalar.from_rat(2)
    assert (S_T * spow(1)) * (S_T * spow(-1)) == Scalar.from_rat(2)


def holds_no_value_object(x):
    """Whether a Scalar's slots hold only its polynomial tuples and its grade."""
    return (all(type(q) is tuple and all(type(n) in (int, tuple) for n in q)
                for q in (x.num, x.den))
            and type(x.p) is int)


def test_scalar_is_one_fraction_and_a_grade():
    # (num/den)*i^(p>>1)*t^(p&1) with p in 0..3, the tuples and the grade in
    # the Scalar's own slots; zero has p = 0, however it is built
    one = qcoeff.LP_ONE
    assert Scalar.__slots__ == ("num", "den", "p")
    for p, unit in enumerate(UNITS):
        assert (unit.num, unit.den, unit.p) == (one, one, p) and Scalar(one, one, p) == unit
    assert (S_T * S_T).p == (S_I * S_I).p == 0 and (S_T * S_I).p == 3
    x = (S_ONE + spow(1)) / (spow(2) + 3) * S_I
    for y in (x, -x, x * x, x + x, x - S_I, x.inverse(), eval_q1(x), taylor_q1(x)[1]):
        assert holds_no_value_object(y)
    for zero in (Scalar(), Scalar(qcoeff.LP_ZERO, one, 1), Scalar(qcoeff.LP_ZERO, lp({1: 1}), 3),
                 S_T - S_T, S_T * 0, S_I * S_T - S_T * S_I, x - x,
                 eval_q1(S_I * S_T * (spow(2) - 1))):
        assert (zero.num, zero.den, zero.p) == (qcoeff.LP_ZERO, one, 0) and zero == S_ZERO
    for p in (-1, 4):
        with pytest.raises(ValueError):
            Scalar(one, one, p)


# 1, 0 (at a grade that zero drops) and 1/2: the constants whose hash once
# differed from that of the number they equal
@example(Fraction(1), 0, 0)
@example(Fraction(0), 0, 2)
@example(Fraction(1, 2), 0, 0)
@settings(max_examples=200, deadline=None)
@given(fractions, st.integers(-3, 3), st.integers(0, 3))
def test_equal_values_hash_equal_and_never_across_grades(c, k, p):
    # c*s^k at grade p, built by arithmetic and from its tuples: equal values
    # hash equal, a constant of grade 0 equals its int or Fraction and a dict
    # keyed by the number finds it (and the other way round), and the same
    # fraction at another grade is another value
    x = Scalar.from_rat(c) * spow(k) * UNITS[p]
    same = [Scalar(x.num, x.den, q) for q in range(4)]
    assert x == same[x.p] and hash(x) == hash(same[x.p])
    numbers = [c, int(c)] if c == int(c) else [c]
    for a, b in product([x, *same, *numbers], repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a, b)
    if c and p:
        assert x != c and all((x == y) == (q == p) for q, y in enumerate(same))
    if not k or not c:
        assert (x == c) == (x.p == 0)
    for n in numbers:
        if x == n:
            assert {n: "v"}.get(x) == "v" and {x: "v"}.get(n) == "v"


GRADE_NAMES = ("1", "t", "i", "i*t")


def test_mixed_parity_sums_raise():
    # two nonzero values of different grades have no sum a Scalar can hold:
    # + and - raise in both orders, also with an int operand, naming both
    # operands and both grades in the written order
    values = [spow(1) + S_ONE, S_T * spow(-1), S_I * (spow(2) - 3), S_I * S_T * spow(1)]
    cases = [(values[p], values[q], p, q) for p, q in product(range(4), repeat=2) if p != q]
    cases += [c for p in (1, 2, 3) for c in ((values[p], 3, p, 0), (3, values[p], 0, p))]
    for a, b, p, q in cases:
        for op in (operator.add, operator.sub):
            with pytest.raises(qcoeff.MixedParityError) as err:
                op(a, b)
            sym = "+" if op is operator.add else "-"
            assert str(err.value) == (f"({a}) {sym} ({b}) mixes grades "
                                      f"{GRADE_NAMES[p]} and {GRADE_NAMES[q]}")
    # a zero operand of any grade is the identity, and equal grades add
    for x in values:
        assert x + 0 == x == S_ZERO + x and 0 - x == -x and x - S_ZERO == x
        assert (x + x) == 2 * x and (x - x) is not x and (x - x).p == 0


def test_i_squares_to_minus_one():
    assert S_I * S_I == -S_ONE


# the value x as its components on the basis (1, t), each a Gaussian fraction
# (num, den) of Fraction-pair dicts in the canonical form of the reference
# Euclid below: the reference knows i only through the product of pairs and
# t only through t^2 = 2, and runs none of the engine's fraction arithmetic
REF_FRAC_ZERO = ({}, REF_ONE)
REF_FRAC_TWO = ({0: (Fraction(2), Fraction(0))}, REF_ONE)


def components(x):
    out = [REF_FRAC_ZERO, REF_FRAC_ZERO]
    out[x.p & 1] = ref_parts(x)
    return tuple(out)


def ref_fadd(a, b):
    return ref_normalize(ref_lp_add(ref_lp_mul(a[0], b[1]), ref_lp_mul(b[0], a[1])),
                         ref_lp_mul(a[1], b[1]))


def ref_fneg(a):
    return ref_lp_neg(a[0]), a[1]


def ref_fmul(a, b):
    return ref_normalize(ref_lp_mul(a[0], b[0]), ref_lp_mul(a[1], b[1]))


def ref_tower_mul(x, y):
    return (ref_fadd(ref_fmul(x[0], y[0]), ref_fmul(REF_FRAC_TWO, ref_fmul(x[1], y[1]))),
            ref_fadd(ref_fmul(x[0], y[1]), ref_fmul(x[1], y[0])))


def ref_tower_inverse(x):
    # 1/(x0 + x1 t) = (x0 - x1 t)/(x0^2 - 2 x1^2), the norm a Gaussian fraction
    minus_x1 = ref_fneg(x[1])
    (num, den), _ = ref_tower_mul(x, (x[0], minus_x1))
    inv = ref_normalize(den, num)
    return ref_fmul(x[0], inv), ref_fmul(minus_x1, inv)


def test_grade_table_matches_the_componentwise_reference():
    # every product of two units and every unit's inverse; among them
    # i*i = -1, t*t = 2, (it)^2 = -2 and 1/(it) = -it/2
    for a, b in product(UNITS, repeat=2):
        assert components(a * b) == ref_tower_mul(components(a), components(b))
    for a in UNITS:
        assert components(a.inverse()) == ref_tower_inverse(components(a))
    it = S_I * S_T
    assert (S_I * S_I, S_T * S_T, it * it) == (-1, 2, -2)
    assert it.inverse() == it * Fraction(-1, 2) and S_T * S_I == it


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_fractions = small_fractions.filter(bool)


@st.composite
def scalars(draw, grade=None):
    # sparse Laurent content times the unit of a grade (drawn when None)
    out = S_ZERO
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(-4, 4))
        out = out + spow(k) * Scalar.from_rat(draw(small_fractions))
    if grade is None:
        grade = draw(st.integers(0, 3))
    return out * UNITS[grade]


# two values that can be added: both of one grade
same_grade_pairs = st.integers(0, 3).flatmap(lambda p: st.tuples(scalars(p), scalars(p)))


@settings(max_examples=25, deadline=None)
@given(scalars(), scalars(), scalars())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=25, deadline=None)
@given(same_grade_pairs)
def test_mul_commutative_and_distributive(ab):
    a, b = ab
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a


@settings(max_examples=25, deadline=None)
@given(scalars())
def test_normalization_canonicity(x):
    assert (x - x).is_zero()
    if not x.is_zero():
        assert x / x == S_ONE
        assert x * x.inverse() == S_ONE


# a nonzero real value: one or two monomials at distinct exponents
nonzero_components = st.dictionaries(
    st.integers(-4, 4), nonzero_fractions, min_size=1, max_size=2,
).map(lambda terms: Scalar(lp(terms)))


@settings(max_examples=25, deadline=None)
@given(nonzero_components)
def test_inverse_is_canonical_as_built(c):
    # 1/(c i^a t^b) = i^a t^b/((-1)^a 2^b c) is built directly, canonical as built
    it = S_I * S_T
    assert (c * S_T).inverse() == S_T / (2 * c)
    assert (c * S_I).inverse() == -S_I / c and (c * it).inverse() == -it / (2 * c)
    for y in (c * unit for unit in UNITS):
        assert y * y.inverse() == S_ONE
        assert y.inverse().p == y.p
        assert_canonical_fraction(y.inverse())


small_polys = st.dictionaries(
    st.integers(-2, 2), nonzero_fractions, min_size=1, max_size=2,
).map(lp)
# real values num/den, normalized by the Scalar constructor
real_fractions = st.builds(Scalar, small_polys, small_polys)
OPS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
       "mul": lambda a, b: a * b, "div": lambda a, b: a / b}


def assert_canonical_lp(p):
    # zero is LP_ZERO; else both ends are nonzero, d > 0 and the content is 1
    if not p:
        assert type(p) is tuple and p == qcoeff.LP_ZERO
        return
    v, d, re = p
    assert type(re) is tuple and len(re) >= 1
    assert all(type(n) is int for n in (v, d, *re))
    assert d > 0 and gcd(d, *re) == 1
    assert re[0] and re[-1]


def assert_canonical_fraction(r):
    # a monic denominator of lowest exponent 0, the shared LP_ONE when it is 1
    assert_canonical_lp(r.num)
    assert_canonical_lp(r.den)
    v, d, re = r.den
    assert v == 0 and re[-1] == d
    assert (r.den == qcoeff.LP_ONE) == (r.den is qcoeff.LP_ONE)
    assert r.num or r.den is qcoeff.LP_ONE


@settings(max_examples=50, deadline=None)
@given(real_fractions, st.lists(st.tuples(st.sampled_from(sorted(OPS)), real_fractions),
                                min_size=1, max_size=4))
def test_unit_denominator_is_the_shared_one(x, steps):
    # whatever arithmetic leaves a denominator of 1 holds LP_ONE itself, the
    # identity the polynomial fast paths of Scalar rely on; every result is
    # in canonical form, and no operation mutates an operand's polynomials
    def polys(*values):
        return [(v.num, v.den) for v in values]

    acc = x
    for op, y in steps:
        prev, before = acc, polys(acc, y)
        acc = OPS[op](acc, y)
        after_op = polys(acc)
        results = (acc, y / y, (acc * y) / y, acc - acc + Scalar(y.num))
        assert polys(prev, y, acc) == before + after_op
        for r in results:
            assert_canonical_fraction(r)
    assert qcoeff.LP_ONE == (0, 1, (1,)) and qcoeff.LP_ZERO == ()


# zero and values of every grade, zero drawn about half the time, with
# rational functions that are genuine fractions
tower_values = st.builds(Scalar, st.one_of(st.just(qcoeff.LP_ZERO), small_polys), small_polys,
                         st.integers(0, 3))

TOWER_OPS = {
    "add": (lambda a, b: a + b, lambda a, b: tuple(map(ref_fadd, a, b))),
    "sub": (lambda a, b: a - b, lambda a, b: tuple(map(ref_fadd, a, map(ref_fneg, b)))),
    "mul": (lambda a, b: a * b, ref_tower_mul),
}


def mono(c, k, p):
    """The monomial c s^k of grade p, over the unit denominator."""
    return Scalar(lp({k: c}), qcoeff.LP_ONE, p)


# two monomials over the unit denominator, the integer path of a product:
# every grade pair, (i*t)*(i*t) among them; a content gcd that cancels,
# (2/3)t * (3/4)t = s^3; a same-exponent sum and difference that cancel to
# zero; and a sum and a difference of monomials of different grades
MONOMIAL_EXAMPLES = (
    [("mul", mono(Fraction(2, 3), 1, p), mono(-3, -2, q)) for p in range(4) for q in range(p, 4)]
    + [("mul", mono(Fraction(2, 3), 1, 1), mono(Fraction(3, 4), 2, 1)),
       ("add", mono(Fraction(2, 3), 2, 2), mono(Fraction(-2, 3), 2, 2)),
       ("sub", mono(Fraction(5, 4), -1, 3), mono(Fraction(5, 4), -1, 3)),
       ("add", mono(1, 0, 1), mono(1, 0, 2)), ("sub", mono(2, 1, 3), mono(-1, 1, 0))])


def with_examples(cases):
    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return apply


@with_examples(MONOMIAL_EXAMPLES)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TOWER_OPS)), tower_values, tower_values)
def test_tower_ops_match_the_componentwise_reference(op, x, y):
    # the zero shortcuts and the grade rule of +, -, * and the inverse give
    # the value of the component formulas on (1, t) over Gaussian pairs, in
    # canonical form; a sum or difference of nonzero values of different
    # grades raises
    engine, reference = TOWER_OPS[op]
    for a, b in ((x, y), (y, x), (x, qcoeff.S_ZERO), (qcoeff.S_ZERO, x)):
        if op != "mul" and is_mixed(a, b):
            with pytest.raises(qcoeff.MixedParityError):
                engine(a, b)
            continue
        got = engine(a, b)
        assert components(got) == reference(components(a), components(b))
        assert_canonical_fraction(got)
        assert got.p in range(4) and (got.p == 0 or not got.is_zero())
    assert engine(x, 0) == engine(x, qcoeff.S_ZERO) and engine(0, x) == engine(qcoeff.S_ZERO, x)
    if not x.is_zero():
        assert components(x.inverse()) == ref_tower_inverse(components(x))


def test_each_tower_result_builds_one_object(monkeypatch):
    # an identity builds nothing: a product with a zero operand is S_ZERO and
    # a sum or difference with one returns the other operand.  Every other
    # product, sum, difference, negation and inverse builds exactly one
    # object, its Scalar, whatever the grades; only a sum or difference over a
    # denominator other than 1 normalizes, once, through RatFunc
    x = (S_ONE + spow(1)) / (spow(2) + 3)
    polys = [v * unit for v in (x, spow(1) - S_ONE) for unit in UNITS]
    monos = [Scalar.from_rat(c) * spow(k) * unit
             for c, k in ((Fraction(2, 3), -1), (-3, 2)) for unit in UNITS]
    built, normalized = [], []
    new, init = qcoeff._new, RatFunc.__init__
    monkeypatch.setattr(qcoeff, "_new", lambda cls: built.append(cls) or new(cls))
    monkeypatch.setattr(RatFunc, "__init__",
                        lambda f, *args: normalized.append(1) or init(f, *args))

    def cost(op, *args):
        built.clear()
        normalized.clear()
        got = op(*args)
        assert holds_no_value_object(got)
        return got, built, len(normalized)

    for op, a, b in ((operator.mul, S_ZERO, x), (operator.mul, x, S_ZERO),
                     (operator.mul, monos[3], S_ZERO), (operator.mul, S_ZERO, S_ZERO)):
        assert cost(op, a, b) == (S_ZERO, [], 0) and op(a, b) is S_ZERO
    for y in polys + monos:
        for op, a, b, want in ((operator.add, y, S_ZERO, y), (operator.add, S_ZERO, y, y),
                               (operator.sub, y, S_ZERO, y)):
            assert cost(op, a, b)[1] == [] and op(a, b) is want
        for op in (operator.neg, Scalar.inverse):
            assert cost(op, y)[1:] == ([Scalar], 0)
    for a, b in product(polys + monos, repeat=2):
        got, objects, norm = cost(operator.mul, a, b)
        assert got.p == a.p ^ b.p and (objects, norm) == ([Scalar], 0)
        if a.p == b.p:
            unit = a.den is qcoeff.LP_ONE is b.den
            for op in (operator.add, operator.sub):
                assert cost(op, a, b)[1:] == ([Scalar], 0 if unit else 1)
    # t*t, i*i and (i*t)*(i*t) by value
    a, b, c, it = polys[5], monos[5], monos[2], monos[3]
    want = (Scalar(lp({3: -6, 2: 6})), Scalar(lp({-2: Fraction(-4, 9)})),
            Scalar(lp({-2: Fraction(-8, 9)})))
    assert (a * b, c * c, it * it) == want


# ---------------------------------------------------------------------------
# reference: polynomials as dicts {exponent: nonzero (re, im) Fraction pair}
# ---------------------------------------------------------------------------
# The engine's polynomials are integer tuples over one common denominator,
# real or imaginary by the grade; this is coefficientwise arithmetic on
# Fraction pairs, one exact reduction per part.  Both must agree term by
# term and in print.

def ref_lp_add(p, q):
    out = dict(p)
    for k, v in q.items():
        w = ref_add(out.get(k, ZERO), v)
        if w == ZERO:
            out.pop(k, None)
        else:
            out[k] = w
    return out


def ref_lp_neg(p):
    return {k: ref_neg(v) for k, v in p.items()}


def ref_lp_mul(p, q):
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            out[k1 + k2] = ref_add(out.get(k1 + k2, ZERO), ref_mul(v1, v2))
    return {k: v for k, v in out.items() if v != ZERO}


def ref_lp_eval_one(p):
    return reduce(ref_add, p.values(), ZERO)


def ref_lp_str(p):
    if not p:
        return "0"
    parts = []
    for k in sorted(p, reverse=True):
        vs = ref_gaussian_str(*p[k])
        if ("+" in vs[1:]) or ("-" in vs[1:]):
            vs = f"({vs})"
        if k == 0:
            parts.append(vs)
        else:
            mono = "s" if k == 1 else f"s^{k}"
            parts.append(mono if vs == "1" else f"-{mono}" if vs == "-1" else f"{vs}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


# sparse q-integer-like polynomials c*s^shift*[n]_(s^2), one term in every 4th
# power, and dense ones with non-integral coefficients, zero included
real_lp_dicts = st.one_of(
    st.builds(lambda n, c, shift: {shift + 2 * (n - 1 - 2 * j): c for j in range(n)},
              st.integers(1, 8), st.one_of(st.just(Fraction(1)), nonzero_fractions),
              st.integers(-3, 3)),
    st.dictionaries(st.integers(-6, 6), nonzero_fractions, max_size=5),
)


@st.composite
def lp_pairs(draw):
    """(p, q) as pair dicts, each real or imaginary; in about half the draws
    q has p's grade and p + q cancels p's top term, its lowest term or all of
    p, else q's grade is drawn on its own."""
    imag = draw(st.booleans())
    p = to_pairs(draw(real_lp_dicts), imag)
    if p and draw(st.booleans()):
        q = to_pairs(draw(real_lp_dicts), imag)
        keys = {"top": [max(p)], "low": [min(p)], "all": list(p)}[
            draw(st.sampled_from(("top", "low", "all")))]
        q = {k: v for k, v in q.items() if k not in keys} | {k: ref_neg(p[k]) for k in keys}
    else:
        q = to_pairs(draw(real_lp_dicts), draw(st.booleans()))
    return p, q


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(lp_pairs())
def test_polynomial_ops_match_the_dict_reference(pq):
    # products of real and imaginary polynomials, and sums, differences and
    # negations of one grade, are the canonical tuples of the dict results,
    # with the same value at s = 1 and the same printed form; a sum of two
    # grades raises
    p, q = pq
    x, y = from_ref(p), from_ref(q)
    assert ref_of(x) == (p, REF_ONE) and ref_of(y) == (q, REF_ONE)
    cases = [(x * y, ref_lp_mul(p, q)), (y * x, ref_lp_mul(p, q)), (-x, ref_lp_neg(p))]
    if is_mixed(x, y):
        for op in (operator.add, operator.sub):
            with pytest.raises(qcoeff.MixedParityError):
                op(x, y)
    else:
        cases += [(x + y, ref_lp_add(p, q)), (x - y, ref_lp_add(p, ref_lp_neg(q)))]
    for got, want in cases:
        assert_canonical_lp(got.num)
        assert got.den is qcoeff.LP_ONE
        assert ref_of(got)[0] == want and got == from_ref(want)
        at_one = eval_q1(got)
        assert_canonical_lp(at_one.num)
        assert pair_of(at_one) == ref_lp_eval_one(want)
        assert str(got) == ref_lp_str(want)


# ---------------------------------------------------------------------------
# reference: the Euclidean algorithm over Fraction-pair coefficients
# ---------------------------------------------------------------------------
# The engine's gcd path runs in integers (pseudo-division, primitive
# remainders) on real polynomials; this is an independent field-arithmetic
# version over the Gaussian rationals, fed real and imaginary numerators.
# Canonical forms are unique, so both must give the same Scalar.

def ref_dense(p):
    """Shift to nonnegative exponents; return (valuation, coefficient list)."""
    v = min(p)
    out = [ZERO] * (max(p) - v + 1)
    for k, g in p.items():
        out[k - v] = g
    return v, out


def ref_trim(a):
    while a and a[-1] == ZERO:
        a.pop()
    return a


def ref_poly_divmod(a, b):
    """Divide dense coefficient lists over the Gaussian rationals."""
    a = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = ref_inverse(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        f = ref_mul(a[i + len(b) - 1], inv_lead)
        if f == ZERO:
            continue
        q[i] = f
        for j, bj in enumerate(b):
            a[i + j] = ref_add(a[i + j], ref_neg(ref_mul(f, bj)))
    return ref_trim(q), ref_trim(a)


def ref_monic(a):
    inv_lead = ref_inverse(a[-1])
    return [ref_mul(x, inv_lead) for x in a]


def ref_poly_gcd(a, b):
    """Monic gcd of dense coefficient lists, every remainder made monic."""
    a, b = ref_trim(list(a)), ref_trim(list(b))
    while b:
        _, r = ref_poly_divmod(a, b)
        assert len(r) < len(b)
        a, b = b, ref_monic(r) if r else r
    return ref_monic(a)


def ref_from_dense(v, coeffs):
    return {v + i: g for i, g in enumerate(coeffs) if g != ZERO}


def ref_normalize(num, den):
    """Canonical (num, den) of dicts: gcd divided out, denominator monic of
    lowest exponent 0."""
    if not num:
        return {}, REF_ONE
    vn, dn = ref_dense(num)
    vd, dd = ref_dense(den)
    g = ref_poly_gcd(dn, dd)
    if len(g) > 1:
        dn, dd = ref_poly_divmod(dn, g)[0], ref_poly_divmod(dd, g)[0]
    inv_lead = ref_inverse(dd[-1])
    num = ref_from_dense(vn - vd, [ref_mul(x, inv_lead) for x in dn])
    if len(dd) == 1:
        return num, REF_ONE
    return num, ref_from_dense(0, ref_monic(dd))


def ref_ratfunc(num, den):
    """The Scalar of dicts num/den, in canonical form by the reference Euclid."""
    return from_ref(*ref_normalize(num, den))


def pairs_of(p, imag=False):
    """An engine polynomial as a dict of Fraction pairs, times i when imag."""
    return to_pairs(as_dict(p), imag)


def test_reference_euclid_reduces_by_hand():
    # (s^2 - 1)/(s^2 + s/2 - 1/2) = (s - 1)/(s - 1/2) over the common factor
    # s + 1, a non-integral root; times i, and with s - 3 cancelled too
    one, half, i = (Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(0)), (0, Fraction(1))
    common = {1: one, 0: one}
    num = ref_lp_mul(common, {1: one, 0: ref_neg(one)})
    den = ref_lp_mul(common, {1: one, 0: half})
    extra = {1: one, 0: (Fraction(-3), Fraction(0))}
    num_i, den_i = ref_lp_mul(ref_lp_mul(num, extra), {0: i}), ref_lp_mul(den, extra)
    want = ({1: one, 0: ref_neg(one)}, {1: one, 0: half})
    assert ref_normalize(num, den) == want
    assert ref_normalize(num_i, den_i) == (ref_lp_mul(want[0], {0: i}), want[1])
    got = Scalar(lp(graded_dict(num_i)[0]), lp(graded_dict(den_i)[0]), 2)
    assert ref_of(got) == ref_normalize(num_i, den_i)


def cross_branch(p, q):
    """Which path _cross_reduce(p, q) takes: 'q|p', 'p|q' or 'gcd'.

    Read off the engine's integer pseudo-division, and checked against the
    reference division over the Gaussian rationals.
    """
    pr, qr = p[2], q[2]
    dp, dq = ref_dense(pairs_of(p))[1], ref_dense(pairs_of(q))[1]
    if len(pr) >= len(qr):
        exact = not qcoeff._pdivmod(pr, qr)[1]
        assert exact == (not ref_poly_divmod(dp, dq)[1])
        return "q|p" if exact else "gcd"
    exact = not qcoeff._pdivmod(qr, qcoeff._primitive(pr))[1]
    assert exact == (not ref_poly_divmod(dq, dp)[1])
    return "p|q" if exact else "gcd"


# at least two terms, so no factor is a monomial (a unit of the Laurent ring)
factors = st.dictionaries(
    st.integers(-2, 2), nonzero_fractions, min_size=2, max_size=3,
).map(lp)


@st.composite
def cross_pairs(draw):
    """(branch, a, b): a.num against b.den takes the drawn _cross_reduce path.

    a.num = f*g and b.den = f, f*g or f*h share the factor f; the other two
    polynomials are arbitrary, so the second cross-reduction varies too.
    """
    branch = draw(st.sampled_from(("q|p", "p|q", "gcd")))
    f, g, h = draw(factors), draw(factors), draw(factors)
    num_a, den_b = {"q|p": (qcoeff._lp_mul(f, g), f),
                    "p|q": (f, qcoeff._lp_mul(f, g)),
                    "gcd": (qcoeff._lp_mul(f, g), qcoeff._lp_mul(f, h))}[branch]
    a, b = Scalar(num_a, draw(small_polys)), Scalar(draw(small_polys), den_b)
    # a draw whose factors cancel or divide one another takes another path
    assume(cross_branch(a.num, b.den) == branch)
    return branch, a, b


@settings(max_examples=100, deadline=None)
@given(st.one_of(cross_pairs(), st.tuples(st.just("any"), real_fractions, real_fractions)))
def test_products_are_canonical_by_construction(case):
    # a product of canonical fractions, built by cross-reduction alone, is
    # the fully gcd-normalized fraction of the plain products
    _, a, b = case
    b_inv = Scalar(b.den, b.num)
    mul = qcoeff._lp_mul
    for got, num, den in ((a * b, mul(a.num, b.num), mul(a.den, b.den)),
                          (b * a, mul(a.num, b.num), mul(a.den, b.den)),
                          (a / b_inv, mul(a.num, b_inv.den), mul(a.den, b_inv.num)),
                          (a / b, mul(a.num, b.den), mul(a.den, b.num))):
        assert got == Scalar(num, den)
        assert_canonical_fraction(got)


# four kinds of polynomial factor for the reference property, each of at
# least two terms: non-integral monic (s^k + 1/2), an integer lead other
# than 1 (-s + 2, 3s - 1/2), cyclotomic products (s^k +- 1) of degree up to
# 96, and the small rational ones of `factors`
half_factors = st.builds(
    lambda k, c: laurent({k: 1, 0: c}), st.integers(1, 3),
    st.fractions(-3, 3, max_denominator=6).filter(lambda c: c.denominator > 1))
lead_factors = st.builds(
    lambda lead, c: lp({1: lead, 0: c}),
    st.integers(-4, 4).filter(lambda n: n not in (0, 1)), nonzero_fractions)
cyclotomic_factors = st.lists(
    st.tuples(st.integers(1, 96), st.sampled_from((1, -1))), min_size=1, max_size=3,
).filter(lambda ks: sum(k for k, _ in ks) <= 96).map(
    lambda ks: reduce(qcoeff._lp_mul, [laurent({k: 1, 0: e}) for k, e in ks]))
any_factors = st.one_of(half_factors, lead_factors, cyclotomic_factors, factors)
small_factors = st.one_of(half_factors, lead_factors, factors)


@st.composite
def reference_pairs(draw):
    """(branch, a, b), canonical by the reference with real or imaginary
    numerators, a.num against b.den taking the drawn _cross_reduce path, with
    denominators of every kind."""
    branch = draw(st.sampled_from(("q|p", "p|q", "gcd")))
    f, g, h = draw(any_factors), draw(small_factors), draw(small_factors)
    num_a, den_b = {"q|p": (qcoeff._lp_mul(f, g), f),
                    "p|q": (f, qcoeff._lp_mul(f, g)),
                    "gcd": (qcoeff._lp_mul(f, g), qcoeff._lp_mul(f, h))}[branch]
    a = ref_ratfunc(pairs_of(num_a, draw(st.booleans())),
                    pairs_of(draw(st.one_of(any_factors, small_polys))))
    b = ref_ratfunc(pairs_of(draw(st.one_of(small_factors, small_polys)), draw(st.booleans())),
                    pairs_of(den_b))
    assume(cross_branch(a.num, b.den) == branch)
    return branch, a, b


@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(reference_pairs())
def test_arithmetic_matches_the_reference_euclid(case):
    # products, quotients, sums of one grade and fresh fractions from the
    # integer gcd path are the canonical fractions of the Fraction-pair
    # Euclid, with the unreduced numerators and denominators built by the
    # dict reference
    _, a, b = case
    mul, add = ref_lp_mul, ref_lp_add
    (an, ad), (bn, bd) = ref_of(a), ref_of(b)
    cases = [(a * b, mul(an, bn), mul(ad, bd)), (a / b, mul(an, bd), mul(ad, bn)),
             (Scalar(a.num, b.den, a.p), an, bd)]
    if a.p == b.p:
        cases.append((a + b, add(mul(an, bd), mul(bn, ad)), mul(ad, bd)))
    for got, num, den in cases:
        want = ref_ratfunc(num, den)
        assert (got.num, got.den, got.p) == (want.num, want.den, want.p)
        assert_canonical_fraction(got)


def test_division_with_surds():
    x = S_I * S_T * (spow(1) + S_ONE) * spow(3)
    y = spow(2) - 3 * spow(-2)
    for d in (y * unit for unit in UNITS):
        assert (x / d) * d == x and (x / d).p == x.p ^ d.p


def test_gcd_raises_when_a_remainder_does_not_shrink(monkeypatch):
    # a division that hands the dividend back as its remainder would make the
    # Euclidean loop swap the two polynomials forever
    monkeypatch.setattr(qcoeff, "_pdivmod", lambda a, b: ([], list(a)))
    with pytest.raises(ArithmeticError, match="not shorter than its divisor"):
        qcoeff._poly_gcd([1, 1, 1], [1, 1])
    # and the guard is reached from the public arithmetic
    with pytest.raises(ArithmeticError, match="not shorter than its divisor"):
        RatFunc(laurent({2: 1, 1: 1, 0: 1}), laurent({1: 1, 0: 1}))


# ---------------------------------------------------------------------------
# eval_q1
# ---------------------------------------------------------------------------

def assert_constant(x):
    """x is a constant Scalar: a canonical constant over the unit denominator."""
    assert_canonical_fraction(x)
    pair_of(x)


@pytest.mark.parametrize("n", list(range(-24, 25)))
def test_eval_q1_of_qint_is_n(n):
    assert eval_q1(qint(n)) == n


def test_eval_q1_constants_fixed():
    assert eval_q1(S_ONE) == 1
    assert eval_q1(Scalar.from_rat(Fraction(3, 7))) == Fraction(3, 7)


def test_eval_q1_surds():
    assert eval_q1(S_T) == S_T
    assert eval_q1(S_T * S_T) == 2
    for p, unit in enumerate(UNITS):
        x = eval_q1(unit * spow(3) / (qint(2) + Fraction(1, 2)))
        assert_constant(x)
        assert (x.num, x.den, x.p) == ((0, 5, (2,)), qcoeff.LP_ONE, p)


@settings(max_examples=40, deadline=None)
@given(same_grade_pairs, scalars(0))
def test_eval_q1_is_a_ring_map_onto_surd_rationals(ab, c):
    # a / c, for c nonzero at q = 1, has a denominator that stays regular
    # there; the constants at q = 1 are Scalars of the same grade, and
    # i^2 = -1 and t^2 = 2 hold in their arithmetic as in every Scalar's
    a, b = ab
    if not eval_q1(c).is_zero():
        a = a / c
    ea, eb = eval_q1(a), eval_q1(b)
    for e in (ea, eb):
        assert_constant(e)
    assert eval_q1(a + b) == ea + eb
    assert eval_q1(a - b) == ea - eb
    assert eval_q1(a * b) == ea * eb
    if b.is_zero():
        return
    if eb.is_zero():
        with pytest.raises(PoleAtQ1Error):
            eval_q1(b.inverse())
    else:
        assert eval_q1(b.inverse()) == eb.inverse()
        assert eb * eb.inverse() == 1


def test_surd_rational_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        eval_q1(S_ZERO).inverse()


@settings(max_examples=100, deadline=None)
@given(nonzero_pairs, st.integers(0, 1))
def test_constant_inverse_matches_the_reference(a, p):
    # 1/a and 1/(a t) = t/(2a) on real and imaginary constants, against Fraction pairs
    x = const(a) * S_T ** p
    y = x.inverse()
    assert x * y == 1
    assert_constant(y)
    assert y.p == x.p and pair_of(y) == ref_mul((Fraction(1, 2 ** p), 0), ref_inverse(a))


def test_eval_q1_pole_raises():
    x = S_ONE / q_minus_qinv()
    with pytest.raises(PoleAtQ1Error):
        eval_q1(x)


def test_taylor_order0_agrees_with_eval():
    xs = [qint(5), S_T * qint(3) / (qint(2) + S_ONE), S_T * qint(2), S_I * S_T * qint(2)]
    for x in xs:
        assert taylor_q1(x) == (0, eval_q1(x))


# ---------------------------------------------------------------------------
# taylor_q1: the leading term (k, c) of x = c h^k + O(h^(k+1)), q = exp(i h)
# ---------------------------------------------------------------------------

def test_taylor_qint2():
    # [2] = 2 cos h = 2 - h^2 + ...
    assert taylor_q1(qint(2)) == (0, 2)
    # [2] - 2 = -h^2 + h^4/12 - ...
    assert taylor_q1(qint(2) - 2) == (2, -1)


def test_taylor_q_minus_qinv():
    # q - 1/q = 2i sin h = 2i h - i h^3 / 3 + ...
    k, c = taylor_q1(q_minus_qinv())
    assert (k, c) == (1, 2 * S_I)
    assert_constant(c)


def test_taylor_constant():
    for v in (1, Fraction(-2, 3)):
        assert taylor_q1(Scalar.from_rat(v)) == (0, v)
    # zero has order +inf, past every finite order, and coefficient 0
    assert taylor_q1(S_ZERO) == qcoeff.ZERO_TERM == (float("inf"), S_ZERO)


def test_taylor_pole_in_h():
    # 1/(q - 1/q) = 1/(2i h) + O(h): a pole gives a negative order
    assert taylor_q1(S_ONE / q_minus_qinv()) == (-1, Fraction(-1, 2) * S_I)


def test_taylor_third_order_pole_in_one_pass(monkeypatch):
    # 1/(q - 1/q)^3 = 1/(2i sin h)^3 = (i/8) h^-3 (1 + h^2/2 + ...): the
    # denominator vanishes to third order in h, and numerator and denominator
    # are each read once
    calls = []
    lead = qcoeff._leading_moment
    monkeypatch.setattr(qcoeff, "_leading_moment", lambda p: calls.append(p) or lead(p))
    assert taylor_q1(S_ONE / q_minus_qinv() ** 3) == (-3, Fraction(1, 8) * S_I)
    assert len(calls) == 2


def test_taylor_of_t_component():
    # t*[2] = t*(2 - h^2 + ...): a multiple of t has the leading term of its
    # rational part, times t
    assert taylor_q1(S_T * qint(2)) == (0, 2 * S_T)
    assert taylor_q1(S_I * S_T / q_minus_qinv()) == (-1, Fraction(1, 2) * S_T)


def test_qint_taylor_limit():
    # [n] -> n with the first correction -n(n^2-1)/6 * h^2
    for n in (2, 3, 5):
        assert taylor_q1(qint(n)) == (0, n)
        assert taylor_q1(qint(n) - n) == (2, Fraction(-n * (n * n - 1), 6))


# values of every grade with poles of order 0..3 at q = 1
poled = st.builds(lambda x, p: x / q_minus_qinv() ** p,
                  scalars().filter(lambda x: not x.is_zero()), st.integers(0, 3))


@settings(max_examples=50, deadline=None)
@given(poled, poled)
def test_taylor_of_a_product_is_the_product_of_the_terms(x, y):
    (kx, cx), (ky, cy) = taylor_q1(x), taylor_q1(y)
    assert taylor_q1(x * y) == (kx + ky, cx * cy)


def _sympy_leading_term(value):
    """The leading term (k, c) of value at s = exp(i h / 2), with c as a
    sympy number times i^(p>>1) (the t factor left out): each exponential
    is expanded by sympy through h^7, past the order of every polynomial of
    a poled value, and a ratio leads with the ratio of the leading terms."""
    import sympy

    h = sympy.symbols("h")

    def lead(p):
        series = sum(sympy.Rational(c) * sympy.exp(sympy.I * k * h / 2).series(h, 0, 8).removeO()
                     for k, c in as_dict(p).items())
        terms = sympy.Poly(sympy.expand(series), h).terms()
        (m,), c = min(terms)
        return m, c

    (a, ca), (b, cb) = lead(value.num), lead(value.den)
    return a - b, sympy.expand(ca / cb * sympy.I ** (value.p >> 1))


def _sympy_of(c):
    """A constant Scalar, times 1/t when it is t-odd, as a sympy number."""
    import sympy

    re, im = pair_of(c)
    return sympy.Rational(re) + sympy.I * sympy.Rational(im)


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(poled)
def test_taylor_matches_the_sympy_leading_term(x):
    k, c = taylor_q1(x)
    assert_constant(c)
    assert c.p & 1 == x.p & 1
    want_k, want_c = _sympy_leading_term(x)
    assert k == want_k
    assert _sympy_of(c) == want_c


def test_taylor_matches_sympy_series_with_t_part_and_third_order_pole():
    # the value times each unit 1, t, i and i*t, against sympy's series
    x = (qint(3) + Scalar.q_power(1) + Fraction(2, 3) * spow(-1)) / q_minus_qinv() ** 3
    for value in (x * unit for unit in UNITS):
        k, c = taylor_q1(value)
        assert k == -3 and c.p & 1 == value.p & 1
        assert (k, _sympy_of(c)) == _sympy_leading_term(value)


def test_scalar_str_deterministic():
    x = -S_I * S_T * Scalar.q_power(1)
    assert str(x) == str(-S_I * S_T * Scalar.q_power(1))
    assert "t" in str(x)


def test_scalar_str_brackets_a_t_coefficient_once():
    s = Scalar.s_power(1)
    half = Scalar.from_rat(Fraction(1, 2))
    # an imaginary coefficient prints times i and is bracketed as a real one is
    assert str(S_I * S_T) == "i*t" and str(-S_I * S_T) == "-i*t"
    assert str(S_I * S_T * half) == "(1/2*i)*t" and str(S_T * half) == "(1/2)*t"
    assert str(S_T * (s + 1)) == "(s + 1)*t"
    assert str(S_I * S_T * (s - 1)) == "(i*s - i)*t"
    # starts with "(" and ends with ")", but is two groups over a "/"
    assert str(S_T * (s + 1) / (s * s + 1)) == "((s + 1)/(s^2 + 1))*t"
    assert str(S_I * (s + 1) / (s * s + 1)) == "(i*s + i)/(s^2 + 1)"
