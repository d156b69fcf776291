"""Region expansions, delta calculus, residue pairing.

The independent oracle for expansions is sympy's own series machinery over
a symbolic q (computed first, frozen through exact coefficient comparison).
"""

from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import Phase, given, settings, strategies as st

from qvir.qcoeff import S_I, S_ONE, S_T, S_ZERO, Scalar, q_minus_qinv, qint
from qvir.dirac import DiracMatrix, invert
from qvir.distcalc import (
    Dist2,
    ModeWindow,
    RatKernel,
    WindowMismatchError,
    expand_inner,
    expand_outer,
    pair,
    region_difference,
    weight_abs,
)

W = ModeWindow(8)
Q = Scalar.q_power


def qpow(k):
    return Scalar.s_power(2 * k)


# ---------------------------------------------------------------------------
# sympy oracle helpers (test-only; independent of the engine's expansion path)
# ---------------------------------------------------------------------------

_s = sympy.symbols("s")
_x = sympy.symbols("x")


def scalar_to_sympy(v: Scalar):
    assert v.is_rational_sector(), "oracle only handles the rational sector"
    f, unit = v.f, sympy.I ** (v.p >> 1)

    def lp(p):
        # the engine's polynomial s^v re/d, or () for zero
        if not p:
            return sympy.Integer(0)
        v, d, re = p
        return sum(sympy.Rational(x, d) * _s**k for k, x in enumerate(re, start=v))

    return sympy.cancel(unit * lp(f.num) / lp(f.den))


def kernel_to_sympy(K: RatKernel):
    num = sum(scalar_to_sympy(a) * _x**j for j, a in enumerate(K.num))
    den = sum(scalar_to_sympy(a) * _x**j for j, a in enumerate(K.den))
    return sympy.cancel(scalar_to_sympy(K.c) * _x**K.m * num / den)


def _laurent_coeffs(expr, var, N, flip=False):
    ser = sympy.expand(sympy.series(expr, var, 0, N + 1).removeO())
    out = {}
    for n in range(-2 * N, N + 1):
        c = sympy.simplify(ser.coeff(var, n))
        if c != 0:
            out[-n if flip else n] = c
    return out


def oracle_inner(K: RatKernel, N: int):
    """Laurent coefficients of the kernel around x = 0, via sympy."""
    return _laurent_coeffs(kernel_to_sympy(K), _x, N)


def oracle_outer(K: RatKernel, N: int):
    """Coefficients of the |w|>|z| region expansion, via sympy in y = 1/x."""
    y = sympy.symbols("y")
    expr = sympy.cancel(sympy.together(kernel_to_sympy(K).subs(_x, 1 / y)))
    return _laurent_coeffs(expr, y, N, flip=True)


def assert_matches_oracle(D: Dist2, oracle: dict, N: int):
    for n in range(-N, N + 1):
        got = D.coeff(n)
        want = oracle.get(n, sympy.Integer(0))
        assert sympy.simplify(scalar_to_sympy(got) - want) == 0, f"mode {n}: {got} vs {want}"


@pytest.mark.parametrize("N", (0, -1))
def test_mode_window_rejects_empty_windows(N):
    with pytest.raises(ValueError, match="window size must be >= 1"):
        ModeWindow(N)


# ---------------------------------------------------------------------------
# expand_inner
# ---------------------------------------------------------------------------

def test_inner_geometric():
    K = RatKernel.from_linear_factors(S_ONE, 0, [], [S_ONE])  # 1/(1-x)
    D = expand_inner(K, W)
    for n in W.modes():
        assert D.coeff(n) == (S_ONE if n >= 0 else S_ZERO)


def test_inner_geometric_shifted():
    K = RatKernel.from_linear_factors(S_ONE, 0, [], [Q(1)])  # 1/(1-qx)
    D = expand_inner(K, W)
    for n in W.modes():
        assert D.coeff(n) == (qpow(n) if n >= 0 else S_ZERO)


def test_inner_qint_kernel():
    # x/((1-qx)(1-1/q x)) has coefficients [n] for n >= 1 (partial fractions by hand)
    K = RatKernel.from_linear_factors(S_ONE, 1, [], [Q(1), Q(-1)])
    D = expand_inner(K, W)
    for n in W.modes():
        assert D.coeff(n) == (qint(n) if n >= 1 else S_ZERO)


def test_inner_against_sympy_oracle():
    K = RatKernel.from_linear_factors(Scalar.from_rat(Fraction(2, 3)), -1, [Q(3)], [Q(1), Q(-1)])
    assert_matches_oracle(expand_inner(K, ModeWindow(6)), oracle_inner(K, 6), 6)


def test_inner_times_denominator_recovers_numerator():
    # series-division soundness on the window
    K = RatKernel.from_linear_factors(S_I, 2, [Q(2)], [Q(1), Q(-2)])
    D = expand_inner(K, W)
    back = D.mul_laurent({j: a for j, a in enumerate(K.den)})
    target = {K.m + j: K.c * a for j, a in enumerate(K.num)}
    for n in range(-back.N, back.N + 1):
        assert back.coeff(n) == target.get(n, S_ZERO)


# ---------------------------------------------------------------------------
# expand_outer
# ---------------------------------------------------------------------------

def test_outer_geometric():
    K = RatKernel.from_linear_factors(S_ONE, 0, [], [S_ONE])  # 1/(1-x) -> -sum_{n>=1} x^-n
    D = expand_outer(K, W)
    for n in W.modes():
        assert D.coeff(n) == (-S_ONE if n <= -1 else S_ZERO)


def test_outer_constant_both_regions():
    K = RatKernel.const(S_I)
    assert expand_inner(K, W) == Dist2.unit0(W.N, S_I)
    assert expand_outer(K, W) == Dist2.unit0(W.N, S_I)


def test_outer_qint_kernel():
    # x/((1-qx)(1-1/q x)): coefficient at mode n <= -1 is [-n] (odd partner
    # of the inner side; substitution x -> 1/x reuses the inner expansion)
    K = RatKernel.from_linear_factors(S_ONE, 1, [], [Q(1), Q(-1)])
    D = expand_outer(K, W)
    for n in W.modes():
        assert D.coeff(n) == (qint(-n) if n <= -1 else S_ZERO)


def test_outer_against_sympy_oracle():
    K = RatKernel.from_linear_factors(Scalar.from_rat(3), 0, [Q(-3)], [Q(2)])
    assert_matches_oracle(expand_outer(K, ModeWindow(6)), oracle_outer(K, 6), 6)


# ---------------------------------------------------------------------------
# region_difference
# ---------------------------------------------------------------------------

def test_region_difference_delta():
    K = RatKernel.from_linear_factors(S_ONE, 0, [], [Q(1)])  # 1/(1-qx)
    D = region_difference(K, W)
    for n in W.modes():
        assert D.coeff(n) == qpow(n)


def test_region_difference_polynomial_vanishes():
    # i x^-2 (1 - q x)(1 - q^-3 x): a Laurent kernel needs linear factors
    K = RatKernel.from_linear_factors(S_I, -2, [Q(1), Q(-3)], [])
    assert region_difference(K, W).is_zero()


def ope_exchange_kernel():
    # (1-q^3 x)(1-q^-3 x)/((1-qx)(1-q^-1 x))
    return RatKernel.from_linear_factors(S_ONE, 0, [Q(3), Q(-3)], [Q(1), Q(-1)])


def test_region_difference_exchange_kernel():
    # hand derivation: K = 1 - [2](q-1/q)^2 x/((1-qx)(1-1/q x)), so the
    # difference is -[2](q-1/q)^2 [n] at every mode (odd in n)
    D = region_difference(ope_exchange_kernel(), W)
    pref = -qint(2) * q_minus_qinv() * q_minus_qinv()
    for n in W.modes():
        assert D.coeff(n) == pref * qint(n)
    assert D.reflect() == -D


def test_region_difference_matches_constraint_bracket_pattern():
    # scaled by -1/(2(q-1/q)^2) this is the self-bracket content of the
    # difference constraint: ([2]/2)[n] for n>0 and -([2]/2)[-n] for n<0
    D = region_difference(ope_exchange_kernel(), W)
    scale = (-S_ONE / Scalar.from_rat(2)) / (q_minus_qinv() * q_minus_qinv())
    half2 = qint(2) / Scalar.from_rat(2)
    for n in W.modes():
        if n > 0:
            assert scale * D.coeff(n) == half2 * qint(n)
        elif n < 0:
            assert scale * D.coeff(n) == -(half2 * qint(-n))
        else:
            assert scale * D.coeff(0) == S_ZERO


def test_region_difference_odd_for_qint_generator():
    # x/((1-qx)(1-1/q x)) generates the odd extension [n] over all modes
    K = RatKernel.from_linear_factors(S_ONE, 1, [], [Q(1), Q(-1)])
    D = region_difference(K, W)
    for n in W.modes():
        assert D.coeff(n) == qint(n)
    assert D.reflect() == -D


# ---------------------------------------------------------------------------
# pair
# ---------------------------------------------------------------------------

def test_pair_delta_identity():
    D = Dist2.from_func(W.N, lambda n: (qint(n) + S_ONE) * S_I)
    assert pair(Dist2.delta(W.N), D) == D


def test_pair_zero():
    D = Dist2.from_func(W.N, lambda n: Scalar.from_rat(n * n))
    assert pair(D, Dist2.zero(W.N)).is_zero()


def test_pair_inverse_geometrics():
    D1 = Dist2.from_func(W.N, lambda n: qpow(n))
    D2 = Dist2.from_func(W.N, lambda n: qpow(-n))
    assert pair(D1, D2) == Dist2.delta(W.N)


def test_pair_commutative_associative():
    A = Dist2.from_func(W.N, lambda n: qint(n + 1))
    B = Dist2.from_func(W.N, lambda n: qpow(n) + S_ONE)
    C = Dist2.from_func(W.N, lambda n: Scalar.from_rat(n))
    assert pair(A, B) == pair(B, A)
    assert pair(pair(A, B), C) == pair(A, pair(B, C))


def test_pair_window_mismatch():
    with pytest.raises(WindowMismatchError):
        pair(Dist2.delta(4), Dist2.delta(5))


@pytest.mark.parametrize("op", (Dist2.__eq__, Dist2.__ne__, Dist2.first_mismatch, Dist2.__add__,
                                Dist2.__sub__))
def test_window_mismatch_fails_loudly(op):
    # a result that lost modes must not compare equal on the smaller window
    with pytest.raises(WindowMismatchError):
        op(Dist2.delta(1), Dist2.delta(5))


# small real mode values, and the same times the unit i^(p>>1)*t^(p&1) of
# each grade p, so products reach every Scalar shortcut and grade; a sum adds
# values of one grade, as every sum in the chain does
REAL_MODE_VALUES = (S_ZERO, S_ONE, -S_ONE, qint(2), qpow(1) - S_ONE,
                    Scalar.from_rat(Fraction(1, 3)))
mode_values_of_grade = tuple(st.sampled_from([v * unit for v in REAL_MODE_VALUES])
                             for unit in (S_ONE, S_T, S_I, S_I * S_T))
tower_mode_values = st.one_of(mode_values_of_grade)
# a sparse window of one grade, zeros and shared modes drawn often
mode_values = mode_values_of_grade[0]


@st.composite
def dist_pairs(draw, values=mode_values):
    N = draw(st.integers(1, 6))
    modes = st.dictionaries(st.integers(-N, N), values, max_size=2 * N + 1)
    a, b = Dist2(N, draw(modes)), Dist2(N, draw(modes))
    if draw(st.booleans()):     # b cancels some of a's modes
        b = Dist2(N, b.c | {n: v for n, v in a.c.items() if draw(st.booleans())})
    return a, b


@settings(max_examples=60, deadline=None)
@given(dist_pairs())
def test_sub_subtracts_per_mode_without_negating(ab):
    # a - b runs Scalar.__sub__ per mode: no negated copy of b is built
    a, b = ab
    want = a + (-b)
    negations = []
    neg = Scalar.__neg__
    with mock.patch.object(Scalar, "__neg__", lambda x: negations.append(x) or neg(x)):
        got = a - b
    assert negations == []
    assert got == want and got.N == a.N
    assert all(not v.is_zero() for v in got.c.values())
    assert (a - a).is_zero() and b - Dist2.zero(b.N) == b


def assert_trusted(D, N):
    # what Dist2's public constructor would keep: modes |n| <= N, no zeros
    assert D.N == N
    assert all(abs(n) <= N and not v.is_zero() for n, v in D.c.items())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(mode_values_of_grade).flatmap(dist_pairs), tower_mode_values,
       st.integers(-2, 2))
def test_trusted_results_keep_the_window_and_no_zeros(ab, a, k):
    # the results built without the constructor's filtering pass
    x, y = ab
    for D in (x + y, x - y, x - x, -x, x.reflect(), x.scale(a), pair(x, y), pair(x, x),
              weight_abs(x, k)):
        assert_trusted(D, x.N)


@st.composite
def invertible_matrices(draw):
    # entry (i, j) at mode n has grade r_i ^ c_j, so both products of the
    # determinant have one grade, as in the Dirac matrix
    N = draw(st.integers(1, 4))
    entries = [{}, {}, {}, {}]
    for n in range(-N, N + 1):
        r0, r1, c0, c1 = draw(st.tuples(*[st.integers(0, 3)] * 4))
        m = draw(st.tuples(*[mode_values_of_grade[p]
                             for p in (r0 ^ c0, r0 ^ c1, r1 ^ c0, r1 ^ c1)]).filter(
            lambda m: not (m[0] * m[3] - m[1] * m[2]).is_zero()))
        for e, v in zip(entries, m):
            e[n] = v
    return N, DiracMatrix(*(Dist2(N, e) for e in entries))


@settings(max_examples=40, deadline=None)
@given(invertible_matrices())
def test_inverse_entries_keep_the_window_and_no_zeros(Nm):
    N, dm = Nm
    inv = invert(dm, ModeWindow(N))
    for i in (0, 1):
        for j in (0, 1):
            assert_trusted(inv.entry(i, j), N)
    assert invert(inv, ModeWindow(N)) == dm


def test_mul_laurent_by_zero_keeps_the_window():
    D = Dist2.delta(W.N).mul_laurent({})
    assert D.N == W.N
    assert D.is_zero()


def test_pair_mode_diagonality_no_leakage():
    big, small = ModeWindow(12), ModeWindow(6)
    A_big = Dist2.from_func(big.N, lambda n: qint(n) + S_ONE)
    B_big = Dist2.from_func(big.N, lambda n: qpow(-n))
    restricted = pair(A_big, B_big).truncate(small.N)
    direct = pair(A_big.truncate(small.N), B_big.truncate(small.N))
    assert restricted == direct


# ---------------------------------------------------------------------------
# weight_abs
# ---------------------------------------------------------------------------

def test_weight_identity():
    D = Dist2.from_func(W.N, lambda n: qint(n))
    assert weight_abs(D, 0) == D


def test_weight_on_delta():
    D = weight_abs(Dist2.delta(W.N), 2)
    for n in W.modes():
        assert D.coeff(n) == qpow(2 * abs(n))


def test_weight_inverse_pair():
    D = Dist2.from_func(W.N, lambda n: (qint(n) + S_ONE) * S_I)
    assert weight_abs(weight_abs(D, 2), -2) == D


# ---------------------------------------------------------------------------
# kernel algebra
# ---------------------------------------------------------------------------

def test_kernel_equality_cross_multiplied():
    K1 = RatKernel.from_linear_factors(Q(2), 0, [Q(-2)], [Q(2)])
    # the same kernel with the constant q^2 in u instead of c
    K2 = RatKernel(S_ONE, 0, Q(2), {Q(-2): -1, Q(2): 1})
    assert K1 == K2


def test_kernel_reciprocal_is_involution():
    K = RatKernel.from_linear_factors(S_I, -1, [Q(3), Q(-3)], [Q(1)])
    assert K.reciprocal_arg().reciprocal_arg() == K


def test_self_exchange_kernel_times_reciprocal_is_one():
    # for a self-exchange kernel, applying the exchange twice is the identity:
    # K(x) * K(1/x) = 1 with K = q^2 (1 - q^-2 x)/(1 - q^2 x)
    K = RatKernel.from_linear_factors(Q(2), 0, [Q(-2)], [Q(2)])
    assert K * K.reciprocal_arg() == RatKernel.const(S_ONE)


def test_symmetric_kernel_fixed_by_reciprocal():
    # the palindromic kernel satisfies K(1/x) = K(x)
    K = ope_exchange_kernel()
    assert K.reciprocal_arg() == K



# ---------------------------------------------------------------------------
# Factored kernels against the dense reference: expanded polynomials made
# coprime by a Euclidean gcd over the Scalar field, equality by
# cross-multiplication (test-only)
# ---------------------------------------------------------------------------

def ref_poly_mul(a, b):
    out = [S_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def ref_poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1].is_zero():
        p.pop()
    return p


def ref_poly_divmod(a, b):
    a = list(a)
    q = [S_ZERO] * max(1, len(a) - len(b) + 1)
    inv_lead = b[-1].inverse()
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * inv_lead
        if f.is_zero():
            continue
        q[i] = f
        for j, bj in enumerate(b):
            a[i + j] = a[i + j] - f * bj
    return ref_poly_trim(q), ref_poly_trim(a)


def ref_poly_gcd(a, b):
    """Monic gcd over the Scalar field."""
    a, b = ref_poly_trim(a), ref_poly_trim(b)
    if len(a) == 1 and a[0].is_zero():
        a = []
    if len(b) == 1 and b[0].is_zero():
        b = []
    while b:
        _, r = ref_poly_divmod(a, b)
        if len(r) == 1 and r[0].is_zero():
            r = []
        assert len(r) < len(b), "a Euclidean remainder did not shrink"
        if r:
            inv = r[-1].inverse()
            r = [x * inv for x in r]
        a, b = b, r
    if not a:
        return [S_ONE]
    inv = a[-1].inverse()
    return [x * inv for x in a]


def ref_kernel(c, m, num, den):
    """(c, m, num, den) with num and den coprime, free of x and den[0] = 1."""
    num, den = ref_poly_trim(num), ref_poly_trim(den)
    if all(a.is_zero() for a in num):
        return S_ZERO, 0, [S_ONE], [S_ONE]
    while num[0].is_zero():
        num.pop(0)
        m += 1
    while den[0].is_zero():
        den.pop(0)
        m -= 1
    if len(num) > 1 and len(den) > 1:
        g = ref_poly_gcd(num, den)
        if len(g) > 1:
            num, _ = ref_poly_divmod(num, g)
            den, _ = ref_poly_divmod(den, g)
    d0 = den[0].inverse()
    return c, m, [a * d0 for a in num], [a * d0 for a in den]


def ref_mul(A, B):
    return ref_kernel(A[0] * B[0], A[1] + B[1], ref_poly_mul(A[2], B[2]), ref_poly_mul(A[3], B[3]))


def ref_div(A, B):
    return ref_kernel(A[0] / B[0], A[1] - B[1], ref_poly_mul(A[2], B[3]), ref_poly_mul(A[3], B[2]))


def ref_reciprocal_arg(A):
    c, m, num, den = A
    return ref_kernel(c, -m - (len(num) - 1) + (len(den) - 1), num[::-1], den[::-1])


def ref_eq(A, B):
    """c1 x^m1 P1 Q2 == c2 x^m2 P2 Q1."""
    left = ref_poly_mul([A[0] * a for a in A[2]], B[3])
    right = ref_poly_mul([B[0] * a for a in B[2]], A[3])
    shift = A[1] - B[1]
    return ({i + shift: v for i, v in enumerate(left) if not v.is_zero()}
            == {i: v for i, v in enumerate(right) if not v.is_zero()})


def ref_str(A):
    def poly_str(p):
        parts = []
        for j, a in enumerate(p):
            if a.is_zero():
                continue
            xs = "1" if j == 0 else ("x" if j == 1 else f"x^{j}")
            parts.append(xs if (str(a) == "1" and j) else f"({a})" + ("" if j == 0 else f"*{xs}"))
        return " + ".join(parts) or "0"

    c, m, num, den = A
    return f"({c})" + (f"*x^{m}" if m else "") + f"*[{poly_str(num)}]/[{poly_str(den)}]"


def assert_matches_reference(K, A):
    assert (K.c, K.m, K.num, K.den) == (A[0], A[1], tuple(A[2]), tuple(A[3]))
    assert str(K) == ref_str(A)


# the same examples, without hypothesis shrinking: each replay runs the
# reference Euclid, so a failure is reported as found
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]

# a small pool, so that two kernels often share roots: monomials s^e,
# negated monomials -s^e and roots that are not monomials, all real, so that
# each coefficient of a product of factors (1 - r z) has one grade
_ROOTS = [Scalar.s_power(e) for e in (-3, -2, 1, 2)] + \
    [-Scalar.s_power(e) for e in (-1, 2)] + \
    [S_ONE + Scalar.s_power(2), Scalar.from_rat(Fraction(1, 2)) - Scalar.s_power(-1)]
_CONSTS = [S_ONE, -S_ONE, Scalar.from_rat(Fraction(2, 3)), S_I * Q(1), Q(-2) + S_ONE]

consts = st.sampled_from(_CONSTS)
multiplicities = st.sampled_from((-2, -1, 1, 2))


@st.composite
def factored_kernels(draw):
    """A RatKernel and its reference form, expanded from the same factors
    (distinct roots, so already coprime)."""
    c, u, m = draw(consts), draw(consts), draw(st.integers(-3, 3))
    roots = draw(st.dictionaries(st.sampled_from(range(len(_ROOTS))), multiplicities, max_size=2))
    roots = {_ROOTS[i]: k for i, k in roots.items()}
    num, den = [u], [S_ONE]
    for r, k in roots.items():
        for _ in range(abs(k)):
            if k > 0:
                den = ref_poly_mul(den, [S_ONE, -r])
            else:
                num = ref_poly_mul(num, [S_ONE, -r])
    return RatKernel(c, m, u, roots), (c, m, num, den)


def resplit(K, A, z):
    """The same value with z moved from u into c."""
    return (RatKernel(K.c * z, K.m, K.u / z, K.roots),
            (A[0] * z, A[1], [a / z for a in A[2]], A[3]))


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(factored_kernels(), factored_kernels(), consts, st.integers(-2, 2), consts)
def test_factored_kernels_match_the_dense_reference(ka, kb, c, zdeg, z):
    # products, quotients, reciprocal arguments and the exchange shape of
    # the engine carry the reference's c, m, num, den and printed form, and
    # == agrees with cross-multiplication, also across c/u splits
    (a, A), (b, B) = ka, kb
    assert_matches_reference(a, A)
    mono = RatKernel.monomial(c, zdeg)
    cases = [(a * b, ref_mul(A, B)), (a / b, ref_div(A, B)),
             (a.reciprocal_arg(), ref_reciprocal_arg(A)),
             (a / (b.reciprocal_arg() * mono),
              ref_div(A, ref_mul(ref_reciprocal_arg(B), (c, zdeg, [S_ONE], [S_ONE]))))]
    assert a.den[0] == S_ONE
    for K, R in cases:
        assert K.den[0] == S_ONE       # the recurrence divides by nothing
        assert_matches_reference(K, R)
        K2, R2 = resplit(K, R, z)
        assert ref_eq(R, R2) and K == K2
        assert (K == a) == ref_eq(R, A)
    assert (a == b) == ref_eq(A, B)
    assert a * b / b == a and ref_eq(ref_div(ref_mul(A, B), B), A)
    assert a.reciprocal_arg().reciprocal_arg() == a
