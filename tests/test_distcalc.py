"""Region expansions, delta calculus, residue pairing.

The independent oracle for expansions is sympy's own series machinery over
a symbolic q (computed first, frozen through exact coefficient comparison).
"""

from fractions import Fraction

import pytest
import sympy

from qvir import distcalc
from qvir.qcoeff import S_I, S_ONE, S_ZERO, Scalar, q_minus_qinv, qint
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
    f = v.c[0]

    def lp(p):
        # the engine's polynomial s^v (re + i*im)/d, or () for zero
        if not p:
            return sympy.Integer(0)
        v, d, re, im = p
        return sum(
            (sympy.Rational(x, d) + sympy.I * sympy.Rational(y, d)) * _s**k
            for k, (x, y) in enumerate(zip(re, im), start=v)
        )

    return sympy.cancel(lp(f.num) / lp(f.den))


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


# ---------------------------------------------------------------------------
# expand_inner
# ---------------------------------------------------------------------------

def test_inner_geometric():
    K = RatKernel(S_ONE, 0, [S_ONE], [S_ONE, -S_ONE])  # 1/(1-x)
    D = expand_inner(K, W)
    for n in W.modes():
        assert D.coeff(n) == (S_ONE if n >= 0 else S_ZERO)


def test_inner_geometric_shifted():
    K = RatKernel(S_ONE, 0, [S_ONE], [S_ONE, -Q(1)])  # 1/(1-qx)
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
    K = RatKernel(S_ONE, 0, [S_ONE], [S_ONE, -S_ONE])  # 1/(1-x) -> -sum_{n>=1} x^-n
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
    K = RatKernel(S_ONE, 0, [S_ONE], [S_ONE, -Q(1)])  # 1/(1-qx)
    D = region_difference(K, W)
    for n in W.modes():
        assert D.coeff(n) == qpow(n)


def test_region_difference_polynomial_vanishes():
    K = RatKernel(S_I, -2, [S_ONE, Q(1), Q(-3)], [S_ONE])
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
    D = Dist2.from_func(W.N, lambda n: qint(n) + S_I)
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


@pytest.mark.parametrize("op", (Dist2.__eq__, Dist2.__ne__, Dist2.first_mismatch, Dist2.__add__))
def test_window_mismatch_fails_loudly(op):
    # a result that lost modes must not compare equal on the smaller window
    with pytest.raises(WindowMismatchError):
        op(Dist2.delta(1), Dist2.delta(5))


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
    D = Dist2.from_func(W.N, lambda n: qint(n) + S_I)
    assert weight_abs(weight_abs(D, 2), -2) == D


# ---------------------------------------------------------------------------
# kernel algebra
# ---------------------------------------------------------------------------

def test_kernel_equality_cross_multiplied():
    K1 = RatKernel.from_linear_factors(Q(2), 0, [Q(-2)], [Q(2)])
    # same kernel written as (q^2 z - w)/(z - q^2 w) = q^2 (1 - q^-2 x)/(1 - q^2 x)
    K2 = RatKernel(S_ONE, 0, [Q(2), -S_ONE], [S_ONE, -Q(2)])
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


def test_kernel_gcd_raises_when_a_remainder_does_not_shrink(monkeypatch):
    # a division that hands the dividend back as its remainder would make the
    # Euclidean loop swap the two polynomials forever
    monkeypatch.setattr(distcalc, "_poly_divmod_s", lambda a, b: ([S_ZERO], list(a)))
    with pytest.raises(ArithmeticError, match="not shorter than its divisor"):
        distcalc._poly_gcd_s([S_ONE, S_ONE, S_ONE], [S_ONE, S_ONE])
