"""Exact arithmetic in the coefficient field tower Q(i)(s)[t].

``s`` is a formal square root of the deformation parameter ``q``, so every
half-integer power of q is a monomial in s.  ``t`` is a formal surd with
t^2 = 2; it stays symbolic under both degeneration maps:

* :func:`eval_q1` substitutes s = 1,
* :func:`taylor_q1` reads the leading term in h after substituting
  s = exp(i h / 2).

All values are immutable; equality is exact and decidable through a
canonical form: a rational function whose numerator and denominator are
coprime, with a monic denominator of lowest exponent zero.

Every polynomial and every constant has one integer form: the tuple
(v, d, re) is s^v re/d, with re a tuple of Python ints over one common
denominator d, canonical when both ends are nonzero and gcd(d, re) = 1
(:func:`laurent` builds one from int or Fraction coefficients).  A rational
constant is the degree-0 tuple (0, d, (a,)).  The coefficients are rational,
so every cyclotomic factor of a q-integer stays irreducible.  Sums, products
(an integer convolution over the nonzero entries) and the gcd path
(cross-reduction, the one way a common factor is cancelled; the polynomial
gcd; the exact divisions by it) all run on it, with one content gcd per
result.
Division is pseudo-division by a divisor whose lead is a positive integer,
so a monic integral divisor costs a plain multiply-subtract; the gcd is the
primitive Euclidean algorithm, each remainder over its signed integer
content.

A :class:`Scalar` is one object: a canonical real fraction num/den of such
tuples and a grade p in 0..3, the value (num/den)*i^(p>>1)*t^(p&1).  Every
value of the level-1 realization is real or purely imaginary, and free of t
or a multiple of it, because i enters only through the correspondence sign
and the couplings i*t.  The degeneration maps stay in the tower:
:func:`eval_q1` gives a constant Scalar of the same grade, and the leading
coefficient from :func:`taylor_q1` is a constant Scalar, so Scalar's own
arithmetic is the constant arithmetic at q = 1.  Each operation is one step
on the tuples and builds one object: a product applies the unit of the
grades' shared bits (t*t = 2, i*i = -1) inside its one polynomial product,
which for two monomials over the unit denominator is one integer product and
one gcd, and a difference adds the negated numerator.  :class:`RatFunc` is
the one normalizing constructor, used only where a sum or a value at q = 1
needs a gcd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, inf, lcm
from operator import add


class PoleAtQ1Error(ArithmeticError):
    """The value has a genuine pole at q = 1 (use taylor_q1 instead)."""


def _coef_str(n, d, imag):
    """n/d (d > 0) printed in lowest terms as str(Fraction(n, d)) prints it, times i when imag."""
    if imag and abs(n) == d:
        return "i" if n > 0 else "-i"
    g = gcd(n, d)
    r = str(n // g) if g == d else f"{n // g}/{d // g}"
    return f"{r}*i" if imag else r


_new = object.__new__


# ---------------------------------------------------------------------------
# Laurent polynomials in s: integer tuples (v, d, re), constant term first
# ---------------------------------------------------------------------------
# Canonical tuples (module docstring) are equal exactly when the polynomials are.

LP_ZERO = ()
LP_ONE = (0, 1, (1,))


def laurent(coeffs):
    """The polynomial of {exponent: int or Fraction}, zeros dropped."""
    cs = {k: x for k, x in coeffs.items() if x}
    if not cs:
        return LP_ZERO
    v, d = min(cs), lcm(*[x.denominator for x in cs.values()])
    re = [0] * (max(cs) - v + 1)
    for k, x in cs.items():
        re[k - v] = x.numerator * (d // x.denominator)
    return _canon(v, d, re)


def _canon(v, d, re):
    """The canonical s^v re/d: zero ends trimmed, content divided out."""
    lo, hi = 0, len(re)
    while hi and not re[hi - 1]:
        hi -= 1
    if not hi:
        return LP_ZERO
    while not re[lo]:
        lo += 1
    if d != 1:
        g = gcd(d, *re)
        if g != 1:
            d //= g
            re = [x // g for x in re]
    return v + lo, d, tuple(re[lo:hi])


def _lp_add(p, q):
    if not p:
        return q
    if not q:
        return p
    if p[0] > q[0]:
        p, q = q, p
    v, dp, pr = p
    vq, dq, qr = q
    if v == vq and len(pr) == 1 == len(qr):     # a sum of monomials
        return _mono(v, pr[0] * dq + qr[0] * dp, dp * dq)
    d = dp // gcd(dp, dq) * dq
    if d != dp:
        pr = [x * (d // dp) for x in pr]
    if d != dq:
        qr = [x * (d // dq) for x in qr]
    o, n = vq - v, len(qr)
    re = [*pr, *[0] * (o + n - len(pr))]
    re[o:o + n] = map(add, re[o:o + n], qr)
    return _canon(v, d, re)


def _lp_neg(p):
    if not p:
        return p
    v, d, re = p
    return v, d, tuple([-x for x in re])


def _mono(v, x, d):
    """The canonical monomial s^v x/d of integers x and d > 0."""
    if not x:
        return LP_ZERO
    g = gcd(x, d)
    return (v, d, (x,)) if g == 1 else (v, d // g, (x // g,))


def _lp_mul(p, q, u=1):
    """The product times the integer u, an integer convolution over the
    nonzero entries only."""
    if not p or not q:
        return LP_ZERO
    vp, dp, pr = p
    vq, dq, qr = q
    if len(pr) == 1 == len(qr):     # a nonzero product of monomials
        return _mono(vp + vq, pr[0] * qr[0] * u, dp * dq)
    if u != 1:
        pr = [a * u for a in pr]
    re = [0] * (len(pr) + len(qr) - 1)
    tq = [(j, c) for j, c in enumerate(qr) if c]
    for i, a in enumerate(pr):
        if a:
            for j, c in tq:
                re[i + j] += a * c
    return _canon(vp + vq, dp * dq, re)


def _lp_eval_one(p):
    """Value at s = 1, a constant."""
    return _canon(0, p[1], [sum(p[2])]) if p else LP_ZERO


def _lp_str(p, imag=False):
    """p printed, or p*i when imag, every coefficient then printed times i."""
    if not p:
        return "0"
    v, d, re = p
    parts = []
    for j in range(len(re) - 1, -1, -1):
        if not re[j]:
            continue
        k, vs = v + j, _coef_str(re[j], d, imag)
        if k == 0:
            parts.append(vs)
        else:
            mono = "s" if k == 1 else f"s^{k}"
            parts.append(mono if vs == "1" else f"-{mono}" if vs == "-1" else f"{vs}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


def _primitive(a):
    """The integer list a over its integer content, signed to a positive lead,
    as a divisor's must be."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [x // g for x in a]


def _pdivmod(a, b):
    """Pseudo-division L^k a = quo*b + rem of integer coefficient lists.

    b's lead L is a positive integer and k = len(a) - len(b) + 1 is the number
    of steps; with L = 1 each step is a plain multiply-subtract.  Returns
    quo, rem with the remainder trimmed, shorter than b.
    """
    a = list(a)
    L, b = b[-1], b[:-1]
    k = max(0, len(a) - len(b))
    quo = [0] * k
    for i in range(k - 1, -1, -1):
        f = a.pop()     # the lead cancels: L*f - f*L
        quo[i] = f
        if L != 1:
            a = [x * L for x in a]
        if f:
            a[i:] = [x - f * y for x, y in zip(a[i:], b)]
    if L != 1:      # the step for s^i leaves i further steps to scale it by L
        quo = [x * L ** i for i, x in enumerate(quo)]
    while a and not a[-1]:
        a.pop()
    return quo, a


def _divide(a, d, g):
    """a/d over g/L, for g with positive integer lead L.

    Returns the quotient as (d', a') and the pseudo-remainder, which is empty
    exactly when g divides: L^k x = quo*g in k steps gives
    x/(g/L) = quo/L^(k-1).
    """
    quo, rem = _pdivmod(a, g)
    return (d * g[-1] ** (len(a) - len(g)), quo), rem


def _poly_gcd(a, b):
    """Primitive gcd of integer coefficient lists a and b.

    b has a positive integer lead.  Every pseudo-remainder is made primitive
    (_primitive), which keeps the integers from exploding during the
    Euclidean descent, which ends because each remainder is shorter than its
    divisor (else ArithmeticError).  The gcd has a positive integer lead.
    """
    while b:
        _, r = _pdivmod(a, b)
        if len(r) >= len(b):
            raise ArithmeticError(f"remainder of length {len(r)} is not shorter "
                                  f"than its divisor of length {len(b)}")
        a, b = b, _primitive(r) if r else r
    return a


# ---------------------------------------------------------------------------
# Canonical fractions of Laurent polynomials
# ---------------------------------------------------------------------------
# A fraction num/den is canonical when num and den are coprime and den is
# monic of lowest exponent zero; a unit denominator is always the shared
# ``LP_ONE``, so the polynomial fast paths test it by identity.

class RatFunc:
    """The canonical form of num/den: the one normalizing constructor.

    Sums over a denominator other than 1, the values at q = 1 and the public
    Scalar constructor read their pair off it; products and inverses are
    canonical as built and never normalize.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: tuple = LP_ONE):
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _cross_reduce(*_monic(num, den))


def _sum(a, b, c, d):
    """a/b + c/d for canonical pairs with c nonzero, as a canonical pair."""
    if not a:
        return c, d
    if b is LP_ONE and d is LP_ONE:
        return _lp_add(a, c), LP_ONE
    if b == d:
        f = RatFunc(_lp_add(a, c), d)
    else:
        f = RatFunc(_lp_add(_lp_mul(a, d), _lp_mul(c, b)), _lp_mul(b, d))
    return f.num, f.den


def _frac_str(num, den, imag):
    """num/den printed, or num*i/den when imag (the numerator's coefficients times i)."""
    ns = _lp_str(num, imag)
    if den is LP_ONE:
        return ns
    ds = _lp_str(den)
    if " " in ns:
        ns = f"({ns})"
    if " " in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _monic(num, den):
    """num/den over the denominator's monomial and integer lead: a monic
    denominator of lowest exponent zero (``LP_ONE`` for a monomial), with
    any common factor left in place."""
    if not num:
        return LP_ZERO, LP_ONE
    vn, dn, nr = num
    vd, dd, dr = den
    c = dr[-1]
    if c < 0:
        c, nr, dr = -c, [-x for x in nr], [-x for x in dr]
    num = _canon(vn - vd, dn * c, [x * dd for x in nr])
    if len(dr) == 1:
        return num, LP_ONE
    return num, _canon(0, c, dr)


def _cross_reduce(p, q):
    """Divide gcd(p, q) out of a numerator p and a canonical denominator q.

    Monomial parts are left untouched.  The first Euclidean step divides the
    longer operand by the shorter; when that is exact the quotient is the
    answer and no gcd runs.  A denominator reduced to 1 is ``LP_ONE``.
    """
    if q is LP_ONE or len(p[2]) == 1:
        return p, q
    vp, dp, pr = p
    _, dq, qr = q       # q is monic, so its integer lead is dq
    if len(pr) >= len(qr):
        quo, rem = _divide(pr, dp, qr)
        if not rem:     # q | p
            return _canon(vp, *quo), LP_ONE
        g = _poly_gcd(qr, _primitive(rem))
    else:
        pp = _primitive(pr)
        quo, rem = _divide(qr, dq, pp)
        if not rem:     # p | q: the gcd is p/lead(p)
            return _canon(vp, dp, pr[-1:]), _canon(0, *quo)
        g = _poly_gcd(pp, _primitive(rem))
    if len(g) == 1:
        return p, q
    # g is a proper divisor of q here, so q/g is not a constant
    return _canon(vp, *_divide(pr, dp, g)[0]), _canon(0, *_divide(qr, dq, g)[0])


def _rat(v):
    """The constant polynomial of an int or Fraction v."""
    return (0, v.denominator, (v.numerator,)) if v else LP_ZERO


# ---------------------------------------------------------------------------
# The field tower element
# ---------------------------------------------------------------------------

_UNITS = ("1", "t", "i", "i*t")     # the unit i^(p>>1)*t^(p&1) of each grade p
# the factor u of a product from the grade bits p & q both factors share:
# t*t = 2 and i*i = -1
_SHARED_UNIT = (1, 2, -1, -2)


class MixedParityError(ArithmeticError):
    """A sum or difference of two nonzero values of different grades, which no Scalar holds."""

    def __init__(self, a, op, b):
        super().__init__(f"({a}) {op} ({b}) mixes grades {_UNITS[a.p]} and {_UNITS[b.p]}")


class Scalar:
    """Element (num/den)*i^(p>>1)*t^(p&1) of Q(i)(s)[t] with t^2 = 2: one
    object holding a canonical real fraction num/den and a grade p in 0..3.

    In the level-1 realization i enters only through the correspondence sign
    and the couplings i*t, so every value is real or purely imaginary, and
    free of t or a multiple of it; zero has p = 0, and a sum or difference of
    two nonzero values of different grades raises MixedParityError.  Every
    result is one new object built from its tuples by ``_scalar``, and the
    identities build none: a sum or difference with a zero operand returns
    (or negates) the other operand, and a product with a zero operand is
    ``S_ZERO``.  A product XORs the grades: the unit u the shared grade bits
    give (t*t = 2, i*i = -1) scales the numerator inside its one polynomial
    product, and two monomials over the unit denominator multiply as one
    integer product over one gcd.
    """

    __slots__ = ("num", "den", "p")

    def __init__(self, num=LP_ZERO, den=LP_ONE, p=0):
        """The value num/den of grade p, normalized by RatFunc."""
        if p not in (0, 1, 2, 3):
            raise ValueError(f"grade must be in 0..3, got {p!r}")
        f = RatFunc(num, den)
        _set_num(self, f.num)
        _set_den(self, f.den)
        _set_p(self, p if f.num else 0)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rat(cls, v):
        return _scalar(_rat(v), LP_ONE, 0)

    @classmethod
    def i(cls):
        return _scalar(LP_ONE, LP_ONE, 2)

    @classmethod
    def t(cls):
        return _scalar(LP_ONE, LP_ONE, 1)

    @classmethod
    def s_power(cls, k):
        """The monomial s^k."""
        return _scalar((k, 1, (1,)), LP_ONE, 0)

    @classmethod
    def q_power(cls, k):
        """The monomial q^k (k integer)."""
        return cls.s_power(2 * k)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_rational_sector(self):
        """True when the value is free of t."""
        return not self.p & 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _as_scalar(other)
        if not other.num:
            return self
        if not self.num:
            return other
        if self.p != other.p:
            raise MixedParityError(self, "+", other)
        num, den = _sum(self.num, self.den, other.num, other.den)
        return _scalar(num, den, self.p)

    def __radd__(self, other):
        return _as_scalar(other) + self

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _as_scalar(other)
        if not other.num:
            return self
        if self.p != other.p and self.num:
            raise MixedParityError(self, "-", other)
        num, den = _sum(self.num, self.den, _lp_neg(other.num), other.den)
        return _scalar(num, den, other.p)

    def __rsub__(self, other):
        return _as_scalar(other) - self

    def __neg__(self):
        if not self.num:
            return self
        return _scalar(_lp_neg(self.num), self.den, self.p)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _as_scalar(other)
        a, b = self.num, other.num
        if not a or not b:
            return S_ZERO
        u = _SHARED_UNIT[self.p & other.p]
        c, d = self.den, other.den
        if c is LP_ONE is d:
            if len(a[2]) == 1 == len(b[2]):
                # two unit-denominator monomials: one integer product over one gcd
                x, e = a[2][0] * b[2][0] * u, a[1] * b[1]
                g = gcd(x, e)
                num = (a[0] + b[0], e, (x,)) if g == 1 else (a[0] + b[0], e // g, (x // g,))
            else:
                num = _lp_mul(a, b, u)
            return _scalar(num, LP_ONE, self.p ^ other.p)
        # a product of canonical fractions needs only cross-cancellation:
        # monic denominators divided by monic gcds stay monic with a nonzero
        # constant term, so the product is canonical as built
        n1, d2 = _cross_reduce(a, d)
        n2, d1 = _cross_reduce(b, c)
        den = d2 if d1 is LP_ONE else d1 if d2 is LP_ONE else _lp_mul(d1, d2)
        return _scalar(_lp_mul(n1, n2, u), den, self.p ^ other.p)

    __rmul__ = __mul__

    def inverse(self):
        """1/(f*i^a*t^b) = i^a*t^b/(u*f) with u = (-1)^a*2^b, the grade's own
        shared unit, built canonical."""
        num, p = self.num, self.p
        if not num:
            raise ZeroDivisionError("inverse of zero Scalar")
        if p:
            num = _lp_mul(num, LP_ONE, _SHARED_UNIT[p])
        num, den = _monic(self.den, num)
        return _scalar(num, den, p)

    def __truediv__(self, other):
        return self * _as_scalar(other).inverse()

    def __rtruediv__(self, other):
        return _as_scalar(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = S_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not Scalar:
            try:
                other = _as_scalar(other)
            except TypeError:
                return NotImplemented
        return self.p == other.p and self.num == other.num and self.den == other.den

    def __hash__(self):
        num = self.num
        if not num:
            return 0        # hash(0), as zero == 0
        if self.p or self.den is not LP_ONE or num[0] or len(num[2]) != 1:
            return hash((num, self.den, self.p))
        # a rational constant equals its int or Fraction, so it hashes as one
        return hash(Fraction(num[2][0], num[1]))

    def as_int(self):
        """Return the value as a plain int when it is one, else None."""
        if self.p or self.den is not LP_ONE:
            return None
        if not self.num:
            return 0
        v, d, re = self.num
        return re[0] if not v and d == 1 and len(re) == 1 else None

    def __str__(self):
        fs = _frac_str(self.num, self.den, self.p & 2)
        if not self.p & 1:
            return fs
        if fs == "1":
            return "t"
        if fs == "-1":
            return "-t"
        if " " in fs or "/" in fs:
            fs = f"({fs})"
        return f"{fs}*t"

    def __repr__(self):
        return f"Scalar<{self}>"


_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__
_set_p = Scalar.p.__set__


def _scalar(num, den, p):
    """The Scalar num/den of grade p (zero has p = 0) for a canonical pair,
    built without going through __init__."""
    x = _new(Scalar)
    _set_num(x, num)
    _set_den(x, den)
    _set_p(x, p if num else 0)
    return x


def _as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_rat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


S_ZERO = Scalar()
S_ONE = Scalar.from_rat(1)
S_I = Scalar.i()
S_T = Scalar.t()


@lru_cache(maxsize=512)     # a q-sl2 run at window 48 asks for 198 distinct n
def qint(n: int) -> Scalar:
    """The q-integer [n] = (q^n - q^-n)/(q - q^-1) as a Laurent polynomial in s."""
    if n == 0:
        return S_ZERO
    if n < 0:
        return -qint(-n)
    return _scalar(laurent({2 * (n - 1 - 2 * j): 1 for j in range(n)}), LP_ONE, 0)


def qint_over_qsum(n: int, a: int) -> Scalar:
    """[n]^a/(q^n + q^-n) for n != 0 and a in {0, 1}, built in lowest terms.

    It is s^(2|n|) [n]^a/(s^(4|n|) + 1): no root of s^(4|n|) = -1 is a root
    of [n], so numerator and denominator are coprime.  With a = 1 this is
    [n]^2/[2n], with a = 0 it is [n]/[2n].
    """
    if n == 0 or a not in (0, 1):
        raise ValueError(f"[n]^a/(q^n + q^-n) needs n != 0 and a in {{0, 1}}, got {n}, {a}")
    m, sign = abs(n), 1 if n > 0 else -1
    num = {4 * m - 2 - 4 * j: sign for j in range(m)} if a else {2 * m: 1}
    return _scalar(laurent(num), laurent({4 * m: 1, 0: 1}), 0)


def qint_ratio(k: int, n: int) -> Scalar:
    """[kn]/[n] = sum_(j<k) q^((k-1-2j)n) for k >= 1 and n != 0, a Laurent polynomial."""
    if k < 1 or n == 0:
        raise ValueError(f"[kn]/[n] needs k >= 1 and n != 0, got {k}, {n}")
    return _scalar(laurent({2 * (k - 1 - 2 * j) * n: 1 for j in range(k)}), LP_ONE, 0)


def q_minus_qinv() -> Scalar:
    """q - 1/q = s^2 - s^-2."""
    return _scalar(laurent({2: 1, -2: -1}), LP_ONE, 0)


# ---------------------------------------------------------------------------
# Degeneration map 1: evaluation at q = 1
# ---------------------------------------------------------------------------

def eval_q1(x: Scalar) -> Scalar:
    """Substitute s = 1, keeping i and t formal: the constant Scalar f(1) of x's grade.

    Raises PoleAtQ1Error when the normalized denominator vanishes at s = 1.
    """
    d = _lp_eval_one(x.den)
    if not d:
        raise PoleAtQ1Error("denominator vanishes at q = 1")
    f = RatFunc(_lp_eval_one(x.num), d)
    return _scalar(f.num, f.den, x.p)


# ---------------------------------------------------------------------------
# Degeneration map 2: the leading term in h, q = exp(i h)
# ---------------------------------------------------------------------------

# The leading term of zero: order +inf (the valuation of 0) and coefficient 0.
ZERO_TERM = (inf, S_ZERO)


def _leading_moment(p: tuple) -> tuple:
    """The order a in h of p(exp(i h / 2)), the number of factors (s - 1)
    of p, and its integer moment M_a = sum_j c_j j^a over the exponents j.

    The h^m coefficient of p = sum_j c_j s^j / d is (i/2)^m/m! M_m/d, so a
    is the first m with M_m != 0.  The moments m < k of k distinct exponents
    cannot all vanish (Vandermonde), so a is below the number of terms.
    """
    v, _, re = p
    terms = [(j, x) for j, x in enumerate(re, start=v) if x]
    for m in range(len(terms)):
        moment = sum(x * j ** m for j, x in terms)
        if moment:
            return m, moment
    raise ArithmeticError(f"no nonzero moment below {len(terms)} for {_lp_str(p)}")


def taylor_q1(x: Scalar) -> tuple:
    """The leading term of x under q = exp(i h): (k, c) with
    x = c h^k + O(h^(k+1)) and c a nonzero constant Scalar, or ZERO_TERM
    for x = 0.

    num/den, with num of order a and den of order b (_leading_moment),
    has order k = a - b, negative at a pole, and leading coefficient
    (i/2)^k (M_a/(a! d_num)) / (M_b/(b! d_den)).  With x's own unit the
    factor is i^e, e = k + (p >> 1): the grade bit 2*(e & 1) and the sign
    (-1)^(e >> 1).
    """
    num, den = x.num, x.den
    if not num:
        return ZERO_TERM
    (a, ma), (b, mb) = _leading_moment(num), _leading_moment(den)
    k = a - b
    c = Fraction(ma * factorial(b) * den[1] * 2 ** max(-k, 0),
                 mb * factorial(a) * num[1] * 2 ** max(k, 0))
    e = k + (x.p >> 1)
    if e & 2:
        c = -c
    return k, _scalar(_rat(c), LP_ONE, 2 * (e & 1) | x.p & 1)
