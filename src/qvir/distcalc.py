"""Two-point formal distribution calculus on a symmetric mode window.

A two-point distribution is a bilateral series sum_n c_n x^n in x = w/z,
held as exact per-mode coefficients for |n| <= N.  Rational exchange
kernels expand into either region (|z|>|w| or |w|>|z|); the difference of
the two expansions is the delta-supported content of a commutator.  The
residue pairing of translation-covariant distributions is diagonal in
modes, which is what makes the whole calculus windowable without loss.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qcoeff import S_ONE, S_ZERO, Scalar


class NonExpandableError(ArithmeticError):
    """The kernel has no power-series expansion in the requested region."""


class WindowMismatchError(ValueError):
    """Operands live on different mode windows."""


@dataclass(frozen=True)
class ModeWindow:
    """Symmetric mode range -N..N."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("window size must be >= 1")

    def modes(self):
        return range(-self.N, self.N + 1)


class Dist2:
    """Orientation-fixed two-point distribution sum_n c_n (w/z)^n, |n| <= N."""

    __slots__ = ("N", "c")

    def __init__(self, N: int, coeffs=None):
        c = {}
        if coeffs:
            for n, v in coeffs.items():
                if abs(n) <= N and not v.is_zero():
                    c[n] = v
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("Dist2 is immutable")

    # -- builders ------------------------------------------------------------

    @classmethod
    def zero(cls, N):
        return cls(N)

    @classmethod
    def delta(cls, N):
        """The all-ones bilateral series (identity of the residue pairing)."""
        return cls(N, {n: S_ONE for n in range(-N, N + 1)})

    @classmethod
    def unit0(cls, N, value: Scalar = S_ONE):
        """value at mode 0 only."""
        return cls(N, {0: value})

    @classmethod
    def from_func(cls, N, fn):
        return cls(N, {n: fn(n) for n in range(-N, N + 1)})

    @classmethod
    def one_sided(cls, N, ratio: Scalar, side: int = +1, coef: Scalar = S_ONE):
        """Geometric sum coef * sum ratio^|n| x^(side*n) over n >= 0."""
        out = {}
        power = S_ONE
        for n in range(N + 1):
            out[side * n] = coef * power
            power = power * ratio
        return cls(N, out)

    # -- accessors -----------------------------------------------------------

    def coeff(self, n: int) -> Scalar:
        if abs(n) > self.N:
            raise IndexError(f"mode {n} outside window N={self.N}")
        return self.c.get(n, S_ZERO)

    def is_zero(self):
        return not self.c

    def support(self):
        return sorted(self.c)

    # -- algebra ---------------------------------------------------------------

    def _check(self, other):
        if self.N != other.N:
            raise WindowMismatchError(f"window {self.N} vs {other.N}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.c)
        for n, v in other.c.items():
            w = out.get(n, S_ZERO) + v
            if w.is_zero():
                out.pop(n, None)
            else:
                out[n] = w
        return Dist2(self.N, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Dist2(self.N, {n: -v for n, v in self.c.items()})

    def scale(self, a: Scalar):
        if a.is_zero():
            return Dist2.zero(self.N)
        return Dist2(self.N, {n: a * v for n, v in self.c.items()})

    def reflect(self):
        """z <-> w, i.e. mode reflection n -> -n."""
        return Dist2(self.N, {-n: v for n, v in self.c.items()})

    def mul_laurent(self, poly: dict[int, Scalar]) -> "Dist2":
        """Multiply by a finite Laurent polynomial in x.

        The result window shrinks by the polynomial's exponent span so that
        every retained mode is exact (no truncation leakage at the edges).
        """
        if not poly:
            return Dist2.zero(self.N)
        span = max(abs(e) for e in poly)
        newN = self.N - span
        if newN < 1:
            raise WindowMismatchError("window too small for this polynomial factor")
        out = {}
        for e, a in poly.items():
            if a.is_zero():
                continue
            for n, v in self.c.items():
                m = n + e
                if abs(m) <= newN:
                    w = out.get(m, S_ZERO) + a * v
                    if w.is_zero():
                        out.pop(m, None)
                    else:
                        out[m] = w
        return Dist2(newN, out)

    def truncate(self, N: int) -> "Dist2":
        if N > self.N:
            raise WindowMismatchError("cannot grow a window by truncation")
        return Dist2(N, {n: v for n, v in self.c.items() if abs(n) <= N})

    def __eq__(self, other):
        if not isinstance(other, Dist2):
            return NotImplemented
        self._check(other)
        return self.c == other.c

    def first_mismatch(self, other):
        """Smallest |n| (ties: negative first) where coefficients differ, or None."""
        self._check(other)
        for n in sorted(range(-self.N, self.N + 1), key=lambda m: (abs(m), m)):
            if self.c.get(n, S_ZERO) != other.c.get(n, S_ZERO):
                return n
        return None

    def __str__(self):
        if not self.c:
            return "0"
        return "; ".join(f"x^{n}: {self.c[n]}" for n in sorted(self.c))

    def __repr__(self):
        return f"Dist2<N={self.N}; {self}>"


class RatKernel:
    """Degree-zero rational kernel c * x^m * P(x)/Q(x) in x = w/z.

    P and Q are polynomials with Scalar coefficients (lists indexed by
    degree), kept coprime with Q(0) != 0 after monomial factoring.
    """

    __slots__ = ("c", "m", "num", "den")

    def __init__(self, c: Scalar, m: int, num, den, _canonical=False):
        num = list(num)
        den = list(den)
        if not _canonical:
            c, m, num, den = _kernel_normalize(c, m, num, den)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, name, value):
        raise AttributeError("RatKernel is immutable")

    @classmethod
    def const(cls, c: Scalar):
        return cls(c, 0, [S_ONE], [S_ONE])

    @classmethod
    def monomial(cls, c: Scalar, m: int):
        return cls(c, m, [S_ONE], [S_ONE])

    @classmethod
    def from_linear_factors(cls, c: Scalar, m: int, num_roots, den_roots):
        """c * x^m * prod(1 - a*x) / prod(1 - b*x) for a in num_roots, b in den_roots."""
        num = [S_ONE]
        for a in num_roots:
            num = _poly_mul(num, [S_ONE, -a])
        den = [S_ONE]
        for b in den_roots:
            den = _poly_mul(den, [S_ONE, -b])
        return cls(c, m, num, den)

    def is_zero(self):
        return self.c.is_zero()

    def is_laurent(self):
        """True when the kernel is a Laurent polynomial (trivial denominator)."""
        return len(self.den) == 1

    def as_laurent(self) -> dict[int, Scalar]:
        if not self.is_laurent():
            raise ValueError("kernel has a nontrivial denominator")
        inv = self.den[0].inverse()
        return {self.m + j: self.c * a * inv for j, a in enumerate(self.num) if not a.is_zero()}

    def __mul__(self, other):
        return RatKernel(self.c * other.c, self.m + other.m,
                         _poly_mul(list(self.num), list(other.num)),
                         _poly_mul(list(self.den), list(other.den)))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero kernel")
        return RatKernel(self.c / other.c, self.m - other.m,
                         _poly_mul(list(self.num), list(other.den)),
                         _poly_mul(list(self.den), list(other.num)))

    def reciprocal_arg(self) -> "RatKernel":
        """The kernel K(1/x) as a rational kernel in x."""
        dn, dd = len(self.num) - 1, len(self.den) - 1
        return RatKernel(self.c, -self.m - dn + dd,
                         list(reversed(self.num)), list(reversed(self.den)))

    def den_root_check(self, x0: Scalar) -> bool:
        return _poly_eval(self.den, x0).is_zero()

    def residue_at_simple_pole(self, x0: Scalar) -> Scalar:
        """Residue of the kernel at a simple denominator root x0."""
        dprime = _poly_eval(_poly_derivative(self.den), x0)
        if dprime.is_zero():
            raise ZeroDivisionError("pole is not simple")
        return self.c * (x0 ** self.m) * _poly_eval(self.num, x0) / dprime

    def __eq__(self, other):
        if not isinstance(other, RatKernel):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        # cross-multiplied comparison: c1 x^m1 P1 Q2 == c2 x^m2 P2 Q1
        left = _poly_mul([self.c * a for a in self.num], list(other.den))
        right = _poly_mul([other.c * a for a in other.num], list(self.den))
        shift = self.m - other.m
        l = {i + shift: v for i, v in enumerate(left) if not v.is_zero()}
        r = {i: v for i, v in enumerate(right) if not v.is_zero()}
        return l == r

    def __str__(self):
        def poly_str(p):
            parts = []
            for j, a in enumerate(p):
                if a.is_zero():
                    continue
                xs = "1" if j == 0 else ("x" if j == 1 else f"x^{j}")
                parts.append(xs if (str(a) == "1" and j) else f"({a})" + ("" if j == 0 else f"*{xs}"))
            return " + ".join(parts) or "0"

        s = f"({self.c})"
        if self.m:
            s += f"*x^{self.m}"
        return f"{s}*[{poly_str(self.num)}]/[{poly_str(self.den)}]"

    def __repr__(self):
        return f"RatKernel<{self}>"


def _poly_mul(a, b):
    out = [S_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _poly_eval(p, x0: Scalar) -> Scalar:
    acc = S_ZERO
    for a in reversed(p):
        acc = acc * x0 + a
    return acc


def _poly_derivative(p):
    return [a * k for k, a in enumerate(p)][1:] or [S_ZERO]


def _poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1].is_zero():
        p.pop()
    return p


def _poly_divmod_s(a, b):
    """Polynomial division over the Scalar field."""
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
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd_s(a, b):
    """Monic gcd over the Scalar field; the Euclidean descent ends because
    each remainder is shorter than its divisor (else ArithmeticError)."""
    a, b = _poly_trim(a), _poly_trim(b)
    if a == [S_ZERO] or (len(a) == 1 and a[0].is_zero()):
        a = []
    if len(b) == 1 and b[0].is_zero():
        b = []
    while b:
        _, r = _poly_divmod_s(a, b)
        if len(r) == 1 and r[0].is_zero():
            r = []
        if len(r) >= len(b):
            raise ArithmeticError(f"remainder of length {len(r)} is not shorter "
                                  f"than its divisor of length {len(b)}")
        if r:
            inv = r[-1].inverse()
            r = [x * inv for x in r]
        a, b = b, r
    if not a:
        return [S_ONE]
    inv = a[-1].inverse()
    return [x * inv for x in a]


def _kernel_normalize(c, m, num, den):
    num = _poly_trim(num)
    den = _poly_trim(den)
    if all(a.is_zero() for a in num):
        return S_ZERO, 0, [S_ONE], [S_ONE]
    if all(a.is_zero() for a in den):
        raise ZeroDivisionError("zero kernel denominator")
    # factor pure powers of x into the monomial exponent
    while num[0].is_zero():
        num.pop(0)
        m += 1
    while den[0].is_zero():
        den.pop(0)
        m -= 1
    if len(num) > 1 and len(den) > 1:
        g = _poly_gcd_s(list(num), list(den))
        if len(g) > 1:
            num, _ = _poly_divmod_s(num, g)
            den, _ = _poly_divmod_s(den, g)
    # scale so the constant coefficient of the denominator is one
    d0 = den[0].inverse()
    den = [a * d0 for a in den]
    num = [a * d0 for a in num]
    # c is kept as given; equality goes through cross-multiplication
    return c, m, num, den


# ---------------------------------------------------------------------------
# Region expansions
# ---------------------------------------------------------------------------

def expand_inner(K: RatKernel, W: ModeWindow) -> Dist2:
    """Power-series expansion around x = 0 (region |z| > |w|)."""
    if K.is_zero():
        return Dist2.zero(W.N)
    length = W.N - K.m + 1
    if length <= 0:
        return Dist2.zero(W.N)
    u = _series_from_recurrence(K.num, K.den, length)
    return Dist2(W.N, {K.m + j: K.c * v for j, v in enumerate(u) if not v.is_zero()})


def expand_outer(K: RatKernel, W: ModeWindow) -> Dist2:
    """Expansion in 1/x around x = infinity (region |w| > |z|)."""
    return expand_inner(K.reciprocal_arg(), W).reflect()


def region_difference(K: RatKernel, W: ModeWindow) -> Dist2:
    """expand_inner - expand_outer: the delta-supported commutator content."""
    return expand_inner(K, W) - expand_outer(K, W)


def _series_from_recurrence(num, den, length):
    """Coefficients of P(x)/Q(x) with Q(0) = 1, by exact linear recurrence."""
    if den[0].is_zero():
        raise NonExpandableError("denominator vanishes at the expansion point")
    inv0 = den[0].inverse()
    out = []
    for n in range(length):
        acc = num[n] if n < len(num) else S_ZERO
        for j in range(1, min(n, len(den) - 1) + 1):
            acc = acc - den[j] * out[n - j]
        out.append(acc * inv0)
    return out


# ---------------------------------------------------------------------------
# Residue pairing and mode weights
# ---------------------------------------------------------------------------

def pair(D1: Dist2, D2: Dist2) -> Dist2:
    """Residue pairing: mode-wise product of coefficients.

    For translation-covariant distributions the contour pairing
    oint du/(2 pi i u) D1(z,u) D2(u,w) is exactly diagonal in modes.
    """
    if D1.N != D2.N:
        raise WindowMismatchError(f"window {D1.N} vs {D2.N}")
    small, large = (D1.c, D2.c) if len(D1.c) <= len(D2.c) else (D2.c, D1.c)
    out = {}
    for n, v in small.items():
        w = large.get(n)
        if w is not None:
            p = v * w
            if not p.is_zero():
                out[n] = p
    return Dist2(D1.N, out)


def weight_abs(D: Dist2, a: int) -> Dist2:
    """Multiply mode n by q^(a*|n|)."""
    if a == 0:
        return D
    return Dist2(D.N, {n: Scalar.s_power(2 * a * abs(n)) * v for n, v in D.c.items()})
