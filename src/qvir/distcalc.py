"""Two-point formal distribution calculus on a symmetric mode window, |n| <= N.

A two-point distribution is a bilateral series sum_n c_n x^n in x = w/z,
held as exact per-mode coefficients for |n| <= N; the window is that int N.
Rational exchange kernels, products of linear factors (1 - r x)^(-k), expand
into either region (|z|>|w| or |w|>|z|); the difference of the two expansions
is the delta-supported content of a commutator.  The residue pairing of
translation-covariant distributions is diagonal in modes, which is what
makes the whole calculus windowable without loss.
"""

from __future__ import annotations

from operator import add, sub

from .qcoeff import S_ONE, S_ZERO, Scalar


class WindowMismatchError(ValueError):
    """Operands live on different mode windows."""


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

    def _combine(self, other, op):
        """Mode by mode self op other, for op the Scalar + or -."""
        self._check(other)
        out = dict(self.c)
        for n, v in other.c.items():
            w = op(out.get(n, S_ZERO), v)
            if w.is_zero():
                out.pop(n, None)
            else:
                out[n] = w
        return _dist2(self.N, out)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return _dist2(self.N, {n: -v for n, v in self.c.items()})

    def scale(self, a: Scalar):
        if a.is_zero():
            return Dist2.zero(self.N)
        return _dist2(self.N, {n: a * v for n, v in self.c.items()})

    def reflect(self):
        """z <-> w, i.e. mode reflection n -> -n."""
        return _dist2(self.N, {-n: v for n, v in self.c.items()})

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


_set_N = Dist2.N.__set__
_set_c = Dist2.c.__set__


def _dist2(N, c):
    """The Dist2 of a dict c already inside |n| <= N and free of zeros, built
    without __init__'s filtering pass.

    Sums drop the modes that cancel, and a product of nonzero coefficients
    is nonzero (Q(i)(s)[t] with t^2 = 2 is a field), so the results of
    +, -, negation, reflection, nonzero scaling, pairing and mode weights
    hold by construction.
    """
    D = object.__new__(Dist2)
    _set_N(D, N)
    _set_c(D, c)
    return D


class RatKernel:
    """Degree-zero rational kernel c * x^m * u * prod_r (1 - r x)^(-k_r) in x = w/z.

    ``roots`` maps each nonzero Scalar root r to a nonzero integer
    multiplicity k_r (positive for a denominator factor); c is kept as
    given and u is the numerator's constant term.  Products and quotients
    cancel common factors by merging multiplicities, with no gcd.  The
    expansions ``num`` = u * prod (1 - a x) and ``den`` = prod (1 - b x)
    (tuples indexed by degree, den[0] = 1) serve printing, the region
    expansions and the pole checks.
    """

    __slots__ = ("c", "m", "u", "roots", "num", "den")

    def __init__(self, c: Scalar, m: int, u: Scalar, roots: dict):
        roots = {r: k for r, k in roots.items() if k}
        num, den = [u], [S_ONE]
        for r, k in roots.items():
            for _ in range(abs(k)):
                if k > 0:
                    den = _poly_mul(den, [S_ONE, -r])
                else:
                    num = _poly_mul(num, [S_ONE, -r])
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, name, value):
        raise AttributeError("RatKernel is immutable")

    @classmethod
    def const(cls, c: Scalar):
        return cls(c, 0, S_ONE, {})

    @classmethod
    def monomial(cls, c: Scalar, m: int):
        return cls(c, m, S_ONE, {})

    @classmethod
    def from_linear_factors(cls, c: Scalar, m: int, num_roots, den_roots):
        """c * x^m * prod(1 - a*x) / prod(1 - b*x) for a in num_roots, b in den_roots."""
        roots = {}
        for sign, rs in ((-1, num_roots), (1, den_roots)):
            for r in rs:
                if not r.is_zero():
                    roots[r] = roots.get(r, 0) + sign
        return cls(c, m, S_ONE, roots)

    def is_zero(self):
        return self.c.is_zero()

    def as_laurent(self) -> dict[int, Scalar]:
        if len(self.den) > 1:
            raise ValueError("kernel has a nontrivial denominator")
        return {self.m + j: self.c * a for j, a in enumerate(self.num) if not a.is_zero()}

    def __mul__(self, other):
        return RatKernel(self.c * other.c, self.m + other.m, self.u * other.u,
                         _merge(self.roots, other.roots, 1))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero kernel")
        return RatKernel(self.c / other.c, self.m - other.m, self.u / other.u,
                         _merge(self.roots, other.roots, -1))

    def reciprocal_arg(self) -> "RatKernel":
        """The kernel K(1/x) as a rational kernel in x, through
        (1 - r/x) = (-r/x)(1 - x/r)."""
        u = self.u
        for r, k in self.roots.items():
            u = u * (-r) ** -k
        return RatKernel(self.c, -self.m + sum(self.roots.values()), u,
                         {r.inverse(): k for r, k in self.roots.items()})

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
        # polynomials over a field factor uniquely: equal values share m and roots
        return (self.m == other.m and self.roots == other.roots
                and self.c * self.u == other.c * other.u)

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


def _merge(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for r, k in b.items():
        out[r] = out.get(r, 0) + sign * k
    return out


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


# ---------------------------------------------------------------------------
# Region expansions
# ---------------------------------------------------------------------------

def expand_inner(K: RatKernel, N: int) -> Dist2:
    """Power-series expansion around x = 0 (region |z| > |w|), for |n| <= N."""
    if K.is_zero():
        return Dist2.zero(N)
    length = N - K.m + 1
    if length <= 0:
        return Dist2.zero(N)
    u = _series_from_recurrence(K.num, K.den, length)
    return Dist2(N, {K.m + j: K.c * v for j, v in enumerate(u) if not v.is_zero()})


def expand_outer(K: RatKernel, N: int) -> Dist2:
    """Expansion in 1/x around x = infinity (region |w| > |z|), for |n| <= N."""
    return expand_inner(K.reciprocal_arg(), N).reflect()


def region_difference(K: RatKernel, N: int) -> Dist2:
    """expand_inner - expand_outer: the delta-supported commutator content."""
    return expand_inner(K, N) - expand_outer(K, N)


def _series_from_recurrence(num, den, length):
    """Coefficients of P(x)/Q(x) with Q(0) = 1, by exact linear recurrence."""
    out = []
    for n in range(length):
        acc = num[n] if n < len(num) else S_ZERO
        for j in range(1, min(n, len(den) - 1) + 1):
            acc = acc - den[j] * out[n - j]
        out.append(acc)
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
            out[n] = v * w
    return _dist2(D1.N, out)


def weight_abs(D: Dist2, a: int) -> Dist2:
    """Multiply mode n by q^(a*|n|)."""
    if a == 0:
        return D
    return _dist2(D.N, {n: Scalar.s_power(2 * a * abs(n)) * v for n, v in D.c.items()})
