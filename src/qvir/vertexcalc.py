"""Contraction calculus for the level-1 free-field realization.

The four basic vertex operators are normal-ordered exponentials of a
linear form in one oscillator family alpha_n (with
[alpha_n, alpha_m] = [2n][n]/(2n) delta_{n+m,0}) and a zero-mode pair
(qt, pt) with [qt, pt] = i.  Moving the annihilation half of one
exponential past the creation half of another produces an exact scalar
kernel: a rational function of x = w/z times a monomial in z and an
integer power of q.  Each kernel is read off the two fields' closed-form
mode terms as a product prod (1 - lambda x)^(-c), exact for every mode,
and reconstructed as a RatKernel with those roots and multiplicities.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .qcoeff import S_I, S_ONE, S_T, S_ZERO, Scalar, qint, q_minus_qinv
from .distcalc import Dist2, RatKernel, expand_inner, region_difference
from .report import CheckRecord, compare_dists, record


class ReconstructionError(ArithmeticError):
    """A contraction is not an integer product prod (1 - lambda x)^(-c)."""


# ---------------------------------------------------------------------------
# Field data
# ---------------------------------------------------------------------------

# One closed-form contribution coef * q^(spow*n/2) / [n] to a mode
# coefficient: spow is the coefficient of n in the s-exponent, and
# over_qint says whether to divide by [n].
ModeTerm = namedtuple("ModeTerm", "coef spow over_qint")


class ExpField:
    """The normal-ordered exponential :exp(X(v)): of one vertex operator.

    X(v) = qt*Q + lnv*P*ln(v) + qpow*P*ln(q) + sum_{n != 0} mode(n) alpha_n v^-n
    with (Q, P) the zero-mode pair and any overall coupling already
    multiplied into every slot.  The mode coefficient at n > 0 (n < 0) is
    the sum of the closed-form ``pos`` (``neg``) terms.  Fields compare and
    hash by their exponent data; the name is only a label.
    """

    __slots__ = ("name", "qt", "lnv", "qpow", "pos", "neg")

    def __init__(self, name: str, qt: Scalar = S_ZERO, lnv: Scalar = S_ZERO,
                 qpow: Scalar = S_ZERO, pos: tuple = (), neg: tuple = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qt", qt)
        object.__setattr__(self, "lnv", lnv)
        object.__setattr__(self, "qpow", qpow)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __setattr__(self, name, value):
        raise AttributeError("ExpField is immutable")

    def _data(self):
        return (self.qt, self.lnv, self.qpow, self.pos, self.neg)

    def __eq__(self, other):
        if not isinstance(other, ExpField):
            return NotImplemented
        return self._data() == other._data()

    def __hash__(self):
        return hash(self._data())

    def mode(self, n: int) -> Scalar:
        if n == 0:
            raise ValueError("mode 0 lives in the zero-mode slots")
        acc = S_ZERO
        for term in (self.pos if n > 0 else self.neg):
            v = term.coef * Scalar.s_power(term.spow * n)
            if term.over_qint:
                v = v / qint(n)
            acc = acc + v
        return acc

    def shifted(self, half: int) -> "ExpField":
        """The same field with argument v*q^(half/2) (half in units of sqrt(q))."""
        def move(terms):
            return tuple(ModeTerm(t.coef, t.spow - half, t.over_qint) for t in terms)
        qpow = self.qpow + self.lnv * Scalar.from_rat(Fraction(half, 2))
        return ExpField(f"{self.name}@q^{Fraction(half, 2)}", self.qt, self.lnv, qpow,
                        move(self.pos), move(self.neg))

    def matches(self, other: "ExpField", N: int) -> bool:
        """Exact equality of the exponents on the modes 0 < |n| <= N."""
        if (self.qt, self.lnv, self.qpow) != (other.qt, other.lnv, other.qpow):
            return False
        return all(self.mode(n) == other.mode(n) for n in range(-N, N + 1) if n != 0)

    def __repr__(self):
        return f"ExpField<{self.name}>"


@lru_cache(maxsize=1)
def standard_fields() -> dict[str, ExpField]:
    """The four level-1 vertex operators, keyed 'E+', 'E-', 'Psi', 'Phi'."""
    dq = q_minus_qinv()
    out = {}
    for sgn, name in ((+1, "E+"), (-1, "E-")):
        beta = Scalar.from_rat(sgn) * S_I * S_T     # the coupling, folded into every slot
        # creation side (n<0) carries q^{-sgn/2} per mode, annihilation side q^{+sgn/2}
        i_beta = S_I * beta
        out[name] = ExpField(name, qt=beta, lnv=-i_beta,
                             pos=(ModeTerm(i_beta, -sgn, True),),
                             neg=(ModeTerm(i_beta, +sgn, True),))
    out["Psi"] = ExpField("Psi", qpow=S_T, pos=(ModeTerm(S_T * dq, 0, False),))
    out["Phi"] = ExpField("Phi", qpow=-S_T, neg=(ModeTerm(-(S_T * dq), 0, False),))
    return out


@lru_cache(maxsize=128)     # a q-sl2 run at window 48 asks for 52 distinct n
def oscillator_norm(n: int) -> Scalar:
    """[2n][n]/(2n), the two-point pairing of the oscillator modes."""
    return qint(2 * n) * qint(n) * Scalar.from_rat(Fraction(1, 2 * n))


# ---------------------------------------------------------------------------
# Contraction of two exponentials
# ---------------------------------------------------------------------------

# Exact contraction C(z,w) = const * z^zdeg * kernel(x).
ContractionData = namedtuple("ContractionData", "const zdeg kernel")


def z_degree(A: ExpField, B: ExpField) -> int:
    """The z-degree of the contraction A(z)B(w): [lnv-content of A,
    qt-content of B] with [pt, qt] = -i."""
    zexp = (-S_I) * B.qt * A.lnv
    d = zexp.as_int()
    if d is None:
        raise ArithmeticError(f"non-integer z-degree in zero-mode contraction: {zexp}")
    return d


def contract(A: ExpField, B: ExpField) -> ContractionData:
    """Commute A's annihilation half past B's creation half, exactly, for
    every mode at once.

    The log-series term at n >= 1 is A.mode(n) * B.mode(-n) * [2n][n]/(2n).
    One pair of mode terms gives n L_n = C s^(d n) [2n] [n]^(1-o), with
    C = coef_a coef_b / 2 (negated when B's term divides by [-n] = -[n]),
    d = spow_a - spow_b and o the number of 1/[n] factors.  With
    [2n]/[n] = q^n + q^-n and [m] = (q^m - q^-m)/(q - 1/q) this is a sum of
    powers s^(e n), and the kernel is their exponential; the zero modes give
    the constant q^e and the z-degree.  Raises ReconstructionError when a
    merged multiplicity is not an integer.
    """
    dq = q_minus_qinv()
    acc: dict[int, Scalar] = {}

    def add(e, v):
        acc[e] = acc.get(e, S_ZERO) + v

    for ta in A.pos:
        for tb in B.neg:
            C = ta.coef * tb.coef * Scalar.from_rat(Fraction(-1 if tb.over_qint else 1, 2))
            d = ta.spow - tb.spow
            o = ta.over_qint + tb.over_qint
            if o == 2:
                add(d + 2, C)
                add(d - 2, C)
            elif o == 1:
                C = C / dq
                add(d + 4, C)
                add(d - 4, -C)
            else:
                C = C / (dq * dq)
                add(d + 6, C)
                add(d - 6, C)
                add(d + 2, -C)
                add(d - 2, -C)
    mult = {}
    for e in sorted(acc):
        c = acc[e].as_int()
        if c is None:
            raise ReconstructionError(
                f"not an integer product: multiplicity {acc[e]} at s^{e} in {A} {B}")
        if c:
            mult[e] = c
    # [pt-content of A, qt-content of B] with [pt, qt] = -i
    qexp = (-S_I) * B.qt * A.qpow
    e = qexp.as_int()
    if e is None:
        raise ArithmeticError(f"non-integer q-power in zero-mode contraction: {qexp}")
    return ContractionData(Scalar.q_power(e), z_degree(A, B), reconstruct_kernel(mult))


def reconstruct_kernel(mult: dict) -> RatKernel:
    """prod_e (1 - s^e x)^(-mult[e]): the exponential of the log series
    sum_n sum_e mult[e] s^(e n) x^n / n, exact for every mode."""
    return RatKernel(S_ONE, 0, S_ONE, {Scalar.s_power(e): c for e, c in mult.items()})


_CONTRACTION_MEMO: dict = {}
_CONTRACTION_MEMO_SIZE = 64     # a run fills 16: the 4 x 4 field pairs


def contraction_kernel(A: ExpField, B: ExpField) -> ContractionData:
    """contract(A, B), memoized by the two fields' exponent data; past
    _CONTRACTION_MEMO_SIZE entries the oldest is evicted."""
    key = (A, B)
    hit = _CONTRACTION_MEMO.get(key)
    if hit is not None:
        return hit
    data = contract(A, B)
    if len(_CONTRACTION_MEMO) >= _CONTRACTION_MEMO_SIZE:
        del _CONTRACTION_MEMO[next(iter(_CONTRACTION_MEMO))]
    _CONTRACTION_MEMO[key] = data
    return data


def xform_of_contraction(data: ContractionData, swap: bool) -> RatKernel:
    """The contraction as a rational function of x = w/z.

    With ``swap`` the contraction was computed with its first field at w
    (so its own ratio variable is z/w); the x-form picks up x^zdeg from
    w^zdeg = z^zdeg x^zdeg.
    """
    if not swap:
        return data.kernel * RatKernel.const(data.const)
    return data.kernel.reciprocal_arg() * RatKernel.monomial(data.const, data.zdeg)


def exchange_kernel(A: ExpField, B: ExpField) -> RatKernel:
    """The kernel K with A(z)B(w) = K(w/z) B(w)A(z), from both contractions."""
    ab = contraction_kernel(A, B)
    ba = contraction_kernel(B, A)
    if ab.zdeg != ba.zdeg:
        raise ArithmeticError("exchange kernel is not of degree zero")
    return xform_of_contraction(ab, swap=False) / xform_of_contraction(ba, swap=True)


# ---------------------------------------------------------------------------
# Exchange verification
# ---------------------------------------------------------------------------

def verify_exchange(A: ExpField, B: ExpField, K: RatKernel, N: int,
                    tag: str, check_id: str) -> list[CheckRecord]:
    """Assert A(z)B(w) = K * B(w)A(z) exactly: rational identity plus
    per-mode agreement of the region expansion for |n| <= N.  A kernel that
    cannot be derived fails both records."""
    try:
        engine = exchange_kernel(A, B)
    except ArithmeticError as err:
        return [record(f"{check_id}-{part}", tag, False, engine=f"error: {err}",
                       expected=str(K))
                for part in ("kernel", "window")]
    return [record(f"{check_id}-kernel", tag, engine == K, engine=str(engine), expected=str(K)),
            compare_dists(f"{check_id}-window", tag,
                          expand_inner(engine, N), expand_inner(K, N))]


def step_pair_exchange_kernel() -> RatKernel:
    """(1 - q^3 x)(1 - q^-3 x) / ((1 - q x)(1 - q^-1 x))."""
    return RatKernel.from_linear_factors(
        S_ONE, 0, [Scalar.q_power(3), Scalar.q_power(-3)],
        [Scalar.q_power(1), Scalar.q_power(-1)])


def step_vertex_exchange_kernel(sign: int) -> RatKernel:
    """q^(2s) (1 - q^(-5s/2) x) / (1 - q^(3s/2) x)."""
    return RatKernel.from_linear_factors(
        Scalar.q_power(2 * sign), 0,
        [Scalar.s_power(-5 * sign)], [Scalar.s_power(3 * sign)])


def self_exchange_kernel(sign: int) -> RatKernel:
    """q^(2s) (1 - q^(-2s) x) / (1 - q^(2s) x)."""
    return RatKernel.from_linear_factors(
        Scalar.q_power(2 * sign), 0,
        [Scalar.q_power(-2 * sign)], [Scalar.q_power(2 * sign)])


def exchange_suite(N: int) -> list[CheckRecord]:
    """All exchange relations of the vertex realization, both signs."""
    F = standard_fields()
    one = RatKernel.const(S_ONE)
    cases = [
        ("exchange-psi-phi", "ope1", F["Psi"], F["Phi"], step_pair_exchange_kernel()),
        ("exchange-psi-e+", "ope2+", F["Psi"], F["E+"], step_vertex_exchange_kernel(+1)),
        ("exchange-psi-e-", "ope2-", F["Psi"], F["E-"], step_vertex_exchange_kernel(-1)),
        ("exchange-e+-phi", "ope3+", F["E+"], F["Phi"], step_vertex_exchange_kernel(+1)),
        ("exchange-e--phi", "ope3-", F["E-"], F["Phi"], step_vertex_exchange_kernel(-1)),
        ("exchange-e+-e+", "ncom+", F["E+"], F["E+"], self_exchange_kernel(+1)),
        ("exchange-e--e-", "ncom-", F["E-"], F["E-"], self_exchange_kernel(-1)),
        ("exchange-psi-psi", "trivial", F["Psi"], F["Psi"], one),
        ("exchange-phi-phi", "trivial", F["Phi"], F["Phi"], one),
    ]
    out = []
    for check_id, tag, A, B, K in cases:
        out.extend(verify_exchange(A, B, K, N, tag, check_id))
    return out


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def fuse(A: ExpField, B: ExpField, half: int) -> ExpField:
    """Combined exponent of :A(z)B(w): evaluated at z = w*q^(half/2), a
    single field in w."""
    a = A.shifted(half)
    return ExpField(f"fuse({A.name},{B.name};q^{Fraction(half, 2)})",
                    a.qt + B.qt, a.lnv + B.lnv, a.qpow + B.qpow,
                    a.pos + B.pos, a.neg + B.neg)


# ---------------------------------------------------------------------------
# The opposite-charge operator product: poles, residues, fusion content
# ---------------------------------------------------------------------------

def verify_ee_ope(N: int, sign: int) -> list[CheckRecord]:
    """Checks on E^sgn(z) E^-sgn(w): read off its contraction kernel, pin
    the poles at x = q and 1/q, match the residue scalars against
    -+1/(q - 1/q), and fuse the residue fields into the shifted step
    operators.  The region difference of the kernel is the delta-pair
    pattern [n+1]."""
    F = standard_fields()
    A, B = (F["E+"], F["E-"]) if sign > 0 else (F["E-"], F["E+"])
    psi_like, phi_like = F["Psi"], F["Phi"]
    tag = "mame" if sign > 0 else "mame/eva"
    suffix = "[+]" if sign > 0 else "[-]"
    out = []
    data = contraction_kernel(A, B)
    K = data.kernel
    q = Scalar.q_power(1)
    qi = Scalar.q_power(-1)
    dq = q_minus_qinv()

    out.append(record(f"ee-ope-prefactor{suffix}", tag,
                      data.const == S_ONE and data.zdeg == -2,
                      engine=f"const={data.const}, zdeg={data.zdeg}",
                      expected="const=1, zdeg=-2"))
    deg_den = len(K.den) - 1
    poles_ok = deg_den == 2 and K.den_root_check(q) and K.den_root_check(qi)
    out.append(record(f"ee-ope-poles{suffix}", tag, poles_ok,
                      engine=str(K), expected="simple poles at x = q and x = 1/q"))
    res_qi = K.residue_at_simple_pole(qi)
    res_q = K.residue_at_simple_pole(q)
    out.append(record(f"ee-ope-residues{suffix}", tag,
                      res_qi == -(S_ONE / dq) and res_q == S_ONE / dq,
                      engine=f"x=1/q: {res_qi}; x=q: {res_q}",
                      expected="x=1/q: -1/(q-1/q); x=q: +1/(q-1/q)"))
    # numerator degree <= denominator degree + 1 (here it is a constant)
    out.append(record(f"ee-ope-degree-bound{suffix}", tag,
                      len(K.num) - 1 <= deg_den + 1,
                      engine=f"deg num={len(K.num)-1}, deg den={deg_den}",
                      expected="deg num <= deg den + 1"))
    # residue fields at the poles z = w*q and z = w/q
    up = fuse(A, B, +2)
    down = fuse(A, B, -2)
    if sign > 0:
        up_ok = up.matches(psi_like.shifted(+1), N)
        down_ok = down.matches(phi_like.shifted(-1), N)
        expected_fusion = "z=wq -> Psi(w q^1/2); z=w/q -> Phi(w q^-1/2)"
    else:
        up_ok = up.matches(phi_like.shifted(+1), N)
        down_ok = down.matches(psi_like.shifted(-1), N)
        expected_fusion = "z=wq -> Phi(w q^1/2); z=w/q -> Psi(w q^-1/2)"
    out.append(record(f"ee-ope-fusion{suffix}", tag, up_ok and down_ok,
                      engine=f"z=wq match: {up_ok}; z=w/q match: {down_ok}",
                      expected=expected_fusion))
    # delta-pair content of the commutator: region difference has c_n = [n+1]
    D = region_difference(K, N)
    expected = Dist2.from_func(N, lambda n: qint(n + 1))
    out.append(compare_dists(f"ee-ope-region-difference{suffix}", "eva", D, expected))
    return out


# ---------------------------------------------------------------------------
# The diagonal current against the step operators
# ---------------------------------------------------------------------------

def h_e_commutator_dist(sign: int, N: int) -> Dist2:
    """Full commutator content of [H(z), E^sign(w)] as a c-number times E^sign(w)."""
    F = standard_fields()
    E = F["E+"] if sign > 0 else F["E-"]
    out = {0: (-S_I) * E.qt}
    for n in range(1, N + 1):
        out[n] = E.mode(-n) * oscillator_norm(n)
        out[-n] = -(E.mode(n) * oscillator_norm(n))
    return Dist2(N, out)
