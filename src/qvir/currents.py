"""Field-level bracket algebra.

Operator-valued distributions are finite sums of (monomial in field
symbols with q-shifted arguments) x (two-point distribution), the TermSum.
Quantum commutators are the region difference of the two orderings'
contraction kernels.  A classical bracket table maps each pair of field
symbols to its bracket rule; the deformed table's rules are the printed
commutators times the correspondence sign.  Mode-algebra consistency checks
live here too.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add, sub

from .qcoeff import S_I, S_ONE, S_T, S_ZERO, Scalar, q_minus_qinv, qint, qint_ratio
from .distcalc import Dist2, expand_inner, expand_outer
from .report import CheckRecord, compare_dists, compare_pairs, compare_termsums, record
from .vertexcalc import (
    ExpField,
    contraction_kernel,
    exchange_kernel,
    h_e_commutator_dist,
    oscillator_norm,
    standard_fields,
    xform_of_contraction,
    z_degree,
)


# 1/(q - 1/q), the scale of every opposite-charge step-operator bracket
INV_DQ = S_ONE / q_minus_qinv()


class MissingPairError(KeyError):
    """The bracket table has no rule for the requested symbol pair."""


# ---------------------------------------------------------------------------
# Terms and term sums
# ---------------------------------------------------------------------------

class FieldFactor(namedtuple("FieldFactor", "symbol var shift", defaults=(0,))):
    """A field symbol at one variable, 'z' (first slot) or 'w' (second slot),
    with argument shifted by q^(shift/2).

    Factors compare, hash and sort by (symbol, var, shift)."""

    __slots__ = ()

    def reflected(self):
        return FieldFactor(self.symbol, "w" if self.var == "z" else "z", self.shift)

    def __str__(self):
        if self.shift == 0:
            return f"{self.symbol}({self.var})"
        return f"{self.symbol}({self.var}*q^{Fraction(self.shift, 2)})"


class TermSum:
    """Finite sum of monomial x distribution, with an integer z-degree tag.

    Monomials are multisets of FieldFactors (normal-ordered products and
    classical products are both symmetric, so a sorted tuple is canonical);
    like terms merge and zero distributions drop.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[tuple, Dist2] = {}
        for mono, zdeg, dist in terms:
            key = (tuple(sorted(mono)), zdeg)
            if key in merged:
                merged[key] = merged[key] + dist
            else:
                merged[key] = dist
        object.__setattr__(
            self, "terms",
            {k: d for k, d in merged.items() if not d.is_zero()})

    def __setattr__(self, name, value):
        raise AttributeError("TermSum is immutable")

    @classmethod
    def single(cls, mono, dist, zdeg=0):
        return cls([(tuple(mono), zdeg, dist)])

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def _combine(self, other, op):
        """Term by term self op other, for op the Dist2 + or -."""
        out = dict(self.terms)
        for key, d in other.terms.items():
            if key in out:
                d = op(out[key], d)
            elif op is sub:
                d = Dist2.zero(d.N) - d
            out[key] = d
        return TermSum([(m, z, d) for (m, z), d in out.items()])

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return TermSum([(m, z, -d) for (m, z), d in self.terms.items()])

    def scale(self, a: Scalar):
        return TermSum([(m, z, d.scale(a)) for (m, z), d in self.terms.items()])

    def map_dist(self, fn):
        return TermSum([(m, z, fn(d)) for (m, z), d in self.terms.items()])

    def reflect(self):
        """Swap the two variable slots: monomial tags flip and the carried
        distribution reflects around the z-degree (z^D = w^D x^D).  Terms
        with a nonzero z-degree lose |D| boundary modes, so reflections of
        degree-carrying sums should be taken on a window padded by |D|."""
        out = []
        for (mono, zdeg), dist in self.terms.items():
            new_mono = tuple(f.reflected() for f in mono)
            if zdeg == 0:
                new_dist = dist.reflect()
            else:
                newN = dist.N - abs(zdeg)
                new_dist = Dist2(newN, {
                    m: dist.coeff(zdeg - m)
                    for m in range(-newN, newN + 1)
                    if abs(zdeg - m) <= dist.N
                })
            out.append((new_mono, zdeg, new_dist))
        return TermSum(out)

    def substitute(self, mapping: dict[str, int]):
        """Replace field symbols by 0 or 1 (dropping or erasing the factor)."""
        out = []
        for (mono, zdeg), dist in self.terms.items():
            keep = []
            dead = False
            for f in mono:
                if f.symbol in mapping:
                    if mapping[f.symbol] == 0:
                        dead = True
                        break
                else:
                    keep.append(f)
            if not dead:
                out.append((tuple(keep), zdeg, dist))
        return TermSum(out)

    def truncate(self, N: int):
        return self.map_dist(lambda d: d.truncate(N))

    def field_free_dist(self) -> Dist2:
        """The distribution content when no field factors remain."""
        if not self.terms:
            raise ValueError("empty TermSum has no window to report")
        bad = [k for k in self.terms if k[0] or k[1] != 0]
        if bad:
            raise ValueError(f"TermSum is not a plain c-number distribution: {bad}")
        return self.terms[((), 0)]     # each key is held once

    def __eq__(self, other):
        if not isinstance(other, TermSum):
            return NotImplemented
        return self.terms == other.terms

    def first_mismatch(self, other):
        """(key, mode) of the first differing coefficient, or None."""
        for key in sorted(set(self.terms) | set(other.terms),
                          key=lambda k: (str(k[0]), k[1])):
            a = self.terms.get(key)
            b = other.terms.get(key)
            if a is None or b is None:
                present = a if a is not None else b
                n = min(present.support(), key=abs, default=0)
                return key, n
            n = a.first_mismatch(b)
            if n is not None:
                return key, n
        return None

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (mono, zdeg), dist in sorted(self.terms.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            head = "*".join(str(f) for f in mono) if mono else "1"
            if zdeg:
                head += f" *z^{zdeg}"
            parts.append(f"[{head}] x ({dist})")
        return "  +  ".join(parts)

    def __repr__(self):
        return f"TermSum<{self}>"


# ---------------------------------------------------------------------------
# Quantum commutators from contraction data
# ---------------------------------------------------------------------------

def field_commutator(A: ExpField, B: ExpField, N: int) -> TermSum:
    """Quantum [A(z), B(w)] as (normal-ordered monomial) x distribution: the
    region difference of the two orderings' contraction kernels, A(z)B(w)
    expanded at |z| > |w| minus B(w)A(z) expanded at |w| > |z|."""
    ab = contraction_kernel(A, B)
    ba = contraction_kernel(B, A)
    if ab.zdeg != ba.zdeg:
        raise ArithmeticError("exchange kernel is not of degree zero")
    dist = (expand_inner(xform_of_contraction(ab, swap=False), N)
            - expand_outer(xform_of_contraction(ba, swap=True), N))
    mono = (FieldFactor(A.name, "z"), FieldFactor(B.name, "w"))
    return TermSum.single(mono, dist, ab.zdeg)


def difference_constraint_combo():
    """chi_1 = (Psi - Phi) / (sqrt2 (q - 1/q)) as (coefficient, symbol) pairs."""
    norm = S_ONE / (S_T * q_minus_qinv())
    return [(norm, "Psi"), (-norm, "Phi")]


def combo_commutator(left, right, comm) -> TermSum:
    """Bilinear quantum commutator of two linear combinations of fields,
    read from ``comm``, the field commutators keyed by symbol pair."""
    out = TermSum.zero()
    for ca, a in left:
        for cb, b in right:
            out = out + comm[(a, b)].scale(ca * cb)
    return out


# ---------------------------------------------------------------------------
# Printed commutator forms
# ---------------------------------------------------------------------------

def normal_ordered(terms) -> TermSum:
    """Ordered-product terms ((first, second), dist), the two FieldFactors in
    product order as the printed step forms give them, rewritten against the
    normal-ordered monomial: each product first*second is its exact
    contraction, a Laurent polynomial in x at the contraction's z-degree,
    times the normal-ordered pair."""
    F = standard_fields()
    out = []
    for (first, second), dist in terms:
        data = contraction_kernel(F[first.symbol], F[second.symbol])
        lau = xform_of_contraction(data, swap=first.var == "w").as_laurent()
        out.append(((first, second), data.zdeg, dist.mul_laurent(lau)))
    return TermSum(out)


def printed_pair_exchange_bracket(N: int) -> TermSum:
    """[chi1(z), chi1(w)] as printed: step-pair monomials against the odd
    q-integer sums, coefficient [2]/2."""
    half2 = qint(2) * Scalar.from_rat(Fraction(1, 2))
    t1 = ((FieldFactor("Psi", "z"), FieldFactor("Phi", "w")), 0,
          Dist2(N, {n: half2 * qint(n) for n in range(1, N + 1)}))
    t2 = ((FieldFactor("Phi", "z"), FieldFactor("Psi", "w")), 0,
          Dist2(N, {-n: -(half2 * qint(n)) for n in range(1, N + 1)}))
    return TermSum([t1, t2])


def printed_chi_e_bracket(sign: int, N: int) -> list:
    """[chi1(z), E^sign(w)] as printed, in ordered-product terms: E(w)Psi(z)
    and Phi(z)E(w) against two one-sided geometric sums with the
    -q^(-sign)/[2] constants."""
    E = "E+" if sign > 0 else "E-"
    coef = Scalar.from_rat(sign) * qint(2) * S_T * Scalar.from_rat(Fraction(1, 2))  # +-[2]/sqrt2
    cconst = Scalar.q_power(-sign) / qint(2)
    d1 = Dist2.one_sided(N, Scalar.s_power(3 * sign), +1) - Dist2.unit0(N, cconst)
    d2 = Dist2.one_sided(N, Scalar.s_power(3 * sign), -1) - Dist2.unit0(N, cconst)
    return [((FieldFactor(E, "w"), FieldFactor("Psi", "z")), d1.scale(coef)),
            ((FieldFactor("Phi", "z"), FieldFactor(E, "w")), d2.scale(coef))]


def printed_ee_same_bracket(sign: int, N: int) -> list:
    """[E^s(z), E^s(w)] as printed, in ordered-product terms: E(w)E(z) and
    E(z)E(w), half-weighted, against geometric sums with ratio q^(2s) and
    constants -q^(-s)."""
    E = "E+" if sign > 0 else "E-"
    coef = Scalar.from_rat(sign) * q_minus_qinv() * Scalar.from_rat(Fraction(1, 2))
    two = qint(2)
    cconst = Scalar.q_power(-sign)
    d1 = Dist2.one_sided(N, Scalar.q_power(2 * sign), +1, two) - Dist2.unit0(N, cconst)
    d2 = Dist2.one_sided(N, Scalar.q_power(2 * sign), -1, two) - Dist2.unit0(N, cconst)
    return [((FieldFactor(E, "w"), FieldFactor(E, "z")), d1.scale(coef)),
            ((FieldFactor(E, "z"), FieldFactor(E, "w")), d2.scale(-coef))]


def opposite_charge_bracket(N: int, k: int = 1) -> TermSum:
    """[E+(z), E-(w)] in the mode-algebra normalization: the delta pair
    at z = w q^(+-k) against the shifted step operators, over (q - 1/q)."""
    psi = TermSum.single(
        (FieldFactor("Psi", "w", k),),
        Dist2.from_func(N, lambda n: INV_DQ * Scalar.q_power(k * n)))
    phi = TermSum.single(
        (FieldFactor("Phi", "w", -k),),
        Dist2.from_func(N, lambda n: -(INV_DQ * Scalar.q_power(-k * n))))
    return psi + phi


# ---------------------------------------------------------------------------
# Commutator verification suite
# ---------------------------------------------------------------------------

# The ordered field pairs whose commutators the commutator stage derives:
# chi1's two fields against themselves and both step operators, each step
# operator against itself, and E+ against chi1's fields (mixed antisymmetry).
COMMUTATOR_PAIRS = (
    tuple((a, b) for a in ("Psi", "Phi") for b in ("Psi", "Phi", "E+", "E-"))
    + (("E+", "E+"), ("E-", "E-"), ("E+", "Psi"), ("E+", "Phi")))


def verify_commutators(N: int) -> list[CheckRecord]:
    """Derive each field pair's commutator once on a padded window; compare
    the printed commutators exactly, term by term and mode by mode, then
    check that each flips sign under reflection + slot swap."""
    F = standard_fields()
    # reflecting a term of z-degree D, or multiplying by its ordered-product
    # polynomial of x-degree |D|, loses |D| boundary modes
    pad = N + max(abs(z_degree(F[a], F[b])) for a, b in COMMUTATOR_PAIRS)
    comm = {(a, b): field_commutator(F[a], F[b], pad) for a, b in COMMUTATOR_PAIRS}
    chi = difference_constraint_combo()
    chi_chi = combo_commutator(chi, chi, comm)
    chi_e = {sign: combo_commutator(chi, [(S_ONE, E)], comm)
             for sign, E in ((+1, "E+"), (-1, "E-"))}
    out = [compare_termsums("commutator-constraint-pair", "eva1", chi_chi.truncate(N),
                            printed_pair_exchange_bracket(N))]

    for sign, tag in ((+1, "eva2+"), (-1, "eva2-")):
        printed = normal_ordered(printed_chi_e_bracket(sign, pad)).truncate(N)
        out.append(compare_termsums(f"commutator-constraint-step{tag[-1]}", tag,
                                    chi_e[sign].truncate(N), printed))

    for sign, tag in ((+1, "eva3+"), (-1, "eva3-")):
        E = "E+" if sign > 0 else "E-"
        printed = normal_ordered(printed_ee_same_bracket(sign, pad)).truncate(N)
        out.append(compare_termsums(f"commutator-step-same{tag[-1]}", tag,
                                    comm[(E, E)].truncate(N), printed))

    # antisymmetry: rho([A, A]) == -[A, A], and rho([A, B]) == -[B, A]
    for name, T in (("constraint-pair", chi_chi), ("step-same+", comm[("E+", "E+")]),
                    ("step-same-", comm[("E-", "E-")])):
        ok = T.reflect().truncate(N) == (-T).truncate(N)
        out.append(record(f"antisymmetry-{name}", "eva1/eva3", ok,
                          engine="reflection equals negation" if ok else str(T)))
    e_chi = combo_commutator([(S_ONE, "E+")], chi, comm)
    ok = chi_e[+1].reflect().truncate(N) == (-e_chi).truncate(N)
    out.append(record("antisymmetry-mixed", "eva2", ok))
    return out


# ---------------------------------------------------------------------------
# Bracket tables and the classical correspondence
# ---------------------------------------------------------------------------

# A bracket table maps a field-symbol pair (a, b) to its rule, the function
# of the window size N that gives {a(z), b(w)} for |n| <= N.  One orientation per pair is
# stored; the other follows by antisymmetry.

def classical_bracket(a: str, b: str, table: dict, N: int) -> TermSum:
    """{a(z), b(w)} from the table's rule for (a, b), or else by antisymmetry
    from its rule for (b, a): reflected and negated."""
    if (a, b) in table:
        return table[(a, b)](N)
    if (b, a) in table:
        return -(table[(b, a)](N).reflect())
    raise MissingPairError(f"no bracket rule for ({a}, {b})")


def q_bracket_table() -> dict:
    """The deformed table: each quantum commutator rule in its printed form,
    times the correspondence sign sigma, +i for an equal step-operator pair
    and -i otherwise.  The printed step forms' ordered products are read as
    commuting products at z-degree 0."""

    def signed(sigma, rule):
        return lambda N: rule(N).scale(sigma)

    def products(form, sign):
        return lambda N: TermSum([(mono, 0, d) for mono, d in form(sign, N)])

    return {
        ("chi1", "chi1"): signed(-S_I, printed_pair_exchange_bracket),
        ("chi1", "E+"): signed(-S_I, products(printed_chi_e_bracket, +1)),
        ("chi1", "E-"): signed(-S_I, products(printed_chi_e_bracket, -1)),
        ("E+", "E+"): signed(S_I, products(printed_ee_same_bracket, +1)),
        ("E-", "E-"): signed(S_I, products(printed_ee_same_bracket, -1)),
        ("E+", "E-"): signed(-S_I, opposite_charge_bracket),
    }


def classical_bracket_table() -> dict:
    """The undeformed Poisson table at level 1."""
    minus_i, minus_it = -S_I, -S_I * S_T

    def rule_hh(N):
        return TermSum.single((), Dist2.from_func(N, lambda n: minus_i * Scalar.from_rat(n)))

    def rule_he(sign):
        # the emitted field rides the delta support, so it may be placed at
        # the second slot: E(z) delta(w/z) = E(w) delta(w/z)
        def rule(N):
            E = "E+" if sign > 0 else "E-"
            c = -Scalar.from_rat(sign) * S_I * S_T
            return TermSum.single((FieldFactor(E, "w"),),
                                  Dist2.from_func(N, lambda n: c))
        return rule

    def rule_ee_opposite(N):
        field = TermSum.single((FieldFactor("H", "z"),), Dist2.from_func(N, lambda n: minus_it))
        return field + rule_hh(N)       # the same central term as {H, H}

    def rule_zero(N):
        return TermSum.zero()

    return {
        ("H", "H"): rule_hh,
        ("H", "E+"): rule_he(+1),
        ("H", "E-"): rule_he(-1),
        ("E+", "E-"): rule_ee_opposite,
        ("E+", "E+"): rule_zero,
        ("E-", "E-"): rule_zero,
    }


# ---------------------------------------------------------------------------
# Mode algebra at general level
# ---------------------------------------------------------------------------

class KacMoodyLevel:
    """Printed mode relations of the deformed current algebra at level k."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k

    def hh(self, n: int) -> Scalar:
        """[H_n, H_-n] = [2n][kn]/(2n)."""
        if n == 0:
            return S_ZERO
        return qint(2 * n) * qint(self.k * n) * Scalar.from_rat(Fraction(1, 2 * n))

    def he(self, sign: int, n: int) -> Scalar:
        """[H_n, E^s_m] = s sqrt2 q^(-s|n|k/2) [2n]/(2n) E^s_{m+n}."""
        if n == 0:
            return Scalar.from_rat(sign) * S_T
        return (Scalar.from_rat(sign) * S_T
                * Scalar.s_power(-sign * abs(n) * self.k)
                * qint(2 * n) * Scalar.from_rat(Fraction(1, 2 * n)))

    def ee(self, n: int, m: int):
        """[E+_n, E-_m] as {(symbol, mode): coefficient}."""
        return {
            ("Psi", n + m): INV_DQ * Scalar.s_power(self.k * (n - m)),
            ("Phi", n + m): -(INV_DQ * Scalar.s_power(self.k * (m - n))),
        }


def _he_ope_dists(level: KacMoodyLevel, sign: int, N: int):
    """One-sided singular parts of H(z)E^s(w) and E^s(w)H(z) at level k.

    The reversed ordering contracts the step operator's annihilation side,
    whose per-mode coefficient is odd through 1/[n]; its series therefore
    carries the opposite overall sign, and the zero-mode charge term appears
    only in the H-first ordering (H has no position zero mode to pair).
    """
    s2 = Scalar.from_rat(sign) * S_T
    ratio = Scalar.s_power(-sign * level.k)
    fwd = {0: s2}
    rev = {}
    for n in range(1, N + 1):
        c = s2 * (ratio ** n) * qint(2 * n) * Scalar.from_rat(Fraction(1, 2 * n))
        fwd[n] = c
        rev[n] = -c
    return Dist2(N, fwd), Dist2(N, rev)


def modes_from_ope(level: KacMoodyLevel, N: int) -> list[CheckRecord]:
    """Extract mode brackets from the distribution forms and compare with
    the printed mode algebra, over the whole window |n| <= N."""
    out = []
    k = level.k

    # H-H sector: commutator = one-sided entry minus its reflection
    entry = Dist2(N, {n: oscillator_norm(n) * qint_ratio(k, n) for n in range(1, N + 1)})
    D = entry - entry.reflect()
    expected = Dist2.from_func(N, lambda n: level.hh(n))
    out.append(compare_dists(f"modes-hh-k{k}", "kac-moody", D, expected))

    # H-E sector, both signs
    for sign in (+1, -1):
        fwd, rev = _he_ope_dists(level, sign, N)
        D = fwd - rev.reflect()
        expected = Dist2.from_func(N, lambda n: level.he(sign, n))
        tag = "kac-moody"
        out.append(compare_dists(f"modes-he{'+' if sign > 0 else '-'}-k{k}", tag, D, expected))
        # the constant entry is the charge of the zero mode
        ok = D.coeff(0) == Scalar.from_rat(sign) * S_T
        out.append(record(f"modes-h0-e{'+' if sign > 0 else '-'}-k{k}", "kac-moody", ok,
                          engine=str(D.coeff(0)), expected=str(Scalar.from_rat(sign) * S_T)))
        if k == 1:
            vertex = h_e_commutator_dist(sign, N)
            out.append(compare_dists(
                f"modes-he{'+' if sign > 0 else '-'}-vertex", "camp1-camp3", D, vertex))

    # E+E- sector: extract z^-a w^-m coefficients from the delta-pair
    # distribution form and compare with the printed mode relation
    T = opposite_charge_bracket(N, k)
    pairs = ((a, m) for a in range(-N, N + 1) for m in range(-N, N + 1) if abs(a + m) <= N)
    out.append(compare_pairs(f"modes-ee-k{k}", "kac-moody/eva", pairs,
                             lambda a, m: _extract_ee_modes(T, a, m), level.ee,
                             agree="all window mode pairs"))
    return out


def _extract_ee_modes(T: TermSum, a: int, m: int):
    """Coefficient of z^-a w^-m in a TermSum of shifted single fields at w.

    Each term is Field(w q^(shift/2)) x sum_n d(n) x^n; writing the field in
    modes, x^n z^0-matching forces n = a and the field mode N = a + m, with
    the shift contributing q^(-shift N / 2).
    """
    out = {}
    for (mono, zdeg), dist in T.terms.items():
        if zdeg != 0 or len(mono) != 1 or mono[0].var != "w":
            raise ValueError("extraction expects shifted single fields at w")
        f = mono[0]
        N = a + m
        coef = dist.coeff(a) * Scalar.s_power(-f.shift * N)
        if not coef.is_zero():
            prev = out.get((f.symbol, N), S_ZERO)
            out[(f.symbol, N)] = prev + coef
    return out


def verify_serre_mode_equivalence(N: int) -> list[CheckRecord]:
    """The engine's self-exchange kernel of E^s, K = c x^m P(x)/Q(x), cleared
    of its denominator, Q(x) E(z)E(w) = c x^m P(x) E(w)E(z), and read off at
    z^(-n-2) w^(-m-1), yields exactly the printed quadratic mode relation,
    as free words."""
    F = standard_fields()
    out = []
    for sign in (+1, -1):
        E = F["E+"] if sign > 0 else F["E-"]
        K = exchange_kernel(E, E)
        moved = [-(K.c * p) for p in K.num]     # the cleared kernel, moved to the left
        minus_q2 = -Scalar.q_power(2 * sign)

        def lhs(n, m):
            # x^j E(z)E(w) contributes the word E_(n+1-j) E_(m+j), and
            # x^j E(w)E(z) the reversed word E_(m+j) E_(n+1-j)
            return _words([((n + 1 - j, m + j), d) for j, d in enumerate(K.den)]
                          + [((m + j, n + 1 - j), p) for j, p in enumerate(moved, start=K.m)])

        def rhs(n, m):
            return _words((((n + 1, m), S_ONE), ((m, n + 1), minus_q2),
                           ((n, m + 1), minus_q2), ((m + 1, n), S_ONE)))

        pairs = ((n, m) for n in range(-N, N + 1) for m in range(-N, N + 1))
        out.append(compare_pairs("serre-mode+" if sign > 0 else "serre-mode-", "ncom",
                                 pairs, lhs, rhs, agree="all mode pairs in window"))
    return out


def _words(terms):
    """Free words with their summed coefficients; zero sums are dropped."""
    out = {}
    for word, coef in terms:
        out[word] = out.get(word, S_ZERO) + coef
    return {word: coef for word, coef in out.items() if not coef.is_zero()}
