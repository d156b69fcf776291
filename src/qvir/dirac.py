"""Constraint reduction: Dirac matrix, per-mode inversion, reduced bracket.

Two second-class constraints freeze the step-raising direction of the
current algebra; the bracket of the surviving lowering current is then
corrected by the chain {A, chi_i} (Delta^-1)_ij {chi_j, B}.  Translation
covariance makes every contour pairing diagonal in modes, so the whole
reduction is an exact per-mode computation: a 2x2 inversion followed by
coefficient products.

A `Reduction` holds one scenario's chain on one window.  It builds each
on-surface bracket once and computes the Dirac matrix, its per-mode inverse,
the reduced bracket and that bracket's split contents at most once each, on
first use; the involution check still inverts the inverse afresh.  Once the
reduced bracket exists the chain drops its brackets, matrix and inverse.
The degeneration, dirac, reduce and limit suites all read the run's chains,
one per scenario; the reduce suite reweights the q-sl2 one for `[qvir]`.
`QVirasoroBracket(W)` is the closed form the reduced bracket is matched
against: its kernels in both forms, their prefactors and the affine map,
built once per q-sl2 run whose suites read it and passed to every check
that reads them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from fractions import Fraction

from .qcoeff import (S_I, S_ONE, S_T, S_ZERO, Scalar, eval_q1, q_minus_qinv, qint,
                     qint_over_qsum)
from .distcalc import Dist2, ModeWindow, _dist2, pair, weight_abs
from .currents import (
    FieldFactor,
    TermSum,
    classical_bracket,
    classical_bracket_table,
    difference_constraint_combo,
    q_bracket_table,
)
from .report import CheckRecord, DOCUMENTED, compare_dists, compare_termsums, record


class SingularModeError(ArithmeticError):
    """The constraint matrix is singular at some retained mode."""

    def __init__(self, mode):
        super().__init__(f"constraint matrix is singular at mode {mode}")
        self.mode = mode


class SubstitutionError(ValueError):
    """On-surface substitution left non-constant field content."""


class UnknownScenarioError(ValueError):
    """No such scenario key is registered."""


# ---------------------------------------------------------------------------
# Constraints and scenarios
# ---------------------------------------------------------------------------

class ConstraintSet(namedtuple("ConstraintSet", "symbols exprs on_surface")):
    """The constraints' symbols and expressions, in matrix order, and the
    on-surface substitution."""

    __slots__ = ()

    def vanish_on_surface(self) -> bool:
        return all(chi.substitute(self.on_surface).is_zero() for chi in self.exprs)


# The surviving current: both scenarios reduce onto the lowering current.
CURRENT = "E-"

# The mode weight q^(WEIGHT_EXPONENT |n|) of the [qvir] pass; the reduced
# bracket takes the absorbed form at 2 only.
WEIGHT_EXPONENT = 2


def _unit_term(symbol, coef):
    return ((FieldFactor(symbol, "z"),), 0, Dist2.unit0(1, coef))


def q_constraints() -> ConstraintSet:
    chi1 = TermSum([_unit_term(sym, c) for c, sym in difference_constraint_combo()])
    chi2 = TermSum([_unit_term("E+", S_ONE), ((), 0, Dist2.unit0(1, -S_ONE))])
    return ConstraintSet(("chi1", "E+"), (chi1, chi2), {"Psi": 1, "Phi": 1, "E+": 1})


def classical_constraints() -> ConstraintSet:
    chi1 = TermSum([_unit_term("H", S_ONE)])
    chi2 = TermSum([_unit_term("E+", S_ONE), ((), 0, Dist2.unit0(1, -S_ONE))])
    return ConstraintSet(("H", "E+"), (chi1, chi2), {"H": 0, "E+": 1})


class AffineMap(namedtuple("AffineMap", "a2 ab b2")):
    """Affine redefinition Et- = a*E- + b of the surviving current.

    a and b themselves are surd-valued, but the reduced-bracket comparisons
    only ever need the rational-sector products a^2, a*b and b^2, which are
    all that is stored.
    """

    __slots__ = ()

    def consistent(self) -> bool:
        """a^2 b^2 == (ab)^2."""
        return self.a2 * self.b2 == self.ab * self.ab


# A reduction scenario: its bracket table and its constraints.
Scenario = namedtuple("Scenario", "key table constraints")


SCENARIO_KEYS = ("classical-sl2", "q-sl2")


def scenario(key: str, weighted: bool = False) -> Scenario:
    """Registry of the two reduction scenarios."""
    if key == "q-sl2":
        table = q_bracket_table()
        if weighted:
            # a reference for the tests only, never built by a run; every rule has
            # z-degree 0, so the weight commutes with the reflection of a pair
            h = WEIGHT_EXPONENT
            table = {pair: lambda W, rule=rule: rule(W).map_dist(lambda d: weight_abs(d, h))
                     for pair, rule in table.items()}
        return Scenario(key, table, q_constraints())
    if key == "classical-sl2":
        if weighted:
            raise UnknownScenarioError("the undeformed scenario takes no mode weight")
        return Scenario(key, classical_bracket_table(), classical_constraints())
    raise UnknownScenarioError(f"unknown scenario {key!r}; known: {SCENARIO_KEYS}")


def verify_table_degeneration(q_chain: "Reduction",
                              classical_chain: "Reduction") -> list[CheckRecord]:
    """At q = 1 (weight off) the deformed chain's on-surface brackets reduce
    to the undeformed chain's, per mode."""
    return [compare_termsums(f"degeneration-{qa},{qb}", tag,
                             _at_q1(q_chain.on_surface(qa, qb)),
                             _at_q1(classical_chain.on_surface(ca, cb)),
                             agree="all on-surface entries agree at q=1")
            for (qa, qb), (ca, cb), tag in (
                (("chi1", "chi1"), ("H", "H"), "cor1"),
                (("chi1", "E+"), ("H", "E+"), "cor2"),
                (("E+", "E+"), ("E+", "E+"), "cor-trivial"),
                (("E-", "chi1"), ("E-", "H"), "cor2"),
                (("E-", "E+"), ("E-", "E+"), "cor3"),
                (("E-", "E-"), ("E-", "E-"), "cor-trivial"),
            )]


def _at_q1(T: TermSum) -> TermSum:
    return T.map_dist(lambda d: Dist2(d.N, {n: eval_q1(v) for n, v in d.c.items()}))


# ---------------------------------------------------------------------------
# The Dirac matrix
# ---------------------------------------------------------------------------

class DiracMatrix(namedtuple("DiracMatrix", "d11 d12 d21 d22")):
    """2x2 matrix of c-number distributions on the constraint surface."""

    __slots__ = ()

    def __new__(cls, d11: Dist2, d12: Dist2, d21: Dist2, d22: Dist2):
        if not (d12.N == d21.N == d22.N == d11.N):
            raise ValueError("entries live on different windows")
        return super().__new__(cls, d11, d12, d21, d22)

    def entry(self, i: int, j: int) -> Dist2:
        return self[2 * i + j]

    def mode_matrix(self, n: int):
        return ((self.d11.coeff(n), self.d12.coeff(n)),
                (self.d21.coeff(n), self.d22.coeff(n)))

    def det(self, n: int) -> Scalar:
        (a, b), (c, d) = self.mode_matrix(n)
        return a * d - b * c


def _onsurface_cnumber(chain: "Reduction", a: str, b: str) -> Dist2:
    T = chain.on_surface(a, b)
    if T.is_zero():
        return Dist2.zero(chain.W.N)
    try:
        return T.field_free_dist()
    except ValueError as err:
        raise SubstitutionError(
            f"bracket ({a}, {b}) is not a c-number on the surface: {err}") from err


def build_dirac_matrix(chain: "Reduction") -> DiracMatrix:
    """Mutual constraint brackets of the chain, on the constraint surface."""
    c1, c2 = chain.scenario.constraints.symbols
    d11 = _onsurface_cnumber(chain, c1, c1)
    d12 = _onsurface_cnumber(chain, c1, c2)
    d22 = _onsurface_cnumber(chain, c2, c2)
    d21 = -(d12.reflect())
    return DiracMatrix(d11, d12, d21, d22)


def invert(dm: DiracMatrix, W: ModeWindow) -> DiracMatrix:
    """Per-mode 2x2 inversion; raises SingularModeError naming the first
    singular mode."""
    inv = [[{}, {}], [{}, {}]]
    for n in W.modes():
        (a, b), (c, d) = dm.mode_matrix(n)
        det = a * d - b * c
        if det.is_zero():
            raise SingularModeError(n)
        idet = det.inverse()
        nidet = -idet
        for (i, j), v, w in (((0, 0), d, idet), ((0, 1), b, nidet), ((1, 0), c, nidet),
                             ((1, 1), a, idet)):
            v = v * w
            if not v.is_zero():
                inv[i][j][n] = v
    return DiracMatrix(_dist2(W.N, inv[0][0]), _dist2(W.N, inv[0][1]),
                       _dist2(W.N, inv[1][0]), _dist2(W.N, inv[1][1]))


def matrix_pair(A: DiracMatrix, B: DiracMatrix) -> list[list[Dist2]]:
    """Contour pairing of two matrix distributions (mode-diagonal chain)."""
    out = []
    for i in (0, 1):
        row = []
        for k in (0, 1):
            acc = pair(A.entry(i, 0), B.entry(0, k)) + pair(A.entry(i, 1), B.entry(1, k))
            row.append(acc)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# The reduced bracket
# ---------------------------------------------------------------------------

def dirac_bracket(chain: "Reduction", a: str, b: str, dinv: DiracMatrix) -> TermSum:
    """Dirac bracket {a, b}_D of two symbols of the chain's table: the
    direct bracket minus the constraint-chain correction through the
    per-mode inverse ``dinv`` of the constraint matrix, all on-surface."""
    out = chain.on_surface(a, b)
    syms = chain.scenario.constraints.symbols
    left = [chain.on_surface(a, c) for c in syms]
    right = [chain.on_surface(c, b) for c in syms]
    for i, Ti in enumerate(left):
        for j, Tj in enumerate(right):
            for (mono_i, zi), di in Ti.terms.items():
                for (mono_j, zj), dj in Tj.terms.items():
                    if zi or zj:
                        raise SubstitutionError("constraint-chain terms must be degree-free")
                    dist = pair(pair(di, dinv.entry(i, j)), dj)
                    out = out - TermSum.single(mono_i + mono_j, dist)
    return out


def reduce(chain: "Reduction", dinv: DiracMatrix) -> TermSum:
    """Dirac bracket of the surviving current with itself."""
    return dirac_bracket(chain, CURRENT, CURRENT, dinv)


class Reduction:
    """One scenario's Dirac chain on one window: its on-surface brackets, the
    constraint matrix, its per-mode inverse, the reduced bracket and its
    contents, each computed at most once."""

    def __init__(self, scenario: Scenario, W: ModeWindow):
        self.scenario = scenario
        self.W = W
        self._brackets = {}     # <= 9 pairs of the table's symbols, until `reduced`

    def on_surface(self, a: str, b: str) -> TermSum:
        """{a(z), b(w)} with the constraint surface substituted."""
        T = self._brackets.get((a, b))
        if T is None:
            sc = self.scenario
            T = classical_bracket(a, b, sc.table, self.W).substitute(sc.constraints.on_surface)
            if "reduced" not in vars(self):
                self._brackets[(a, b)] = T
        return T

    @cached_property
    def matrix(self) -> DiracMatrix:
        return build_dirac_matrix(self)

    @cached_property
    def inverse(self) -> DiracMatrix:
        return invert(self.matrix, self.W)

    @cached_property
    def reduced(self) -> TermSum:
        reduced = reduce(self, self.inverse)
        # nothing reads a bracket, the matrix or the inverse after this
        self._brackets.clear()
        vars(self).pop("matrix", None)
        vars(self).pop("inverse", None)
        return reduced

    @cached_property
    def contents(self) -> "ReducedContents":
        return split_reduced(self.reduced, self.W.N)


# The contents of the reduced bracket in the current's variables: the
# E(z)E(w), E(z) and E(w) coefficients and the field-free part.
ReducedContents = namedtuple("ReducedContents", "quad lin_z lin_w cnum")


def split_reduced(T: TermSum, N: int) -> ReducedContents:
    quad = lin_z = lin_w = cnum = Dist2.zero(N)
    fz = FieldFactor(CURRENT, "z")
    fw = FieldFactor(CURRENT, "w")
    for (mono, zdeg), dist in T.terms.items():
        if zdeg != 0:
            raise ValueError("reduced bracket should carry no z-degree")
        key = tuple(sorted(mono))
        if key == tuple(sorted((fz, fw))):
            quad = quad + dist
        elif key == (fz,):
            lin_z = lin_z + dist
        elif key == (fw,):
            lin_w = lin_w + dist
        elif key == ():
            cnum = cnum + dist
        else:
            raise ValueError(f"unexpected monomial in reduced bracket: {key}")
    return ReducedContents(quad, lin_z, lin_w, cnum)


# ---------------------------------------------------------------------------
# Expected closed forms
# ---------------------------------------------------------------------------

class QVirasoroBracket:
    """Closed form of the reduced bracket in (z/w)-orientation on one window.

    Quadratic kernel f_n = [n]^2/[2n] (0 at n=0) against Et-(z)Et-(w) with
    overall i[2](q-1/q)^2/2, central kernel g_n = [2n] with -i(q-1/q)^2;
    the residual-weight forms carry the extra q^(-2|n|) of the unabsorbed
    bracket.  Both kernels are odd, so the x-orientation forms are
    -kappa * kernel.  ``amap`` holds the affine map's closed forms
    (a^2, ab, b^2) = ((q-1/q)^4 [2]/2, 2 (q-1/q)^2, 8/[2]).
    """

    __slots__ = ("quad", "cent", "quad_residual", "cent_residual",
                 "kappa_quad", "kappa_cent", "amap")

    def __init__(self, W: ModeWindow):
        dq2 = q_minus_qinv() ** 2
        half2 = qint(2) * Scalar.from_rat(Fraction(1, 2))
        # [n]^2/[2n] in lowest terms
        self.quad = Dist2.from_func(W.N, lambda n: qint_over_qsum(n, 1) if n else S_ZERO)
        self.cent = Dist2.from_func(W.N, lambda n: qint(2 * n))
        self.quad_residual = weight_abs(self.quad, -2)
        self.cent_residual = weight_abs(self.cent, -2)
        self.kappa_quad = S_I * half2 * dq2
        self.kappa_cent = -S_I * dq2
        self.amap = AffineMap(dq2 * dq2 * half2, Scalar.from_rat(2) * dq2,
                              Scalar.from_rat(8) / qint(2))


def classical_linear_pattern(W: ModeWindow) -> Dist2:
    minus_i = -S_I
    return Dist2.from_func(W.N, lambda n: minus_i * Scalar.from_rat(n))


def classical_central_pattern(W: ModeWindow) -> Dist2:
    half_i = S_I * Scalar.from_rat(Fraction(1, 2))
    return Dist2.from_func(W.N, lambda n: half_i * Scalar.from_rat(n ** 3))


# ---------------------------------------------------------------------------
# Check suites
# ---------------------------------------------------------------------------

def _drop0(D: Dist2) -> Dist2:
    return _dist2(D.N, {n: v for n, v in D.c.items() if n != 0})


def affine_check(parts: ReducedContents, B: QVirasoroBracket,
                 weighted: bool) -> list[CheckRecord]:
    """Compare the reduced bracket's contents, rewritten through B's affine
    map Et- = a E- + b, with the closed-form quadratic algebra ``B``; modes
    n != 0, with the zero mode reported separately."""
    tag = "qvir" if weighted else "qdirb"
    amap = B.amap
    out = []

    out.append(record(f"affine-map-consistency[{tag}]", "qdirb", amap.consistent(),
                      engine=f"a^2={amap.a2}, ab={amap.ab}, b^2={amap.b2}"))

    # x-orientation closed forms; the unweighted pass keeps the residual weight
    fpat = (B.quad if weighted else B.quad_residual).scale(-B.kappa_quad)
    gpat = (B.cent if weighted else B.cent_residual).scale(-B.kappa_cent)

    out.append(compare_dists(f"reduce-quadratic[{tag}]", tag, _drop0(parts.quad), fpat))

    # linear content is absorbed exactly: a^2 * lin == a*b * quad
    lin_id = f"reduce-linear-cancellation[{tag}]"
    if _drop0(parts.lin_z) != _drop0(parts.lin_w):
        out.append(record(lin_id, tag, False, engine="lin_z != lin_w"))
    else:
        out.append(compare_dists(lin_id, tag, _drop0(parts.lin_z).scale(amap.a2),
                                 _drop0(parts.quad).scale(amap.ab)))

    # central content: a^2 * cnum == b^2 * quad_pattern + central_pattern
    lhs = _drop0(parts.cnum).scale(amap.a2)
    rhs = fpat.scale(amap.b2) + gpat
    out.append(compare_dists(f"reduce-central[{tag}]", tag, lhs, rhs))

    # the zero mode, documented with both exact values (once, on the
    # unweighted pass; the weighted bracket differs by an exact weight only)
    if not weighted:
        eng0 = (f"quad(0)={parts.quad.coeff(0)}, lin(0)={parts.lin_z.coeff(0)}, "
                f"cnum(0)={parts.cnum.coeff(0)}")
        zero_ok = all(D.coeff(0).is_zero() for D in parts)
        out.append(CheckRecord(
            f"reduce-mode0[{tag}]", tag, DOCUMENTED, 0, eng0,
            "closed form is 0/0 at n=0 ([n]^2/[2n]); odd-limit reading gives 0"
            + ("; engine agrees" if zero_ok else "; engine value differs"),
        ))

    # surd-freeness of every final coefficient
    surd_free = all(v.is_rational_sector() for D in parts for v in D.c.values())
    out.append(record(f"reduce-rational-sector[{tag}]", tag, surd_free,
                      engine="all coefficients free of t and r" if surd_free
                      else "surd leakage detected"))
    return out


def printed_inverse_patterns(W: ModeWindow, B: QVirasoroBracket):
    """The printed entries of the inverse constraint matrix (modes n != 0)."""
    dq = q_minus_qinv()
    two_i = Scalar.from_rat(2) * S_I
    br2 = qint(2)

    def sign(n):
        return Scalar.from_rat(1 if n > 0 else -1)

    def inv11(n):
        if n == 0:
            return S_ZERO
        return -(two_i * dq / br2) * sign(n) * qint_over_qsum(n, 0)

    def inv12(n):
        if n == 0:
            return S_ZERO
        return -(two_i * S_T / br2) * Scalar.s_power(-abs(n)) * qint_over_qsum(n, 0)

    # (2i/[2]) q^(-2|n|) [n]^2/[2n]: the residual-weight quadratic kernel
    inv22 = B.quad_residual.scale(two_i / br2)
    return {
        (0, 0): Dist2.from_func(W.N, inv11),
        (0, 1): Dist2.from_func(W.N, inv12),
        (1, 0): Dist2.from_func(W.N, lambda n: -inv12(n)),
        (1, 1): inv22,
    }


def dirac_suite(red: Reduction, B: QVirasoroBracket | None = None) -> list[CheckRecord]:
    """Build, compare, invert and pair the constraint matrix; a q-sl2 chain
    also compares its inverse with the printed one, through the closed
    forms ``B``."""
    out = []
    sc, W = red.scenario, red.W
    out.append(record("constraints-idempotent", "ain1/ain2", sc.constraints.vanish_on_surface()))
    dm = red.matrix

    if sc.key == "q-sl2":
        half2 = qint(2) * Scalar.from_rat(Fraction(1, 2))
        dq = q_minus_qinv()
        elem11 = Dist2.from_func(W.N, lambda n: -S_I * half2 * qint(n))
        elem12 = Dist2.from_func(
            W.N, lambda n: (-S_I * qint(2) * S_T * Scalar.from_rat(Fraction(1, 2))
                            * Scalar.s_power(3 * abs(n))) if n
            else -S_I * S_T * Scalar.q_power(1))
        elem22 = Dist2.from_func(
            W.N, lambda n: S_I * half2 * dq * Scalar.from_rat(1 if n > 0 else -1)
            * Scalar.q_power(2 * abs(n)) if n else S_ZERO)
        out.append(compare_dists("dirac-matrix-11", "elem1", dm.entry(0, 0), elem11))
        out.append(compare_dists("dirac-matrix-12", "elem2", dm.entry(0, 1), elem12))
        out.append(compare_dists("dirac-matrix-21", "elem2", dm.entry(1, 0), -(elem12.reflect())))
        out.append(compare_dists("dirac-matrix-22", "elem3", dm.entry(1, 1), elem22))
    elif sc.key == "classical-sl2":
        elem11 = classical_linear_pattern(W)
        minus_it = -S_I * S_T
        elem12 = Dist2.from_func(W.N, lambda n: minus_it)
        out.append(compare_dists("dirac-matrix-11", "cor1", dm.entry(0, 0), elem11))
        out.append(compare_dists("dirac-matrix-12", "cor2", dm.entry(0, 1), elem12))
        out.append(compare_dists("dirac-matrix-22", "cor-trivial", dm.entry(1, 1),
                                 Dist2.zero(W.N)))

    try:
        dinv = red.inverse
        out.append(record("dirac-invertible", "inver", True,
                          engine=f"det(0) = {dm.det(0)}"))
    except SingularModeError as err:
        out.append(record("dirac-invertible", "inver", False, mode=err.mode,
                          engine=str(err)))
        return out

    prod = matrix_pair(dm, dinv)
    ident_ok = (prod[0][0] == Dist2.delta(W.N) and prod[1][1] == Dist2.delta(W.N)
                and prod[0][1].is_zero() and prod[1][0].is_zero())
    out.append(record("dirac-pairing-identity", "inver", ident_ok,
                      engine="Delta * Delta^-1 = delta identity on all modes"
                      if ident_ok else str(prod)))
    out.append(record("dirac-invert-involution", "inver",
                      invert(dinv, W) == dm))

    if sc.key == "q-sl2":
        printed = printed_inverse_patterns(W, B)
        names = {(0, 0): "11", (0, 1): "12", (1, 0): "21", (1, 1): "22"}
        for ij, pat in printed.items():
            got = _drop0(dinv.entry(*ij))
            out.append(compare_dists(f"dirac-inverse-{names[ij]}", "inver/printed",
                                     got, _drop0(pat)))
        # the zero mode of the printed inverse: documented discrepancy
        (m00, m01), (m10, m11) = dinv.mode_matrix(0)
        eng0 = f"(({m00}, {m01}), ({m10}, {m11}))"
        printed0 = "((0, 0), (0, 0)) as printed (strict n>0 sums)"
        limit0 = ("((0, -2i*sqrt2/[2]), (2i*sqrt2/[2], 0)) under an n>=0 "
                  "limit reading; neither satisfies the pairing identity at n=0")
        out.append(CheckRecord("dirac-inverse-mode0", "inver", DOCUMENTED, 0,
                               eng0, printed0 + "; " + limit0))
    return out


def reduce_suite(red: Reduction, B: QVirasoroBracket | None = None) -> list[CheckRecord]:
    """Run the reduction and compare with the closed forms: the Virasoro
    patterns for the undeformed chain; for a q-sl2 chain, ``B`` with the
    residual weight (`[qdirb]`), then the weight-absorbed ``B`` (`[qvir]`).
    Every rule has z-degree 0 and the pairing is mode-diagonal, so folding a
    weight w(n) into every rule would scale the matrix by w, its inverse by
    1/w and the reduced bracket by w: `[qvir]` reads the one chain's reduced
    bracket and contents reweighted by q^(WEIGHT_EXPONENT |n|)."""
    out = []
    W = red.W
    reduced = red.reduced
    # reflect(A) == -A, tested as reflect(A) + A == 0 to build no negated copy
    if red.scenario.key == "classical-sl2":
        out.append(record("reduce-antisymmetry", "dirb", (reduced.reflect() + reduced).is_zero()))
        parts = red.contents
        lin = classical_linear_pattern(W)
        out.append(compare_dists("reduce-linear-z", "virasoro", parts.lin_z, lin))
        out.append(compare_dists("reduce-linear-w", "virasoro", parts.lin_w, lin))
        out.append(compare_dists("reduce-central", "virasoro", parts.cnum,
                                 classical_central_pattern(W)))
        out.append(record("reduce-no-quadratic", "virasoro", parts.quad.is_zero(),
                          engine=str(parts.quad)))
    else:
        h = WEIGHT_EXPONENT
        for tag, T, parts in (("qdirb", reduced, red.contents),
                              ("qvir", reduced.map_dist(lambda d: weight_abs(d, h)),
                               ReducedContents(*(weight_abs(d, h) for d in red.contents)))):
            out.append(record(f"reduce-antisymmetry[{tag}]", "dirb", (T.reflect() + T).is_zero()))
            out.extend(affine_check(parts, B, weighted=(tag == "qvir")))
    return out
