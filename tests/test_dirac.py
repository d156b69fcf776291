"""Constraint matrix, per-mode inversion, and the reduced brackets."""

import copy
from fractions import Fraction

import pytest

from qvir.qcoeff import S_I, S_ONE, S_T, S_ZERO, Scalar, q_minus_qinv, qint
from qvir.distcalc import Dist2, weight_abs
from qvir import dirac
from qvir.currents import FieldFactor, TermSum, classical_bracket
from qvir.dirac import (
    CURRENT,
    ConstraintSet,
    DiracMatrix,
    QVirasoroBracket,
    ReducedContents,
    Reduction,
    Scenario,
    SingularModeError,
    SubstitutionError,
    UnknownScenarioError,
    affine_check,
    build_dirac_matrix,
    dirac_bracket,
    dirac_suite,
    invert,
    is_antisymmetric,
    matrix_pair,
    printed_inverse_patterns,
    reduce,
    reduce_suite,
    scenario,
    split_reduced,
    verify_table_degeneration,
)
from qvir.report import DOCUMENTED, FAIL, PASS

N = 8
Q = Scalar.q_power
HALF = Scalar.from_rat(Fraction(1, 2))


@pytest.fixture(scope="module")
def closed():
    return QVirasoroBracket(N)


def all_pass(records):
    bad = [r for r in records if r.status == FAIL]
    assert not bad, "\n".join(
        f"{r.id} mode={r.mode}: {r.engine_value} != {r.expected_value}" for r in bad)


# ---------------------------------------------------------------------------
# constraints and scenarios
# ---------------------------------------------------------------------------

def test_scenario_registry():
    # the weighted q-sl2 table is a reference for the tests: a scenario
    # carries no weight flag, and a run reads [qvir] off the plain chain
    assert Scenario._fields == ("key", "table", "constraints")
    assert sorted(scenario("q-sl2", weighted=True).table) == sorted(scenario("q-sl2").table)
    with pytest.raises(UnknownScenarioError):
        scenario("su3-wzw")
    # the undeformed scenario has no mode weight to carry
    with pytest.raises(UnknownScenarioError):
        scenario("classical-sl2", weighted=True)


def test_constraints_idempotent_and_vanishing():
    for key in ("q-sl2", "classical-sl2"):
        cs = scenario(key).constraints
        assert cs.vanish_on_surface()


# ---------------------------------------------------------------------------
# the deformed constraint matrix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def q_matrix():
    return build_dirac_matrix(Reduction(scenario("q-sl2"), N))


def test_matrix_entry_values(q_matrix):
    # frozen by hand: D11(3) = -i([2]/2)[3], D12(0) = -i sqrt2 q, D22(0) = 0
    assert q_matrix.entry(0, 0).coeff(3) == -S_I * qint(2) * HALF * qint(3)
    assert q_matrix.entry(0, 1).coeff(0) == -S_I * S_T * Q(1)
    assert q_matrix.entry(1, 1).coeff(0) == S_ZERO
    # D21(n) = -D12(-n)
    for n in range(-N, N + 1):
        assert q_matrix.entry(1, 0).coeff(n) == -q_matrix.entry(0, 1).coeff(-n)


def test_diagonal_entries_antisymmetric(q_matrix):
    for i in (0, 1):
        D = q_matrix.entry(i, i)
        assert D.reflect() == -D


def test_matrix_determinant(q_matrix):
    # det M(0) = -2 q^2; det M(n) = -([2]^2/4) q^(2|n|) [2n]/[n]
    assert q_matrix.det(0) == Scalar.from_rat(-2) * Q(2)
    for n in (1, 2, 5):
        want = (Scalar.from_rat(Fraction(-1, 4)) * qint(2) * qint(2)
                * Q(2 * n) * qint(2 * n) / qint(n))
        assert q_matrix.det(n) == want
        assert q_matrix.det(-n) == want


def test_inverse_mode0_offdiagonal(q_matrix):
    dinv = invert(q_matrix)
    # by hand: inverse of ((0, -i sqrt2 q), (i sqrt2 q, 0)) with det -2q^2
    want01 = -S_I * S_T * HALF * Q(-1)       # -i/(sqrt2 q)
    assert dinv.entry(0, 0).coeff(0) == S_ZERO
    assert dinv.entry(1, 1).coeff(0) == S_ZERO
    assert dinv.entry(0, 1).coeff(0) == want01
    assert dinv.entry(1, 0).coeff(0) == -want01


def test_inverse_matches_printed_away_from_zero(q_matrix, closed):
    dinv = invert(q_matrix)
    printed = printed_inverse_patterns(closed)
    for (i, j), pat in printed.items():
        for n in range(-N, N + 1):
            if n == 0:
                continue
            assert dinv.entry(i, j).coeff(n) == pat.coeff(n), (i, j, n)
    # spot value: inv11 at n=1 is -2i(q-1/q)/[2]^2
    want = Scalar.from_rat(-2) * S_I * q_minus_qinv() / (qint(2) * qint(2))
    assert dinv.entry(0, 0).coeff(1) == want


def test_closed_forms_match_the_quotients_of_q_integers(closed):
    # the lowest-terms kernels equal the plain quotients of q-integers; the
    # n = 0 entries stay the documented 0
    def ratio(n, power):
        return qint(n) ** power / qint(2 * n) if n else S_ZERO

    for weight in (False, True):
        D = closed.quad_residual if weight else closed.quad
        for n in range(-N, N + 1):
            want = ratio(n, 2) * (Q(-2 * abs(n)) if weight else S_ONE)
            assert D.coeff(n) == want, (weight, n)
    printed = printed_inverse_patterns(closed)
    dq, two_i = q_minus_qinv(), Scalar.from_rat(2) * S_I
    for n in range(-N, N + 1):
        sign = Scalar.from_rat(1 if n > 0 else -1)
        inv11 = -(two_i * dq / qint(2)) * sign * ratio(n, 1)
        inv12 = -(two_i * S_T / qint(2)) * Scalar.s_power(-abs(n)) * ratio(n, 1)
        assert printed[0, 0].coeff(n) == inv11, n
        assert printed[0, 1].coeff(n) == inv12 and printed[1, 0].coeff(n) == -inv12, n
        assert printed[1, 1].coeff(n) == \
            ratio(n, 2) * Q(-2 * abs(n)) * two_i / qint(2), n
    assert all(printed[k].coeff(0) == S_ZERO for k in printed)


def test_pairing_identity_all_modes(q_matrix):
    dinv = invert(q_matrix)
    prod = matrix_pair(q_matrix, dinv)
    assert prod[0][0] == Dist2.delta(N)
    assert prod[1][1] == Dist2.delta(N)
    assert prod[0][1].is_zero()
    assert prod[1][0].is_zero()


def test_invert_involution(q_matrix):
    dinv = invert(q_matrix)
    assert invert(dinv) == q_matrix


def test_printed_inverse_fails_pairing_at_mode0(q_matrix, closed):
    # the printed inverse vanishes at n=0, so the pairing identity cannot
    # hold there; this is the documented discrepancy
    printed = printed_inverse_patterns(closed)
    pm = DiracMatrix(printed[(0, 0)], printed[(0, 1)], printed[(1, 0)], printed[(1, 1)])
    prod = matrix_pair(q_matrix, pm)
    assert prod[0][0].coeff(0) == S_ZERO != S_ONE
    assert prod[0][0].coeff(1) == S_ONE


def test_singular_matrix_raises():
    d = Dist2.delta(N)
    with pytest.raises(SingularModeError):
        invert(DiracMatrix(d, d, d, d))


def test_substitution_error_on_incomplete_surface():
    sc = scenario("q-sl2")
    broken = ConstraintSet(sc.constraints.symbols, sc.constraints.exprs,
                           {"E+": 1})  # Psi and Phi survive
    with pytest.raises(SubstitutionError):
        build_dirac_matrix(Reduction(Scenario(sc.key, sc.table, broken), N))


def test_classical_matrix_entries():
    dm = build_dirac_matrix(Reduction(scenario("classical-sl2"), N))
    for n in range(-N, N + 1):
        assert dm.entry(0, 0).coeff(n) == -S_I * Scalar.from_rat(n)
        assert dm.entry(0, 1).coeff(n) == -S_I * S_T
        assert dm.entry(1, 1).coeff(n) == S_ZERO
        assert dm.det(n) == Scalar.from_rat(-2)


# ---------------------------------------------------------------------------
# the reduced brackets
# ---------------------------------------------------------------------------

def _reduced(sc, n_max=N):
    """The reduced bracket of a fresh chain of ``sc`` as one TermSum."""
    chain = Reduction(sc, n_max)
    return reduce(chain, chain.inverse)


def test_classical_reduction_exact():
    parts = Reduction(scenario("classical-sl2"), N).contents
    for n in range(-N, N + 1):
        assert parts.lin_z.coeff(n) == -S_I * Scalar.from_rat(n)
        assert parts.lin_w.coeff(n) == -S_I * Scalar.from_rat(n)
        assert parts.cnum.coeff(n) == S_I * Scalar.from_rat(Fraction(n ** 3, 2))
    assert parts.quad.is_zero()


def test_q_reduction_contents():
    # frozen from the hand computation of the chain corrections
    parts = Reduction(scenario("q-sl2"), N).contents
    dq = q_minus_qinv()
    for n in range(-N, N + 1):
        if n == 0:
            assert parts.quad.coeff(0) == S_ZERO
            assert parts.lin_z.coeff(0) == S_ZERO
            assert parts.cnum.coeff(0) == S_ZERO
            continue
        wq = Q(-2 * abs(n))
        ratio = qint(n) * qint(n) / qint(2 * n)
        assert parts.quad.coeff(n) == -S_I * qint(2) * HALF * dq * dq * wq * ratio
        assert parts.lin_z.coeff(n) == Scalar.from_rat(-2) * S_I * wq * ratio
        assert parts.lin_w.coeff(n) == parts.lin_z.coeff(n)
        cn = (Scalar.from_rat(2) * S_I / qint(2)) * wq * qint(n) ** 4 / qint(2 * n)
        assert parts.cnum.coeff(n) == cn


def test_split_reduced_fills_each_field_and_rejects_other_terms():
    fz, fw = FieldFactor(CURRENT, "z"), FieldFactor(CURRENT, "w")
    d = {mono: Dist2.unit0(N, S_I * Scalar.from_rat(k))
         for k, mono in enumerate(((fw, fz), (fz,), (fw,), ()), 1)}
    parts = split_reduced(TermSum([(mono, 0, dist) for mono, dist in d.items()]), N)
    assert parts == ReducedContents(*d.values())
    # an absent term is a zero field of the window
    assert split_reduced(TermSum.single((fz,), d[(fz,)]), N) == ReducedContents(
        Dist2.zero(N), d[(fz,)], Dist2.zero(N), Dist2.zero(N))
    for bad in (TermSum.single((fz, fz), d[()]), TermSum.single((FieldFactor("E+", "z"),), d[()]),
                TermSum.single((), d[()], zdeg=1)):
        with pytest.raises(ValueError):
            split_reduced(bad, N)


def test_q_reduction_correction_structure():
    # the (2,2) chain is a pure c-number; (1,1) carries the quadratic monomial
    chain = Reduction(scenario("q-sl2"), N)
    dm = build_dirac_matrix(chain)
    dinv = invert(dm)
    e_chi1 = chain.on_surface("E-", "chi1")
    chi2_e = chain.on_surface("E+", "E-")
    (k1, d1), = e_chi1.terms.items()
    assert [f.symbol for f in k1[0]] == ["E-"]
    (k2, d2), = chi2_e.terms.items()
    assert k2[0] == ()


def test_affine_map_consistency(closed):
    amap = closed.amap
    assert amap.consistent()
    assert amap.a2 == q_minus_qinv() ** 4 * qint(2) * HALF
    assert amap.ab == Scalar.from_rat(2) * q_minus_qinv() ** 2
    assert amap.b2 == Scalar.from_rat(8) / qint(2)
    assert amap.a2.is_rational_sector()


def _with_map(B, amap):
    """A copy of the closed forms ``B`` with another affine map."""
    C = copy.copy(B)
    C.amap = amap
    return C


def test_affine_map_consistency_negative_controls(closed):
    amap = closed.amap
    two = Scalar.from_rat(2)
    # b^2 doubled breaks a^2 b^2 == (ab)^2 and the central content
    doubled = amap._replace(b2=two * amap.b2)
    assert not doubled.consistent()
    # ab negated keeps the identity; only the absorbed linear content catches it
    negated = amap._replace(ab=-amap.ab)
    assert negated.consistent()
    # both passes read the one q-sl2 chain, and each fails alike
    chain = Reduction(scenario("q-sl2"), N)
    for bad, want in ((doubled, {"affine-map-consistency", "reduce-central"}),
                      (negated, {"reduce-linear-cancellation"})):
        failed = {r.id for r in reduce_suite(chain, _with_map(closed, bad))
                  if r.status == FAIL}
        assert failed == {f"{name}[{tag}]" for name in want for tag in ("qdirb", "qvir")}
    assert not [r for r in reduce_suite(chain, closed) if r.status == FAIL]


def _reweighted(T):
    return T.map_dist(lambda d: weight_abs(d, dirac.WEIGHT_EXPONENT))


def test_weighted_reduction_is_weighted_unweighted():
    # every rule has z-degree 0 and the pairing is mode-diagonal, so the
    # chain of the table with q^(2|n|) folded into every rule reduces to the
    # plain reduced bracket reweighted, term for term, and so are its
    # contents: the [qvir] pass reweights the plain chain's contents
    for n_max in (1, 3, 6, 12):
        folded = _reduced(scenario("q-sl2", weighted=True), n_max)
        assert folded == _reweighted(_reduced(scenario("q-sl2"), n_max)), n_max
        assert Reduction(scenario("q-sl2", weighted=True), n_max).contents == ReducedContents(
            *(weight_abs(d, dirac.WEIGHT_EXPONENT)
              for d in Reduction(scenario("q-sl2"), n_max).contents)), n_max


@pytest.mark.parametrize("only", (True, False), ids=("only-E-E-", "all-but-E-E-"))
def test_weight_on_some_rules_breaks_the_reweighting_identity(only):
    # a weight folded into (E-, E-) alone weights the direct bracket but not
    # the chain correction, and the converse weights the correction alone
    sc = scenario("q-sl2")
    table = {pair: (lambda N, rule=rule: _reweighted(rule(N)))
             if (pair == (CURRENT, CURRENT)) == only else rule
             for pair, rule in sc.table.items()}
    partial = _reduced(Scenario(sc.key, table, sc.constraints))
    assert partial != _reweighted(_reduced(sc))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ("q-sl2", "classical-sl2"))
def test_dirac_suite(key, closed):
    all_pass(dirac_suite(Reduction(scenario(key), N), closed))


# the records of each q-sl2 pass; the zero mode is documented once, on [qdirb]
_QVIR_IDS = {"reduce-antisymmetry", "affine-map-consistency", "reduce-quadratic",
             "reduce-linear-cancellation", "reduce-central", "reduce-rational-sector"}
_PASS_IDS = {"qdirb": _QVIR_IDS | {"reduce-mode0"}, "qvir": _QVIR_IDS}


@pytest.mark.parametrize("key,weighted", (("q-sl2", False), ("q-sl2", True),
                                          ("classical-sl2", False)))
def test_reduce_suite(key, weighted, closed):
    # one q-sl2 chain gives both passes; ``weighted`` picks the [qvir] one
    records = reduce_suite(Reduction(scenario(key), N), closed)
    all_pass(records)
    if key == "q-sl2":
        tag = "qvir" if weighted else "qdirb"
        assert {r.id for r in records if r.id.endswith(f"[{tag}]")} == \
            {f"{name}[{tag}]" for name in _PASS_IDS[tag]}


def test_mode0_documented_records(closed):
    chain = Reduction(scenario("q-sl2"), N)
    recs = dirac_suite(chain, closed) + reduce_suite(chain, closed)
    docs = [r for r in recs if r.status == DOCUMENTED]
    assert sorted(r.id for r in docs) == ["dirac-inverse-mode0", "reduce-mode0[qdirb]"]
    for r in docs:
        assert r.engine_value and r.expected_value


def test_constraints_check_fails_off_the_surface(closed):
    # sending E+ to 0 leaves chi2 = E+ - 1 at -1 on the "surface"; chi1's own
    # matrix entry reads only Psi and Phi and still matches
    sc = scenario("q-sl2")
    c = sc.constraints
    off = ConstraintSet(c.symbols, c.exprs, {"Psi": 1, "Phi": 1, "E+": 0})
    status = {r.id: r.status for r in dirac_suite(Reduction(
        Scenario(sc.key, sc.table, off), N), closed)}
    assert status["constraints-idempotent"] == FAIL
    assert status["dirac-matrix-11"] == PASS


# the unit i^(p>>1)*t^(p&1) of each grade p
UNITS = (S_ONE, S_T, S_I, S_I * S_T)


def _grade(values):
    """The grade of the first of the values, which all share it."""
    return next(iter(values)).p


def _perturbed(dm, i, j, n):
    """dm with entry (i, j) shifted at mode n by a unit of the entry's grade.

    A zero entry takes the grade its row and column give it, the XOR of the
    other three entries' grades, so the perturbed matrix still multiplies.
    """
    e = [[dm.entry(a, b) for b in (0, 1)] for a in (0, 1)]
    D = e[i][j]
    if D.c:
        p = _grade(D.c.values())
    else:
        p = (_grade(e[i][1 - j].c.values()) ^ _grade(e[1 - i][1 - j].c.values())
             ^ _grade(e[1 - i][j].c.values()))
    e[i][j] = Dist2(D.N, {**D.c, n: D.coeff(n) + UNITS[p]})
    return DiracMatrix(e[0][0], e[0][1], e[1][0], e[1][1])


def test_involution_check_inverts_the_inverse_again(monkeypatch, closed):
    # the shared inverse is the first invert call; the involution check must
    # make a second one and compare it with the matrix
    real_invert, calls = dirac.invert, []

    def second_call_perturbed(dm):
        calls.append(dm)
        dinv = real_invert(dm)
        return _perturbed(dinv, 0, 1, 1) if len(calls) == 2 else dinv

    monkeypatch.setattr(dirac, "invert", second_call_perturbed)
    status = {r.id: r.status for r in dirac_suite(Reduction(scenario("q-sl2"), N), closed)}
    assert len(calls) == 2
    assert status["dirac-pairing-identity"] == PASS
    assert status["dirac-invert-involution"] == FAIL


def test_pairing_identity_reads_the_shared_inverse(closed):
    chain = Reduction(scenario("q-sl2"), N)
    chain.inverse = _perturbed(chain.inverse, 1, 1, 2)
    status = {r.id: r.status for r in dirac_suite(chain, closed)}
    assert status["dirac-pairing-identity"] == FAIL


def test_dirac_matrix_21_reads_its_own_bracket(monkeypatch, closed):
    # every matrix entry is read from the table: a perturbed on-surface
    # {E+, chi1} fails the 21 record alone, not a reflection of the 12 entry
    chain = Reduction(scenario("q-sl2"), N)
    on_surface = chain.on_surface

    def perturbed(a, b):
        T = on_surface(a, b)
        return T + T if (a, b) == ("E+", "chi1") else T

    monkeypatch.setattr(chain, "on_surface", perturbed)
    status = {r.id: r.status for r in dirac_suite(chain, closed)}
    assert [status[f"dirac-matrix-{ij}"] for ij in ("11", "12", "21", "22")] == \
        [PASS, PASS, FAIL, PASS]


# i at every mode is an even part of any of the reduced bracket's fields, all
# of whose values are imaginary; in lin_w it breaks lin_w == -reflect(lin_z)
@pytest.mark.parametrize("key,tag,field", [
    pytest.param(key, tag, field, id=f"{key}-{tag}" + ("" if field == "cnum" else f"-{field}"))
    for field in ("cnum", "quad", "lin_w")
    for key, tag in (("q-sl2", "[qdirb]"), ("q-sl2", "[qvir]"), ("classical-sl2", ""))])
def test_antisymmetry_check_fails_on_symmetric_part(key, tag, field, closed):
    chain = Reduction(scenario(key), N)
    parts = chain.contents
    even = Dist2.from_func(N, lambda n: S_I)
    chain.contents = parts._replace(**{field: getattr(parts, field) + even})
    status = {r.id: r.status for r in reduce_suite(chain, closed)}
    assert status[f"reduce-antisymmetry{tag}"] == FAIL


def _antisymmetric_reference(T):
    """reflect(T) == -T for a reduced bracket as one TermSum."""
    return (T.reflect() + T).is_zero()


def test_contents_antisymmetry_agrees_with_the_termsum_reference():
    # an even (i) or odd (i n) part on each monomial of the reduced bracket,
    # alone, and the odd part on both linear monomials together, on both
    # chains' brackets and the [qvir] reweighting of the q one
    fz, fw = FieldFactor(CURRENT, "z"), FieldFactor(CURRENT, "w")
    even = Dist2.from_func(N, lambda n: S_I)
    odd = Dist2.from_func(N, lambda n: S_I * Scalar.from_rat(n))
    perturbations = [TermSum()] + [TermSum.single(mono, d) for d in (even, odd)
                                   for mono in ((fz, fw), (fz,), (fw,), ())]
    perturbations.append(TermSum([((fz,), 0, odd), ((fw,), 0, odd)]))
    q = _reduced(scenario("q-sl2"))
    verdicts = []
    for T in (q, _reweighted(q), _reduced(scenario("classical-sl2"))):
        for P in perturbations:
            want = _antisymmetric_reference(T + P)
            assert is_antisymmetric(split_reduced(T + P, N)) == want, (T, P)
            verdicts.append(want)
    assert verdicts.count(True) == 3 * 4 and verdicts.count(False) == 3 * 6


def test_reduction_computes_each_stage_once(monkeypatch):
    counts = {"build_dirac_matrix": 0, "invert": 0, "reduce": 0}
    for name in counts:
        def counted(*args, _fn=getattr(dirac, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dirac, name, counted)
    # the matrix and the inverse are read first, as the dirac suite does
    # before the reduce suite; the chain drops both once it has its contents
    chain = Reduction(scenario("classical-sl2"), N)
    assert chain.matrix is chain.matrix and chain.inverse is chain.inverse
    assert chain.contents is chain.contents
    assert "matrix" not in vars(chain) and "inverse" not in vars(chain)
    assert not hasattr(chain, "reduced")
    assert counts == {"build_dirac_matrix": 1, "invert": 1, "reduce": 1}
    fresh = Reduction(chain.scenario, N)
    dinv = invert(build_dirac_matrix(fresh))
    assert chain.contents == split_reduced(reduce(fresh, dinv), N)


def test_chain_builds_each_on_surface_bracket_once(monkeypatch):
    # the degeneration check, the matrix and the reduction share a chain's
    # brackets; the store fills with all 9 symbol pairs, each built once,
    # and it is emptied once the contents exist
    built = []

    def counted(a, b, table, N, _fn=classical_bracket):
        built.append((id(table), a, b))
        return _fn(a, b, table, N)

    monkeypatch.setattr(dirac, "classical_bracket", counted)
    q_chain = Reduction(scenario("q-sl2"), N)
    classical_chain = Reduction(scenario("classical-sl2"), N)
    assert q_chain.on_surface("E-", "chi1") is q_chain.on_surface("E-", "chi1")
    all_pass(verify_table_degeneration(q_chain, classical_chain))
    q_chain.matrix
    assert len(q_chain._brackets) == 7     # the matrix adds (E+, chi1)
    q_chain.contents
    classical_chain.contents
    assert len(built) == len(set(built)) == 18
    assert not q_chain._brackets and not classical_chain._brackets
    # a bracket asked for after the reduction is rebuilt, not stored again
    q_chain.on_surface("E-", "chi1")
    assert built.count((id(q_chain.scenario.table), "E-", "chi1")) == 2
    assert not q_chain._brackets


def _casimir_brackets(chain, dinv):
    """{chi_k, E-}_D and {E-, chi_k}_D for both constraints of the chain."""
    return [dirac_bracket(chain, a, b, dinv)
            for c in chain.scenario.constraints.symbols
            for a, b in ((c, CURRENT), (CURRENT, c))]


@pytest.mark.parametrize("key", ("q-sl2", "classical-sl2"))
def test_constraints_are_casimirs_of_the_dirac_bracket(key):
    # a second-class constraint has a zero Dirac bracket with anything, at
    # every mode, mode 0 included
    chain = Reduction(scenario(key), N)
    dinv = chain.inverse
    assert all(T.is_zero() for T in _casimir_brackets(chain, dinv))
    # so the identity tests the chain's assembly, which the pairing identity
    # cannot see: the inverse's index order and each of its entries
    transposed = DiracMatrix(dinv.d11, dinv.d21, dinv.d12, dinv.d22)
    for bad in (transposed, _perturbed(dinv, 0, 0, 3)):
        assert not any(T.is_zero() for T in _casimir_brackets(chain, bad))


def _jacobi_defects(f, g, K):
    """The triples |a|, |b|, |c| <= K at which a bracket
    {T(z), T(w)} = f(w/z) T(z)T(w) + g(w/z), its kernels odd and given as
    {mode: value} in the orientation of Dist2, breaks the Jacobi identity.

    With T(z) = sum_m T_m z^(-m) the modes obey
    {T_a, T_b} = sum_n f_n T_(a-n) T_(b+n) + g_a delta_(a+b,0).  The cubic
    terms of the cyclic sum cancel because f is odd.  In {T_a, {T_b, T_c}}
    the linear terms come from the central part of {T_a, T_(b-n)} at
    n = a+b and of {T_a, T_(c+n)} at n = -a-c, which gives
    g_a (f_(a+b) - f_(a+c)) T_(a+b+c); their cyclic sum is J(a, b, c) T_(a+b+c).
    """
    def J(a, b, c):
        return (g[a] * (f[a + b] - f[a + c]) + g[b] * (f[b + c] - f[b + a])
                + g[c] * (f[c + a] - f[c + b]))

    r = range(-K, K + 1)
    return [(a, b, c) for a in r for b in r for c in r if not J(a, b, c).is_zero()]


def test_deformed_reduced_bracket_obeys_jacobi():
    # T = a E- + b turns the reduced bracket's contents into quad T(z)T(w)
    # plus the central a^2 cnum - b^2 quad (the linear content cancels, as
    # reduce-linear-cancellation checks); J is bilinear in (g, f), so the
    # overall factors kappa drop out.  Every pair sum stays in the window.
    chain = Reduction(scenario("q-sl2"), N)
    amap = QVirasoroBracket(N).amap
    K = N // 2

    def kernels(parts):
        f = {n: parts.quad.coeff(n) for n in range(-N, N + 1)}
        g = {n: amap.a2 * parts.cnum.coeff(n) - amap.b2 * f[n] for n in range(-N, N + 1)}
        return f, g

    f, g = kernels(dirac.ReducedContents(
        *(weight_abs(d, dirac.WEIGHT_EXPONENT) for d in chain.contents)))
    assert _jacobi_defects(f, g, K) == []
    # negative controls: the residual-weight [qdirb] bracket, a nonzero f_0
    # (the values are imaginary) and a perturbed central kernel
    for bad_f, bad_g in (kernels(chain.contents), (f | {0: f[0] + S_I}, g),
                         (f, g | {3: g[3] + S_I})):
        assert _jacobi_defects(bad_f, bad_g, K)


def test_table_degeneration_to_undeformed():
    all_pass(verify_table_degeneration(Reduction(scenario("q-sl2"), N),
                                       Reduction(scenario("classical-sl2"), N)))


_Q_TABLE_RECORDS = {
    ("chi1", "chi1"): "degeneration-chi1,chi1",
    ("chi1", "E+"): "degeneration-chi1,E+",
    ("E+", "E+"): "degeneration-E+,E+",
    ("chi1", "E-"): "degeneration-E-,chi1",
    ("E+", "E-"): "degeneration-E-,E+",
    ("E-", "E-"): "degeneration-E-,E-",
}


@pytest.mark.parametrize("pair", sorted(_Q_TABLE_RECORDS))
def test_table_degeneration_negative_controls(pair):
    # one unit of the rule's grade at mode 0 added to one q-table rule
    # fails its record alone
    sc = scenario("q-sl2")
    table = dict(sc.table)
    rule = table[pair]

    def perturbed(N):
        T = rule(N)
        unit = UNITS[_grade(v for d in T.terms.values() for v in d.c.values())]
        return T + TermSum.single((), Dist2.unit0(N, unit))

    table[pair] = perturbed
    records = verify_table_degeneration(
        Reduction(Scenario(sc.key, table, sc.constraints), N),
        Reduction(scenario("classical-sl2"), N))
    failed = [(r.id, r.mode) for r in records if r.status == FAIL]
    assert failed == [(_Q_TABLE_RECORDS[pair], 0)]


def test_affine_check_detects_wrong_bracket(closed):
    parts = Reduction(scenario("q-sl2"), N).contents
    broken = ReducedContents(*(d.scale(Scalar.from_rat(2)) for d in parts))
    recs = affine_check(broken, closed, weighted=False)
    assert any(r.status == FAIL for r in recs)
