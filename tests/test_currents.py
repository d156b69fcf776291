"""Derived commutators vs their printed forms, bracket tables, mode algebra."""

from fractions import Fraction

import pytest

from qvir.qcoeff import S_I, S_ONE, S_T, S_ZERO, Scalar, q_minus_qinv, qint
from qvir.distcalc import Dist2
from qvir.currents import (
    FieldFactor,
    KacMoodyLevel,
    MissingPairError,
    TermSum,
    classical_bracket,
    classical_bracket_table,
    field_commutator,
    modes_from_ope,
    opposite_charge_bracket,
    printed_chi_e_bracket,
    printed_ee_same_bracket,
    printed_pair_exchange_bracket,
    q_bracket_table,
    verify_commutators,
    verify_serre_mode_equivalence,
)
from qvir import currents
from qvir.dirac import scenario
from qvir.report import FAIL, PASS
from qvir.vertexcalc import self_exchange_kernel, standard_fields

N = 8
Q = Scalar.q_power
SP = Scalar.s_power
HALF = Scalar.from_rat(Fraction(1, 2))


def all_pass(records):
    bad = [r for r in records if r.status == FAIL]
    assert not bad, "\n".join(
        f"{r.id} mode={r.mode}: {r.engine_value} != {r.expected_value}" for r in bad)


# ---------------------------------------------------------------------------
# TermSum mechanics
# ---------------------------------------------------------------------------

def test_field_factors_sort_and_hash_by_symbol_var_shift():
    factors = [FieldFactor("Psi", "w"), FieldFactor("E-", "z", -1), FieldFactor("E-", "w", 1),
               FieldFactor("E-", "w"), FieldFactor("E+", "z", 2)]
    assert [(f.symbol, f.var, f.shift) for f in sorted(factors)] == [
        ("E+", "z", 2), ("E-", "w", 0), ("E-", "w", 1), ("E-", "z", -1), ("Psi", "w", 0)]
    assert FieldFactor("E-", "z") == FieldFactor("E-", "z", 0) != FieldFactor("E-", "w")
    assert {FieldFactor("E-", "z"): 1}[FieldFactor("E-", "z", 0)] == 1


def test_termsum_merges_like_monomials():
    d1 = Dist2.from_func(N, lambda n: qint(n))
    d2 = Dist2.from_func(N, lambda n: -qint(n))
    mono = (FieldFactor("E-", "z"), FieldFactor("E-", "w"))
    T = TermSum([(mono, 0, d1), (tuple(reversed(mono)), 0, d2)])
    assert T.is_zero()


def test_termsum_sub_subtracts_per_term_without_negating(monkeypatch):
    # shared, own and cancelling terms: a - b equals a + (-b), built without
    # a negated copy of b
    mono = (FieldFactor("E-", "z"), FieldFactor("E-", "w"))
    other = (FieldFactor("Psi", "z"), FieldFactor("Phi", "w"))
    d1 = Dist2.from_func(N, lambda n: qint(n))
    d2 = Dist2.from_func(N, lambda n: Q(n) + HALF)
    a = TermSum([(mono, 0, d1), (other, 1, d2)])
    b = TermSum([(tuple(reversed(mono)), 0, d2), (other, 1, d2), (other, 0, d1)])
    want = a + (-b)
    negations = []
    neg = Scalar.__neg__
    monkeypatch.setattr(Scalar, "__neg__", lambda x: negations.append(x) or neg(x))
    got = a - b
    assert negations == []
    assert got == want and (tuple(sorted(other)), 1) not in got.terms
    assert (a - a).is_zero() and a - TermSum.zero() == a


def test_termsum_reflect_is_involution():
    mono = (FieldFactor("Psi", "z"), FieldFactor("Phi", "w"))
    T = TermSum.single(mono, Dist2.from_func(N, lambda n: Q(n)))
    assert T.reflect().reflect() == T


def test_termsum_substitute():
    T = TermSum.single((FieldFactor("Psi", "z"), FieldFactor("E-", "w")),
                       Dist2.delta(N))
    S = T.substitute({"Psi": 1, "Phi": 1, "E+": 1})
    assert list(S.terms) == [((FieldFactor("E-", "w"),), 0)]
    assert T.substitute({"E-": 0}).is_zero()


# ---------------------------------------------------------------------------
# derived vs printed commutators
# ---------------------------------------------------------------------------

def test_commutator_suite_passes():
    all_pass(verify_commutators(N))


def test_commutator_antisymmetry():
    records = [r for r in verify_commutators(N) if r.id.startswith("antisymmetry-")]
    assert len(records) == 4
    all_pass(records)


def test_commutator_stage_derives_each_pair_once(monkeypatch):
    # the eva and antisymmetry records read one commutator per ordered pair
    calls = []
    derive = currents.field_commutator
    monkeypatch.setattr(currents, "field_commutator",
                        lambda A, B, N: calls.append((A.name, B.name)) or derive(A, B, N))
    records = verify_commutators(N)
    assert len(calls) == 12 and len(set(calls)) == 12
    assert [r.id for r in records] == [
        "commutator-constraint-pair", "commutator-constraint-step+",
        "commutator-constraint-step-", "commutator-step-same+", "commutator-step-same-",
        "antisymmetry-constraint-pair", "antisymmetry-step-same+",
        "antisymmetry-step-same-", "antisymmetry-mixed"]


def test_perturbed_commutator_fails_its_eva_and_antisymmetry_records(monkeypatch):
    # a reflection-symmetric extra term on [E+(z), E+(w)] (delta-supported,
    # so rho(S) = S) breaks both the printed form and rho(T) = -T
    derive = currents.field_commutator
    mono = (FieldFactor("E+", "z"), FieldFactor("E+", "w"))

    def perturbed(A, B, pad):
        T = derive(A, B, pad)
        if A.name == B.name == "E+":
            T = T + TermSum.single(mono, Dist2.delta(pad))
        return T

    monkeypatch.setattr(currents, "field_commutator", perturbed)
    status = {r.id: r.status for r in verify_commutators(N)}
    assert status.pop("commutator-step-same+") == FAIL
    assert status.pop("antisymmetry-step-same+") == FAIL
    assert set(status.values()) == {PASS}


def test_constraint_pair_bracket_values():
    # the positive-mode half carries ([2]/2)[n] on the (Psi@z, Phi@w) monomial
    T = printed_pair_exchange_bracket(N)
    key = ((FieldFactor("Phi", "w"), FieldFactor("Psi", "z")), 0)
    assert key in T.terms
    d = T.terms[key]
    for n in range(1, N + 1):
        assert d.coeff(n) == qint(2) * HALF * qint(n)
        assert d.coeff(-n) == S_ZERO


def test_derived_ee_same_collapses_to_polynomial():
    # [E^+(z), E^+(w)] resummed equals (1 - q^-2)(z^2 - w^2) :E E:
    F = standard_fields()
    T = field_commutator(F["E+"], F["E+"], N + 4).truncate(N)
    assert len(T.terms) == 1
    (key, dist), = T.terms.items()
    assert key[1] == 2
    c = S_ONE - Q(-2)
    want = Dist2(N, {0: c, 2: -c})
    assert dist == want


# ---------------------------------------------------------------------------
# bracket tables
# ---------------------------------------------------------------------------

def products(terms):
    """Ordered-product terms read as commuting products at z-degree 0."""
    return TermSum([(mono, 0, d) for mono, d in terms])


def test_q_table_rules_are_printed_forms_times_sigma():
    # sigma: +i for an equal step-operator pair, -i for every other pair
    printed = {
        ("chi1", "chi1"): (-S_I, printed_pair_exchange_bracket(N)),
        ("chi1", "E+"): (-S_I, products(printed_chi_e_bracket(+1, N))),
        ("chi1", "E-"): (-S_I, products(printed_chi_e_bracket(-1, N))),
        ("E+", "E+"): (S_I, products(printed_ee_same_bracket(+1, N))),
        ("E-", "E-"): (S_I, products(printed_ee_same_bracket(-1, N))),
        ("E+", "E-"): (-S_I, opposite_charge_bracket(N)),
    }
    table = q_bracket_table()
    assert sorted(table) == sorted(printed)
    for pair, (sigma, form) in printed.items():
        assert table[pair](N) == form.scale(sigma), pair


def test_missing_pair_raises():
    with pytest.raises(MissingPairError):
        classical_bracket("chi1", "H", q_bracket_table(), N)


def test_classical_bracket_antisymmetry():
    table = q_bracket_table()
    for a, b in sorted(table):
        ab = classical_bracket(a, b, table, N)
        ba = classical_bracket(b, a, table, N)
        assert ab == -(ba.reflect()), (a, b)


def test_classical_table_brackets_are_not_scaled_by_sigma(monkeypatch):
    # sigma is 1 on the undeformed table, so no bracket rescales its modes
    table = classical_bracket_table()
    calls = []
    scale = Dist2.scale

    def counted(self, a):
        calls.append(a)
        return scale(self, a)

    monkeypatch.setattr(Dist2, "scale", counted)
    for a, b in sorted(table):
        classical_bracket(a, b, table, N)
        classical_bracket(b, a, table, N)
    assert calls == []


def test_q_table_brackets_still_carry_sigma():
    table = q_bracket_table()
    plain = products(printed_ee_same_bracket(+1, N))
    T = classical_bracket("E+", "E+", table, N)
    assert T == plain.scale(S_I) and T != plain
    # a reflected lookup carries the same sigma
    plain = products(printed_chi_e_bracket(-1, N))
    T = classical_bracket("E-", "chi1", table, N)
    assert T == -(plain.scale(-S_I).reflect()) and T != -(plain.reflect())


def test_step_same_bracket_merged():
    # {E-, E-}: one commutative monomial, odd q^(-2|n|)-weighted distribution
    T = classical_bracket("E-", "E-", q_bracket_table(), N)
    assert len(T.terms) == 1
    (key, d), = T.terms.items()
    assert key == (((FieldFactor("E-", "w"), FieldFactor("E-", "z"))), 0) or \
           key == (((FieldFactor("E-", "z"), FieldFactor("E-", "w"))), 0)
    pref = -S_I * qint(2) * HALF * q_minus_qinv()
    assert d.coeff(0) == S_ZERO
    for n in range(1, N + 1):
        assert d.coeff(n) == pref * Q(-2 * n)
        assert d.coeff(-n) == -(pref * Q(-2 * n))


def test_classical_table_hh():
    # undeformed, at level 1: {H(z), H(w)} = -i sum n x^n
    T = classical_bracket("H", "H", classical_bracket_table(), N)
    d = T.field_free_dist()
    for n in range(-N, N + 1):
        assert d.coeff(n) == -S_I * Scalar.from_rat(n)


def test_classical_table_he_field_at_second_slot():
    T = classical_bracket("H", "E+", classical_bracket_table(), N)
    (key, d), = T.terms.items()
    assert key == ((FieldFactor("E+", "w"),), 0)
    for n in range(-N, N + 1):
        assert d.coeff(n) == -S_I * S_T


def test_weighted_table():
    # every bracket of the weighted scenario, in both orientations, is the
    # unweighted one with its mode n times q^(2|n|)
    weighted = scenario("q-sl2", weighted=True).table
    plain = q_bracket_table()
    assert sorted(weighted) == sorted(plain)
    for a, b in sorted(plain):
        for x, y in ((a, b), (b, a)):
            T = classical_bracket(x, y, weighted, N)
            base = classical_bracket(x, y, plain, N)
            assert T == base.map_dist(
                lambda d: Dist2.from_func(N, lambda n: Q(2 * abs(n)) * d.coeff(n))), (x, y)


def test_opposite_charge_bracket_on_surface():
    # with the step operators erased the delta pair collapses to -+[n]
    T = opposite_charge_bracket(N).substitute({"Psi": 1, "Phi": 1})
    d = T.field_free_dist()
    for n in range(-N, N + 1):
        assert d.coeff(n) == qint(n)


# ---------------------------------------------------------------------------
# mode algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", (1, 2, 3))
def test_modes_from_ope(k):
    all_pass(modes_from_ope(KacMoodyLevel(k), N))


def test_perturbed_ee_mode_relation_fails_at_its_pair(monkeypatch):
    # one unit added to [E+_2, E-_-3] at level 1 fails modes-ee-k1 alone, and
    # the record names that pair and both coefficient sets there
    ee = KacMoodyLevel.ee

    def perturbed(self, n, m):
        out = ee(self, n, m)
        if (self.k, n, m) == (1, 2, -3):
            out[("Psi", -1)] = out[("Psi", -1)] + S_ONE
        return out

    monkeypatch.setattr(KacMoodyLevel, "ee", perturbed)
    records = modes_from_ope(KacMoodyLevel(1), N)
    failed = [r for r in records if r.status == FAIL]
    assert [(r.id, r.mode) for r in failed] == [("modes-ee-k1", [2, -3])]
    assert failed[0].engine_value == \
        "('Phi', -1): -s^-3/(s^4 - 1); ('Psi', -1): s^7/(s^4 - 1)"
    assert failed[0].expected_value == \
        "('Phi', -1): -s^-3/(s^4 - 1); ('Psi', -1): (s^7 + s^4 - 1)/(s^4 - 1)"
    all_pass(modes_from_ope(KacMoodyLevel(2), N))


def test_hh_mode_value_k2():
    level = KacMoodyLevel(2)
    n = 3
    assert level.hh(n) == qint(2 * n) * qint(2 * n) / Scalar.from_rat(2 * n)


def test_serre_mode_equivalence():
    all_pass(verify_serre_mode_equivalence(N))


def test_serre_mode_multiplication_count(monkeypatch):
    # the cleared kernel and -q^(+-2) are formed once per charge, so with the
    # contraction memo warm the product count does not grow with the window
    all_pass(verify_serre_mode_equivalence(1))
    calls = []
    mul = Scalar.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    counts = []
    for N in (6, 12):
        calls.clear()
        all_pass(verify_serre_mode_equivalence(N))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_serre_mode_fails_with_the_opposite_self_exchange_kernel(monkeypatch):
    # the mode relation is read from the engine's kernel, so the kernel of
    # the opposite charge must fail both records
    monkeypatch.setattr(currents, "exchange_kernel",
                        lambda A, B: self_exchange_kernel(-1 if A.name == "E+" else +1))
    records = verify_serre_mode_equivalence(N)
    assert [(r.id, r.status) for r in records] == [("serre-mode+", FAIL),
                                                    ("serre-mode-", FAIL)]
    # each names the first pair of the loop order, with the words there
    assert [r.mode for r in records] == [[-N, -N]] * 2
    assert records[0].engine_value == "(-8, -7): -2*s^-4; (-7, -8): 2"
    assert records[0].expected_value == "(-8, -7): -2*s^4; (-7, -8): 2"
