"""Contractions, exchange relations, fusion, and the opposite-charge OPE."""

from fractions import Fraction

import pytest

from qvir import vertexcalc as vc
from qvir.qcoeff import S_ONE, S_T, S_ZERO, Scalar, q_minus_qinv, qint
from qvir.distcalc import Dist2, RatKernel, expand_inner, region_difference
from qvir.vertexcalc import (
    ExpField,
    ModeTerm,
    ReconstructionError,
    contract,
    contraction_kernel,
    exchange_kernel,
    exchange_suite,
    fuse,
    h_e_commutator_dist,
    oscillator_norm,
    standard_fields,
    verify_ee_ope,
    verify_exchange,
)
from qvir.report import FAIL

N = 10
F = standard_fields()
Q = Scalar.q_power
SP = Scalar.s_power


def spow(k):
    return Scalar.s_power(k)


def all_pass(records):
    bad = [r for r in records if r.status == FAIL]
    assert not bad, "\n".join(f"{r.id} mode={r.mode}: {r.engine_value} != {r.expected_value}" for r in bad)


# ---------------------------------------------------------------------------
# exchange kernels as exact rational data
# ---------------------------------------------------------------------------

def kernel_step_pair():
    # (1 - q^3 x)(1 - q^-3 x) / ((1 - q x)(1 - q^-1 x))
    return RatKernel.from_linear_factors(S_ONE, 0, [Q(3), Q(-3)], [Q(1), Q(-1)])


def kernel_step_vertex(sign):
    # q^(2 sign) (1 - q^(-5 sign/2) x) / (1 - q^(3 sign/2) x)
    return RatKernel.from_linear_factors(Q(2 * sign), 0, [SP(-5 * sign)], [SP(3 * sign)])


def kernel_self_exchange(sign):
    # q^(2 sign) (1 - q^(-2 sign) x) / (1 - q^(2 sign) x)
    return RatKernel.from_linear_factors(Q(2 * sign), 0, [Q(-2 * sign)], [Q(2 * sign)])


# ---------------------------------------------------------------------------
# the mode-by-mode oracle: exp of the log series, one mode product at a time
# ---------------------------------------------------------------------------

def exp_series(L: Dist2) -> Dist2:
    """exp of a series supported on n >= 1, holding exp(0) = 1 at the origin:
    n E_n = sum_k k L_k E_(n-k)."""
    assert all(n >= 1 for n in L.c)
    out = {0: S_ONE}
    for n in range(1, L.N + 1):
        acc = S_ZERO
        for k in range(1, n + 1):
            if k in L.c and n - k in out:
                acc = acc + Scalar.from_rat(k) * L.c[k] * out[n - k]
        if not acc.is_zero():
            out[n] = acc * Scalar.from_rat(Fraction(1, n))
    return Dist2(L.N, out)


def contraction_series(A, B, N):
    """exp(sum_n A.mode(n) B.mode(-n) [2n][n]/(2n) x^n) on the window."""
    log = {n: A.mode(n) * B.mode(-n) * oscillator_norm(n) for n in range(1, N + 1)}
    return exp_series(Dist2(N, log))


def test_exp_series_geometric():
    # exp(sum x^n/n) = 1/(1-x)
    log = Dist2(N, {n: Scalar.from_rat(Fraction(1, n)) for n in range(1, N + 1)})
    E = exp_series(log)
    for n in range(0, N + 1):
        assert E.coeff(n) == S_ONE


@pytest.mark.parametrize("a", ("E+", "E-", "Psi", "Phi"))
@pytest.mark.parametrize("b", ("E+", "E-", "Psi", "Phi"))
def test_contraction_product_matches_mode_products(a, b):
    kernel = contraction_kernel(F[a], F[b]).kernel
    assert expand_inner(kernel, N) == contraction_series(F[a], F[b], N)


def test_mode_oracle_tells_the_charges_apart():
    kernel = contraction_kernel(F["E+"], F["E+"]).kernel
    assert expand_inner(kernel, N) != contraction_series(F["E+"], F["E-"], N)


def half_psi():
    psi = F["Psi"]
    (term,) = psi.pos
    half = ModeTerm(term.coef * Scalar.from_rat(Fraction(1, 2)), term.spow, term.over_qint)
    return ExpField(psi.name, psi.qt, psi.lnv, psi.qpow, (half,), psi.neg)


def test_non_integer_multiplicity_is_a_typed_error():
    # Psi/2 against Phi: the s^(+-6) multiplicities become -1/2
    with pytest.raises(ReconstructionError, match=r"-1/2 at s\^-6 "):
        contract(half_psi(), F["Phi"])


def test_non_integer_multiplicity_fails_the_exchange_check(monkeypatch):
    monkeypatch.setattr(vc, "_CONTRACTION_MEMO", {})
    records = verify_exchange(half_psi(), F["Phi"], kernel_step_pair(), N, "ope1", "x")
    assert [(r.id, r.status) for r in records] == [("x-kernel", FAIL), ("x-window", FAIL)]
    for r in records:
        assert r.engine_value.startswith("error: not an integer product")


def test_underivable_exchange_kernel_keeps_the_passing_ids(monkeypatch):
    # a kernel that cannot be derived fails its two records under their own ids
    n_max = 6
    passing = [r.id for r in exchange_suite(n_max)]

    def fails_for_psi_phi(A, B, _real=exchange_kernel):
        if (A.name, B.name) == ("Psi", "Phi"):
            raise ReconstructionError("not an integer product")
        return _real(A, B)

    monkeypatch.setattr(vc, "exchange_kernel", fails_for_psi_phi)
    records = exchange_suite(n_max)
    assert len(passing) == 18
    assert [r.id for r in records] == passing
    assert [r.id for r in records if r.status == FAIL] == \
        ["exchange-psi-phi-kernel", "exchange-psi-phi-window"]


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def test_oscillator_norm_is_ope_entry():
    for n in range(1, N + 1):
        assert oscillator_norm(n) == qint(2 * n) * qint(n) / Scalar.from_rat(2 * n)


def test_module_caches_are_bounded():
    for cached in (qint, oscillator_norm):
        assert cached.cache_info().maxsize is not None, cached.__name__


def test_contract_psi_psi_trivial():
    L = contract(F["Psi"], F["Psi"])
    assert L.kernel.roots == {}
    assert L.const == S_ONE
    assert L.zdeg == 0


def test_contract_psi_eplus_prefactor():
    L = contract(F["Psi"], F["E+"])
    assert L.const == Q(2)
    assert L.zdeg == 0


def test_contract_regular_orders():
    # all of these orderings have no oscillator contraction at all
    for a, b, const in (
        ("Phi", "Psi", S_ONE),    # creation-only then annihilation-only
        ("E+", "Psi", S_ONE),
        ("E-", "Psi", S_ONE),
        ("Phi", "E+", Q(-2)),     # zero-mode factor only
        ("Phi", "E-", Q(2)),
    ):
        L = contract(F[a], F[b])
        assert L.kernel.roots == {}, (a, b)
        assert L.const == const, (a, b)
        assert L.zdeg == 0


def test_contract_ee_opposite_kernel():
    # E^+(z)E^-(w) contracts to z^-2 / ((1-qx)(1-x/q))
    data = contraction_kernel(F["E+"], F["E-"])
    assert contract(F["E+"], F["E-"]).kernel.roots == {Q(1): 1, Q(-1): 1}
    assert data.const == S_ONE
    assert data.zdeg == -2
    assert data.kernel == RatKernel.from_linear_factors(S_ONE, 0, [], [Q(1), Q(-1)])


def test_contraction_memo_is_keyed_by_field_data(monkeypatch):
    # a field that only borrows a standard name gets its own contraction
    monkeypatch.setattr(vc, "_CONTRACTION_MEMO", {})
    real = contraction_kernel(F["E+"], F["E-"])
    psi = F["Psi"]
    impostor = ExpField("E-", psi.qt, psi.lnv, psi.qpow, psi.pos, psi.neg)
    got = contraction_kernel(F["E+"], impostor)
    assert got != real
    assert got.zdeg == contract(F["E+"], F["Psi"]).zdeg == 0
    assert got.kernel == RatKernel.const(S_ONE)
    assert len(vc._CONTRACTION_MEMO) == 2


def test_exp_field_equality_ignores_the_name():
    A = F["E+"]

    def copied(terms):
        return tuple(ModeTerm(t.coef * S_ONE, t.spow, t.over_qint) for t in terms)

    renamed = ExpField("E+copy", A.qt * S_ONE, A.lnv * S_ONE, A.qpow * S_ONE,
                       copied(A.pos), copied(A.neg))
    assert renamed == A and hash(renamed) == hash(A)
    assert {A: "memo"}[renamed] == "memo"
    assert renamed != F["E-"]


def test_contraction_memo_is_bounded(monkeypatch):
    # past its cap the memo drops its oldest entry
    monkeypatch.setattr(vc, "_CONTRACTION_MEMO", {})
    monkeypatch.setattr(vc, "_CONTRACTION_MEMO_SIZE", 2)
    pairs = (("E+", "E-"), ("E-", "E+"), ("Psi", "Phi"))
    for a, b in pairs:
        contraction_kernel(F[a], F[b])
    assert len(vc._CONTRACTION_MEMO) == 2
    assert [(A.name, B.name) for A, B in vc._CONTRACTION_MEMO] == list(pairs[1:])


def test_contract_ee_same_kernel_is_polynomial():
    # E^+(z)E^+(w) contracts to (z-w)(z-w/q^2) = z^2 (1-x)(1-x/q^2)
    data = contraction_kernel(F["E+"], F["E+"])
    assert data.zdeg == 2
    assert data.kernel == RatKernel.from_linear_factors(S_ONE, 0, [Q(0), Q(-2)], [])


# ---------------------------------------------------------------------------
# exchange relations
# ---------------------------------------------------------------------------

def test_exchange_psi_phi():
    all_pass(verify_exchange(F["Psi"], F["Phi"], kernel_step_pair(), N, "ope1", "x"))


@pytest.mark.parametrize("sign", (+1, -1))
def test_exchange_psi_e(sign):
    E = F["E+"] if sign > 0 else F["E-"]
    all_pass(verify_exchange(F["Psi"], E, kernel_step_vertex(sign), N, "ope2", "x"))


@pytest.mark.parametrize("sign", (+1, -1))
def test_exchange_e_phi(sign):
    E = F["E+"] if sign > 0 else F["E-"]
    all_pass(verify_exchange(E, F["Phi"], kernel_step_vertex(sign), N, "ope3", "x"))


@pytest.mark.parametrize("sign", (+1, -1))
def test_exchange_e_e_same(sign):
    E = F["E+"] if sign > 0 else F["E-"]
    all_pass(verify_exchange(E, E, kernel_self_exchange(sign), N, "ncom", "x"))


def test_exchange_psi_psi_trivial_kernel():
    all_pass(verify_exchange(F["Psi"], F["Psi"], RatKernel.const(S_ONE), N, "trivial", "x"))
    all_pass(verify_exchange(F["Phi"], F["Phi"], RatKernel.const(S_ONE), N, "trivial", "x"))


def test_exchange_wrong_kernel_fails():
    bad = RatKernel.from_linear_factors(S_ONE, 0, [Q(2)], [Q(1)])
    records = verify_exchange(F["Psi"], F["Phi"], bad, N, "ope1", "x")
    assert any(r.status == FAIL for r in records)


def test_exchange_kernel_engine_value():
    K = exchange_kernel(F["Psi"], F["Phi"])
    assert K == kernel_step_pair()


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fuse_to_raising_field():
    got = fuse(F["E+"], F["E-"], +2)     # z = w*q
    assert got.matches(F["Psi"].shifted(+1), N)


def test_fuse_to_lowering_field():
    got = fuse(F["E+"], F["E-"], -2)     # z = w/q
    assert got.matches(F["Phi"].shifted(-1), N)


def test_fuse_with_inverse_exponent_is_identity():
    A = F["E+"]

    def negated(terms):
        return tuple(ModeTerm(-t.coef, t.spow, t.over_qint) for t in terms)

    Ainv = ExpField("E+inv", -A.qt, -A.lnv, -A.qpow, negated(A.pos), negated(A.neg))
    got = fuse(A, Ainv, 0)
    assert got.matches(ExpField("1"), N)
    assert not A.matches(ExpField("1"), N)


def test_fuse_mismatch_detected():
    got = fuse(F["E+"], F["E-"], +2)
    assert not got.matches(F["Phi"].shifted(-1), N)


@pytest.mark.parametrize("sign", (+1, -1))
def test_ee_ope_fusion_fails_without_the_pole_shift(monkeypatch, sign):
    # negative control: fusing at z = w instead of z = w q^(+-1) must fail
    unshifted = vc.fuse
    monkeypatch.setattr(vc, "fuse", lambda A, B, half: unshifted(A, B, 0))
    suffix = "[+]" if sign > 0 else "[-]"
    status = {r.id: r.status for r in verify_ee_ope(N, sign)}
    assert status[f"ee-ope-fusion{suffix}"] == FAIL
    assert [i for i, st in status.items() if st == FAIL] == [f"ee-ope-fusion{suffix}"]


# ---------------------------------------------------------------------------
# the opposite-charge operator product
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", (+1, -1))
def test_ee_ope_suite(sign):
    all_pass(verify_ee_ope(N, sign))


def test_ee_region_difference_is_shifted_delta_pair():
    # independent: [n+1] = (q*q^n - q^-1 q^-n)/(q - 1/q), the weighted delta pair
    data = contraction_kernel(F["E+"], F["E-"])
    D = region_difference(data.kernel, N)
    dq = q_minus_qinv()
    for n in range(-N, N + 1):
        want = (Q(1) * Q(n) - Q(-1) * Q(-n)) / dq
        assert D.coeff(n) == want


# ---------------------------------------------------------------------------
# diagonal-current entries by contraction linearity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", (+1, -1))
def test_h_e_commutator_even_pattern(sign):
    D = h_e_commutator_dist(sign, N)
    rt2 = Scalar.from_rat(sign) * S_T
    assert D.coeff(0) == rt2
    for n in range(1, N + 1):
        want = rt2 * SP(-sign * n) * qint(2 * n) / Scalar.from_rat(2 * n)
        assert D.coeff(n) == want
        assert D.coeff(-n) == want
