"""Closed-form bracket properties, the exact h-limit, and the Jacobi check."""

import copy
from fractions import Fraction

import pytest

from qvir.qcoeff import (
    S_I,
    S_ONE,
    S_T,
    S_ZERO,
    Scalar,
    q_minus_qinv,
    qint,
    taylor_q1,
)
from qvir.distcalc import Dist2, weight_abs
from qvir import dirac, distcalc, qvirasoro
from qvir.currents import FieldFactor, TermSum
from qvir.dirac import (
    ReducedContents,
    Reduction,
    classical_central_pattern,
    classical_linear_pattern,
    reduce,
    scenario,
    split_reduced,
)
from qvir.qvirasoro import (
    QVirasoroBracket,
    antisymmetry_check,
    classical_jacobi_check,
    classical_limit_check,
)
from qvir.report import FAIL, record

N = 8


def all_pass(records):
    bad = [r for r in records if r.status == FAIL]
    assert not bad, "\n".join(
        f"{r.id} mode={r.mode}: {r.engine_value} != {r.expected_value}" for r in bad)


@pytest.fixture(scope="module")
def reductions():
    return (Reduction(scenario("q-sl2"), N), Reduction(scenario("classical-sl2"), N))


@pytest.fixture(scope="module")
def closed():
    return QVirasoroBracket(N)


def _closed_with(B, quad=None, cent=None, quad_residual=None):
    """A copy of the closed forms with the given kernels; the residual-weight
    forms stay B's unless given, as the weight relation checks them against
    the printed forms and not against the absorbed kernels."""
    C = copy.copy(B)
    C.quad = B.quad if quad is None else quad
    C.cent = B.cent if cent is None else cent
    C.quad_residual = B.quad_residual if quad_residual is None else quad_residual
    return C


# ---------------------------------------------------------------------------
# bracket kernels
# ---------------------------------------------------------------------------

def test_kernel_values(closed):
    B = closed
    f = B.quad
    g = B.cent
    assert f.coeff(0) == S_ZERO
    for n in range(1, N + 1):
        assert f.coeff(n) == qint(n) * qint(n) / qint(2 * n)
        assert f.coeff(-n) == -f.coeff(n)
        assert g.coeff(n) == qint(2 * n)
    dq = q_minus_qinv()
    assert B.kappa_quad == S_I * qint(2) * dq * dq * Scalar.from_rat(Fraction(1, 2))
    assert B.kappa_cent == -S_I * dq * dq


def test_antisymmetry_records(closed):
    all_pass(antisymmetry_check(closed))
    # the residual-weight kernels, checked as if they were the absorbed ones
    all_pass(antisymmetry_check(
        _closed_with(closed, quad=closed.quad_residual, cent=closed.cent_residual)))


def test_weighted_unweighted_differ_by_weight(closed):
    assert closed.quad_residual == weight_abs(closed.quad, -2)
    assert closed.cent_residual == weight_abs(closed.cent, -2)


def _shifted(D, shifts):
    return Dist2(D.N, {**D.c, **{n: D.coeff(n) + v for n, v in shifts.items()}})


_ANTISYMMETRY_CONTROLS = {
    # f(2) += 1, the residual form following it
    "quad-even-part": (lambda B: _closed_with(B, quad=_shifted(B.quad, {2: S_ONE})),
                       {"qvir-quad-kernel-odd", "qvir-bracket-antisymmetry"}),
    "central-zero-mode": (lambda B: _closed_with(B, cent=_shifted(B.cent, {0: S_ONE})),
                          {"qvir-central-zero-mode", "qvir-bracket-antisymmetry"}),
    # f(+-2) = +-sqrt2, a pure-t value that keeps f odd
    "surd-leak": (lambda B: _closed_with(B, quad=Dist2(B.quad.N, {**B.quad.c, 2: S_T, -2: -S_T})),
                  {"qvir-rational-sector"}),
    "residual-off-at-one-mode": (
        lambda B: _closed_with(B, quad_residual=_shifted(B.quad_residual, {3: S_ONE})),
        {"qvir-weight-relation"}),
}


@pytest.mark.parametrize("control", sorted(_ANTISYMMETRY_CONTROLS))
def test_antisymmetry_check_negative_controls(closed, control):
    perturb, want = _ANTISYMMETRY_CONTROLS[control]
    records = antisymmetry_check(perturb(closed))
    assert len(records) == 5
    assert {r.id for r in records if r.status == FAIL} == want


@pytest.mark.parametrize("shift", (-1, 1))
def test_weight_relation_fails_on_a_wrong_mode_weight(monkeypatch, shift):
    # the mode weight off by one in its exponent wherever it is bound: only the
    # record that compares the residual-weight forms with the printed ones fails
    for module in (distcalc, dirac, qvirasoro):
        if getattr(module, "weight_abs", None) is weight_abs:
            monkeypatch.setattr(module, "weight_abs",
                                lambda D, a: weight_abs(D, a + shift))
    records = antisymmetry_check(QVirasoroBracket(N))
    assert len(records) == 5
    assert {r.id for r in records if r.status == FAIL} == {"qvir-weight-relation"}


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def test_limit_suite(reductions, closed):
    rq, rc = reductions
    all_pass(classical_limit_check(rq.contents, rc.contents, closed))


def test_limit_h4_values_by_hand(reductions, closed):
    # independent expansion: the central content is i (q-1/q)^4 q^(-2|n|) [n]^4/[2n],
    # whose leading term is 16 * n^3/2 * i h^4; the linear content is
    # -i[2](q-1/q)^4 q^(-2|n|) [n]^2/[2n], with leading term -16 i n h^4.
    rq, _ = reductions
    amap = closed.amap
    parts = rq.contents
    for n in (1, 2, 3):
        assert taylor_q1(amap.ab * parts.quad.coeff(n)) == (4, -16 * n * S_I)
        cn = (Scalar.from_rat(2) * amap.b2 * parts.quad.coeff(n)
              - Scalar.from_rat(2) * amap.ab * parts.lin_z.coeff(n)
              + amap.a2 * parts.cnum.coeff(n))
        assert taylor_q1(cn) == (4, 8 * n ** 3 * S_I)


def test_limit_detects_wrong_central(reductions, closed):
    rq, rc = reductions
    broken = ReducedContents(*(d.scale(Scalar.from_rat(3)) for d in rc.contents))
    recs = classical_limit_check(rq.contents, broken, closed)
    assert any(r.status == FAIL for r in recs)


def test_limit_reports_the_first_bad_mode(reductions, closed):
    # the q-bracket's quadratic part, which is imaginary, off by i at modes 2
    # and 5: every limit record names mode 2, the first failing mode of the window
    rq, rc = reductions
    quad = (FieldFactor("E-", "z"), FieldFactor("E-", "w"))
    chain = Reduction(scenario("q-sl2"), N)
    broken = reduce(chain, chain.inverse) + TermSum.single(quad, Dist2(N, {2: S_I, 5: S_I}))
    recs = {r.id: r for r in classical_limit_check(split_reduced(broken, N), rc.contents,
                                                    closed)}
    for check_id in ("limit-subleading-cancellation", "limit-h4-linear", "limit-h4-central"):
        assert recs[check_id].status == FAIL
        assert recs[check_id].mode == 2


@pytest.mark.parametrize("j, want", [
    (-1, {"limit-subleading-cancellation", "limit-h4-central"}),    # O(h^3): no limit
    (0, {"limit-h4-central"}),     # O(h^4): a wrong limit
    (1, set()),                    # O(h^5): the limit unchanged
], ids=("order3", "order4", "order5"))
def test_limit_reads_the_order_boundary(reductions, closed, j, want):
    # i (q - 1/q)^j added to the q contents' cnum at mode 2 enters the central
    # content times a^2 = O(h^4), so it is of order h^(4 + j) there
    rq, rc = reductions
    assert taylor_q1(closed.amap.a2)[0] == 4
    q = rq.contents._replace(cnum=rq.contents.cnum + Dist2(N, {2: S_I * q_minus_qinv() ** j}))
    records = classical_limit_check(q, rc.contents, closed)
    assert len(records) == 5
    failed = [r for r in records if r.status == FAIL]
    assert {r.id for r in failed} == want
    assert all(r.mode == 2 for r in failed)


def test_limit_h2_pieces_fail_with_a_doubled_central_piece(reductions, closed):
    rq, rc = reductions
    B = copy.copy(closed)
    B.cent_residual = _shifted(closed.cent_residual, {1: closed.cent_residual.coeff(1)})
    records = classical_limit_check(rq.contents, rc.contents, B)
    assert {r.id for r in records if r.status == FAIL} == {"limit-h2-piece-cancellation"}


def test_limit_overall_factor_fails_with_q2_minus_qinv2(monkeypatch, reductions, closed):
    # (q^2 - q^-2)^4 = 256 h^4 + ...: only the overall factor reads q - 1/q
    monkeypatch.setattr(qvirasoro, "q_minus_qinv",
                        lambda: Scalar.q_power(2) - Scalar.q_power(-2))
    rq, rc = reductions
    records = classical_limit_check(rq.contents, rc.contents, closed)
    assert {r.id for r in records if r.status == FAIL} == {"limit-overall-factor"}


# ---------------------------------------------------------------------------
# the undeformed endpoint
# ---------------------------------------------------------------------------

def _bracket(parts, a, b):
    """{L_a, L_b} read off the undeformed contents: the coefficient of
    L_(a+b), lin(a) + lin(-b), and the central Scalar cnum(a) delta_(a+b,0)."""
    coef = parts.lin_z.coeff(a) + parts.lin_z.coeff(-b)
    central = parts.cnum.coeff(a) if a + b == 0 else S_ZERO
    return coef, central


def _contents(lin, cnum):
    """Undeformed contents with the given linear and central parts."""
    return ReducedContents(Dist2.zero(lin.N), lin, lin, cnum)


def test_jacobi_passes(reductions):
    _, rc = reductions
    all_pass(classical_jacobi_check(rc.contents, 6))


def test_jacobi_specific_triples(reductions):
    _, rc = reductions
    # (1,-1,0): antisymmetry and grading force cancellation
    for triple in ((1, -1, 0), (2, -1, -1), (3, -2, 1)):
        a, b, c = triple
        lcoef = S_ZERO
        central = S_ZERO
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner_coef, _ = _bracket(rc.contents, y, z)
            outer_coef, outer_cent = _bracket(rc.contents, x, y + z)
            lcoef = lcoef + inner_coef * outer_coef
            central = central + inner_coef * outer_cent
        assert lcoef.is_zero() and central.is_zero(), triple


def test_jacobi_detects_wrong_central():
    # replacing the n^3 cocycle by n^2 (an even function) breaks the identity
    lin = Dist2.from_func(N, lambda n: -S_I * Scalar.from_rat(n))
    bad_cnum = Dist2.from_func(N, lambda n: S_I * Scalar.from_rat(n * n))
    recs = classical_jacobi_check(_contents(lin, bad_cnum), 4)
    assert any(r.status == FAIL for r in recs)


def test_mode_bracket_extraction(reductions):
    _, rc = reductions
    # {L_a, L_b} = -i(a-b) L_{a+b} + (i/2) a^3 delta
    coef, cent = _bracket(rc.contents, 2, 1)
    assert coef == -S_I * Scalar.from_rat(1)
    assert cent == S_ZERO
    coef, cent = _bracket(rc.contents, 3, -3)
    assert coef == -S_I * Scalar.from_rat(6)
    assert cent == S_I * Scalar.from_rat(Fraction(27, 2))


def _antisymmetric_reference(parts, K):
    """Every pair |a|, |b| <= K inside the window has {L_a, L_b} == -{L_b, L_a}."""
    K = min(K, parts.lin_z.N)
    for a in range(-K, K + 1):
        for b in range(-K, K + 1):
            ab, cab = _bracket(parts, a, b)
            ba, cba = _bracket(parts, b, a)
            if ab != -ba or cab != -cba:
                return False
    return True


def _jacobi_reference(parts, K):
    """The triple loop without memos: every term and central sum is
    recomputed from _bracket for each rotation."""
    N = parts.lin_z.N
    out = [record("virasoro-mode-antisymmetry", "virasoro", _antisymmetric_reference(parts, K))]
    bad = None
    checked = 0
    for a in range(-K, K + 1):
        for b in range(-K, K + 1):
            for c in range(-K, K + 1):
                if max(abs(a), abs(b), abs(c), abs(b + c), abs(c + a),
                       abs(a + b), abs(a + b + c)) > N:
                    continue
                checked += 1
                lcoef = S_ZERO
                central = S_ZERO
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    inner_coef, _ = _bracket(parts, y, z)
                    outer_coef, outer_cent = _bracket(parts, x, y + z)
                    lcoef = lcoef + inner_coef * outer_coef
                    central = central + inner_coef * outer_cent
                if not (lcoef.is_zero() and central.is_zero()):
                    bad = (a, b, c, str(lcoef), str(central))
                    break
            if bad:
                break
        if bad:
            break
    out.append(record("virasoro-jacobi", "virasoro", bad is None,
                      engine=f"all {checked} triples vanish" if bad is None else str(bad),
                      expected="0 for every triple"))
    return out


def _virasoro_variants(N):
    """The true mode data, two other cocycles (n passes, n^2 fails), and the
    true data with one central or one linear mode shifted by i (the data are
    imaginary)."""
    lin, cnum = classical_linear_pattern(N), classical_central_pattern(N)

    def cocycle(power):
        return Dist2.from_func(N, lambda n: S_I * Scalar.from_rat(n ** power))

    return {
        "true": _contents(lin, cnum),
        "cocycle-n2": _contents(lin, cocycle(2)),
        "cocycle-n": _contents(lin, cocycle(1)),
        "shifted-central": _contents(lin, cnum + Dist2(N, {min(2, N): S_I})),
        "shifted-linear": _contents(lin + Dist2(N, {min(3, N): S_I}), cnum),
    }


def _fields(records):
    return [(r.id, r.status, r.mode, r.engine_value, r.expected_value) for r in records]


def test_jacobi_matches_the_reference_loop():
    # the memoized check gives the same records, failing ones included; the
    # even cocycle and the shifted modes fail the mode antisymmetry as well
    failing = antisymmetry_failing = 0
    for N in range(1, 21):
        for name, parts in _virasoro_variants(N).items():
            for K in (4, 6):
                got = classical_jacobi_check(parts, K)
                assert _fields(got) == _fields(_jacobi_reference(parts, K)), (N, name, K)
                failing += sum(r.status == FAIL for r in got)
                antisymmetry_failing += got[0].status == FAIL
    assert failing > 100 and antisymmetry_failing > 50


def test_jacobi_multiplication_count(monkeypatch):
    # on a window of at least 3K every triple is checked: one product per
    # ordered term, (2K+1)^3 = 2197, and three central products on each of
    # the 127 triples with a + b + c = 0
    parts = _virasoro_variants(18)["true"]
    calls = []
    mul = Scalar.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    all_pass(classical_jacobi_check(parts, 6))
    assert len(calls) <= 2197 + 3 * 127
