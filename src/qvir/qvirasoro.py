"""Properties of the reduced algebra: antisymmetry, mode form, the exact
h-expansion limit back to the undeformed reduction, and the Jacobi identity
of the undeformed endpoint."""

from __future__ import annotations

from .qcoeff import S_ZERO, Scalar, q_minus_qinv, qint, qint_over_qsum, taylor_q1
from .distcalc import Dist2, ModeWindow
from .dirac import QVirasoroBracket, ReducedContents
from .report import CheckRecord, compare_dists, record


# The deformed and undeformed reduced brackets first match at order h^4,
# so the limit expands to h^4 and no further.
LIMIT_ORDER = 4


# ---------------------------------------------------------------------------
# Antisymmetry of the closed-form bracket (QVirasoroBracket, in dirac)
# ---------------------------------------------------------------------------

def antisymmetry_check(B: QVirasoroBracket) -> list[CheckRecord]:
    """Swapping the two points negates the bracket exactly, mode by mode;
    the residual-weight forms are the printed q^(-2|n|)[n]^2/[2n] and
    q^(-2|n|)[2n], built here from the q-integers and not through the
    mode weight that builds ``B``."""
    f = B.quad
    g = B.cent
    out = []
    out.append(compare_dists("qvir-quad-kernel-odd", "qvir", f.reflect(), -f))
    out.append(record("qvir-central-zero-mode", "qvir", g.coeff(0).is_zero(),
                      engine=str(g.coeff(0)), expected="0"))
    full_ok = (f.reflect() == -f) and (g.reflect() == -g)
    out.append(record("qvir-bracket-antisymmetry", "qvir", full_ok,
                      engine="reflection negates both kernels" if full_ok else "kernel parity broken"))
    surd_free = all(v.is_rational_sector() for v in f.c.values()) and \
        all(v.is_rational_sector() for v in g.c.values())
    out.append(record("qvir-rational-sector", "qvir", surd_free))
    N = B.quad_residual.N
    quad = Dist2.from_func(N, lambda n: Scalar.q_power(-2 * abs(n)) * qint_over_qsum(n, 1)
                           if n else S_ZERO)
    cent = Dist2.from_func(N, lambda n: Scalar.q_power(-2 * abs(n)) * qint(2 * n))
    out.append(record(
        "qvir-weight-relation", "qdirb/qvir",
        B.quad_residual == quad and B.cent_residual == cent,
        engine="residual-weight forms = q^(-2|n|)[n]^2/[2n], q^(-2|n|)[2n] (printed)"))
    return out


# ---------------------------------------------------------------------------
# Exact classical limit
# ---------------------------------------------------------------------------

def classical_limit_check(q: ReducedContents, c: ReducedContents, B: QVirasoroBracket,
                          W: ModeWindow) -> list[CheckRecord]:
    """Expand the deformed reduced bracket's contents ``q`` (written through
    the affine map of ``B``) in h with q = exp(i h): the orders h^0..h^3
    vanish identically and the h^4 content, divided by the leading
    coefficient of (q-1/q)^4, equals the undeformed contents ``c`` mode by
    mode."""
    amap = B.amap
    out = []

    # overall factor: (q - 1/q)^4 = 16 h^4 + O(h^6)
    dq4 = taylor_q1(q_minus_qinv() ** 4, LIMIT_ORDER)
    factor = dq4.coeff(4)
    out.append(record("limit-overall-factor", "qdirb", factor == 16,
                      engine=str(dq4), expected="16*h^4 + O(h^5)"))
    sixteen = Scalar.from_rat(16)

    # the h^2 pieces of the two constant-content sources cancel against
    # each other before the h^4 order can match
    n0 = 1
    quad_pat = q.quad.coeff(n0)
    piece_quad = taylor_q1(amap.b2 * quad_pat, 2).coeff(2)
    piece_cent = taylor_q1(-B.kappa_cent * B.cent_residual.coeff(n0), 2).coeff(2)
    out.append(record(
        "limit-h2-piece-cancellation", "qdirb",
        (piece_quad + piece_cent).is_zero()
        and not piece_quad.is_zero() and not piece_cent.is_zero(),
        engine=f"b^2-quad piece: {piece_quad}; central piece: {piece_cent}",
        expected="equal and opposite at h^2"))

    bad_low = bad_lin = bad_cen = None
    lin_vals = cen_vals = ""
    for n in [m for m in W.modes() if m != 0]:
        lin_limit = amap.ab * q.quad.coeff(n)
        cn_limit = (Scalar.from_rat(2) * amap.b2 * q.quad.coeff(n)
                    - Scalar.from_rat(2) * amap.ab * q.lin_z.coeff(n)
                    + amap.a2 * q.cnum.coeff(n))
        h_lin = taylor_q1(lin_limit, LIMIT_ORDER)
        h_cn = taylor_q1(cn_limit, LIMIT_ORDER)
        if bad_low is None:
            for k in range(0, LIMIT_ORDER):
                if not (h_lin.coeff(k).is_zero() and h_cn.coeff(k).is_zero()):
                    bad_low = (n, k, str(h_lin), str(h_cn))
                    break
        want_lin = sixteen * c.lin_z.coeff(n)
        want_cen = sixteen * c.cnum.coeff(n)
        if h_lin.coeff(4) != want_lin and bad_lin is None:
            bad_lin = (n, str(h_lin.coeff(4)), str(want_lin))
        if h_cn.coeff(4) != want_cen and bad_cen is None:
            bad_cen = (n, str(h_cn.coeff(4)), str(want_cen))
        if 1 <= n <= 3:
            lin_vals += f"h^4 linear at n={n}: {h_lin.coeff(4)} (target {want_lin}); "
            cen_vals += f"h^4 central at n={n}: {h_cn.coeff(4)} (target 16*(i/2)n^3 = {want_cen}); "

    out.append(record("limit-subleading-cancellation", "qdirb", bad_low is None,
                      mode=bad_low[0] if bad_low else None,
                      engine="orders h^0..h^3 vanish identically" if bad_low is None
                      else str(bad_low)))
    out.append(record("limit-h4-linear", "virasoro", bad_lin is None,
                      mode=bad_lin[0] if bad_lin else None,
                      engine=lin_vals if bad_lin is None else bad_lin[1],
                      expected="matches the undeformed linear part" if bad_lin is None
                      else bad_lin[2]))
    out.append(record("limit-h4-central", "virasoro", bad_cen is None,
                      mode=bad_cen[0] if bad_cen else None,
                      engine=cen_vals if bad_cen is None else bad_cen[1],
                      expected="matches (i/2) n^3 per mode" if bad_cen is None
                      else bad_cen[2]))
    return out


# ---------------------------------------------------------------------------
# The undeformed endpoint: mode form and Jacobi identity
# ---------------------------------------------------------------------------

class ClassicalVirasoro:
    """Mode data {L_a, L_b} = (lin(a) + lin(-b)) L_{a+b} + cnum(a) delta_{a+b,0}."""

    __slots__ = ("lin", "cnum")

    def __init__(self, lin: Dist2, cnum: Dist2):
        self.lin = lin
        self.cnum = cnum

    @classmethod
    def from_reduced(cls, parts: ReducedContents) -> "ClassicalVirasoro":
        if parts.lin_z != parts.lin_w:
            raise ValueError("reduced bracket is not slot-symmetric in its linear part")
        if not parts.quad.is_zero():
            raise ValueError("undeformed reduced bracket should have no quadratic part")
        return cls(parts.lin_z, parts.cnum)

    def bracket(self, a: int, b: int):
        """Returns (coefficient of L_{a+b}, central Scalar)."""
        coef = self.lin.coeff(a) + self.lin.coeff(-b)
        central = self.cnum.coeff(a) if a + b == 0 else S_ZERO
        return coef, central

    def antisymmetric(self, K: int) -> bool:
        K = min(K, self.lin.N)
        for a in range(-K, K + 1):
            for b in range(-K, K + 1):
                ab, cab = self.bracket(a, b)
                ba, cba = self.bracket(b, a)
                if ab != -ba or cab != -cba:
                    return False
        return True


def classical_jacobi_check(V: ClassicalVirasoro, K: int) -> list[CheckRecord]:
    """{L_a, {L_b, L_c}} + cyclic = 0 for all |a|,|b|,|c| <= K whose
    intermediate modes stay inside the available mode range.

    The rotations of a triple are triples of the same loop, so each bracket
    coefficient C(y, z) and each term C(y, z) C(x, y + z) is computed once,
    in memos local to the call (at most (2K+1)^3 entries); the central sum
    can only be nonzero when a + b + c = 0."""
    N = V.lin.N
    out = [record("virasoro-mode-antisymmetry", "virasoro", V.antisymmetric(K))]
    coefs = {}
    terms = {}

    def coef(y, z):
        v = coefs.get((y, z))
        if v is None:
            v = coefs[(y, z)] = V.bracket(y, z)[0]
        return v

    def term(x, y, z):
        v = terms.get((x, y, z))
        if v is None:
            v = terms[(x, y, z)] = coef(y, z) * coef(x, y + z)
        return v

    bad = None
    checked = 0
    for a in range(-K, K + 1):
        for b in range(-K, K + 1):
            for c in range(-K, K + 1):
                if max(abs(a), abs(b), abs(c), abs(b + c), abs(c + a),
                       abs(a + b), abs(a + b + c)) > N:
                    continue
                checked += 1
                lcoef = term(a, b, c) + term(b, c, a) + term(c, a, b)
                central = S_ZERO
                if a + b + c == 0:
                    central = (coef(b, c) * V.cnum.coeff(a) + coef(c, a) * V.cnum.coeff(b)
                               + coef(a, b) * V.cnum.coeff(c))
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
