"""Properties of the reduced algebra: antisymmetry, mode form, the exact
h -> 0 limit back to the undeformed reduction, read off each value's leading
term in h, and the Jacobi identity of the undeformed endpoint."""

from __future__ import annotations

from .qcoeff import S_ZERO, Scalar, q_minus_qinv, qint, qint_over_qsum, taylor_q1
from .distcalc import Dist2, ModeWindow
from .dirac import QVirasoroBracket, ReducedContents
from .report import CheckRecord, compare_dists, record


# The deformed and undeformed reduced brackets first match at order h^4:
# every content starts at h^4 or later, and its h^4 coefficient is the limit.
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

def _lead_str(term) -> str:
    k, c = term
    return f"{c}*h^{k} + O(h^{k + 1})"


def classical_limit_check(q: ReducedContents, c: ReducedContents, B: QVirasoroBracket,
                          W: ModeWindow) -> list[CheckRecord]:
    """Read the deformed reduced bracket's contents ``q`` (written through
    the affine map of ``B``) in h with q = exp(i h): each starts at order h^4
    or later, and its h^4 coefficient, divided by the leading coefficient of
    (q-1/q)^4, equals the undeformed contents ``c`` mode by mode."""
    amap = B.amap
    out = []

    # overall factor: (q - 1/q)^4 = 16 h^4 + O(h^6)
    dq4 = taylor_q1(q_minus_qinv() ** 4)
    out.append(record("limit-overall-factor", "qdirb", dq4 == (LIMIT_ORDER, 16),
                      engine=_lead_str(dq4), expected="16*h^4 + O(h^5)"))
    sixteen = Scalar.from_rat(16)

    # the h^2 pieces of the two constant-content sources cancel against
    # each other before the h^4 order can match
    n0 = 1
    pieces = (taylor_q1(amap.b2 * q.quad.coeff(n0)),
              taylor_q1(-B.kappa_cent * B.cent_residual.coeff(n0)))
    (kq, piece_quad), (kc, piece_cent) = pieces
    out.append(record(
        "limit-h2-piece-cancellation", "qdirb",
        kq == kc == 2 and (piece_quad + piece_cent).is_zero(),
        engine="b^2-quad piece: {}; central piece: {}".format(
            *(c if k == 2 else _lead_str((k, c)) for k, c in pieces)),
        expected="equal and opposite at h^2"))

    # per content: the target's wording in a passing record, the first
    # failing mode as (mode, engine, expected), and the values at n = 1..3
    targets = {"linear": "", "central": "16*(i/2)n^3 = "}
    bad = {"linear": None, "central": None}
    shown = {"linear": "", "central": ""}
    bad_low = None
    for n in [m for m in W.modes() if m != 0]:
        values = {"linear": amap.ab * q.quad.coeff(n),
                  "central": (Scalar.from_rat(2) * amap.b2 * q.quad.coeff(n)
                              - Scalar.from_rat(2) * amap.ab * q.lin_z.coeff(n)
                              + amap.a2 * q.cnum.coeff(n))}
        wants = {"linear": sixteen * c.lin_z.coeff(n), "central": sixteen * c.cnum.coeff(n)}
        for content, value in values.items():
            k, lead = term = taylor_q1(value)
            want = wants[content]
            if k < LIMIT_ORDER:     # no limit at this mode
                bad_low = bad_low or (n, f"{content} content: {_lead_str(term)}")
                got = f"no limit: {_lead_str(term)}"
            else:
                h4 = lead if k == LIMIT_ORDER else S_ZERO
                got = None if h4 == want else str(h4)
                if 1 <= n <= 3:
                    shown[content] += (f"h^4 {content} at n={n}: {h4} "
                                       f"(target {targets[content]}{want}); ")
            if got is not None and bad[content] is None:
                bad[content] = (n, got, str(want))

    out.append(record("limit-subleading-cancellation", "qdirb", bad_low is None,
                      mode=bad_low[0] if bad_low else None,
                      engine="orders h^0..h^3 vanish identically" if bad_low is None
                      else bad_low[1]))
    for content, expected in (("linear", "matches the undeformed linear part"),
                              ("central", "matches (i/2) n^3 per mode")):
        first = bad[content]
        out.append(record(f"limit-h4-{content}", "virasoro", first is None,
                          mode=first[0] if first else None,
                          engine=shown[content] if first is None else first[1],
                          expected=expected if first is None else first[2]))
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
