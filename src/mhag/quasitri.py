"""The generalized R-multiplier and its exact applied identities.

For an ordered pair of gradings the R-multiplier is the canonical duality
multiplier with its B-leg twisted by the inverse of the first grading's
second automorphism, embedded legwise into the two components.  It only
ever appears here *applied* to honest tensor values, from the left or the
right; the candidate solvers on the canonical multiplier keep every
application a finite exact sum.

The residual functions each evaluate one side of a structural identity
minus nothing — they return the pair ``(lhs, rhs)`` of honestly computed
tensor values so callers can compare or report counterexamples.  Slots in
flat tensors are ordered as in :mod:`mhag.cograded`: crossed slots
contribute ``(A-label, B-label)`` pairs, plain algebra slots one label.
The canonical multiplier comes from the pairing (``P.w``), and so does
the grading-group arithmetic: products of gradings (``P._gmul``, filled
from the grading law ``P.pair_mul``), inverses and the automorphisms
derived from one grading (``P._gaut``), the second-leg automorphism of a
split (``P._split``), crossing targets (``P._cross``) and the
automorphisms of the second intertwiner law (``P._wbaut``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .cograded import comul_apply_full, xi_on_legs
from .crossed import a_left_into, b_left_into
from .groups import AutPair
from .linear import LinComb, add_scaled, add_term
from .mha import MhaInstance
from .pairing import Pairing


def _lmul(X: MhaInstance, lx, y: Dict) -> Dict:
    """The product ``lx * y`` of a basis label of ``X`` with a term dict,
    as a term dict read from the product table."""
    mul_basis = X.mul_basis
    out: Dict = {}
    for ly, cy in y.items():
        prod = mul_basis(lx, ly).terms
        if prod:
            add_scaled(out, prod.items(), cy)
    return out


def r_apply(P: Pairing, left_g: AutPair, right_g: AutPair, uv: LinComb,
            side: str = "left") -> LinComb:
    """Apply the R-multiplier of the ordered pair ``(left_g, right_g)`` to a
    4-tuple tensor value (slot 1 at ``left_g``, slot 2 at ``right_g``)."""
    binv = P._gaut[left_g].beta_inv
    A, B = P.A, P.B
    a_mul, aut = A.mul_basis, B.aut_basis
    out: Dict[Tuple, object] = {}
    if side == "left":
        for (ua, ub, va, vb), c in uv.terms.items():
            u_items = (((ua, ub), c),)
            for wb, wa, cw in P.w.candidates_left([va]):
                s2 = a_mul(wa, va).terms          # (wa |x| 1) * v
                if not s2:
                    continue
                s1: Dict = {}                     # cw * (1 |x| binv(wb)) * u
                b_left_into(P, left_g, s1, cw, aut(binv, wb), u_items)
                for (l1a, l1b), c1 in s1.items():
                    for l2a, c2 in s2.items():
                        add_term(out, (l1a, l1b, l2a, vb), c1 * c2)
        return LinComb(out)
    if side != "right":
        raise ValueError(f"unknown r_apply side: {side!r}")
    b_mul, twc = B.mul_basis, P._twc
    for (ua, ub, va, vb), c in uv.terms.items():
        for wb, wa, cw in P.w.candidates_right(right_g, va, vb):
            s1 = b_mul(ub, aut(binv, wb)).terms   # u * (1 |x| binv(wb))
            if not s1:
                continue
            s2: Dict = {}                         # v * (wa |x| 1)
            for (la2, lb2), c1 in twc[right_g, vb, wa]:
                for la3, c2 in a_mul(va, la2).terms.items():
                    add_term(s2, (la3, lb2), c1 * c2)
            if not s2:
                continue
            cc = c * cw
            for lb1, c1 in s1.items():
                for (l2a, l2b), c2 in s2.items():
                    add_term(out, (ua, lb1, l2a, l2b), cc * c1 * c2)
    return LinComb(out)


def _comul_b_embedded(P: Pairing, lb, scale, left_g: AutPair,
                      right_g: AutPair, u_items, v: LinComb) -> Dict:
    """``scale * Delta(1 |x| lb) * (u (x) v)`` for a B-embedded basis
    multiplier, as a term dict: the graded comultiplication has no A-legs
    here, so both slots are plain B-embedded left multiplications, covered
    on the right leg."""
    B = P.B
    t_b, aut = B.t_image, B.aut_basis
    gamma = right_g.alpha
    gamma_p, gamma_p_inv = P._split[left_g, right_g]
    c = P.crossed_right_unit(right_g, v)
    c0 = B.apply_aut(gamma_p_inv, c).terms
    one = P.field.one()
    v_items = v.terms.items()
    out: Dict[Tuple, object] = {}
    for l0, k0 in c0.items():
        for (b1, b2c), c1 in t_b(1, lb, l0).terms.items():
            s2: Dict = {}
            b_left_into(P, right_g, s2, scale * k0 * c1, aut(gamma_p, b2c),
                        v_items)
            if not s2:
                continue
            s1: Dict = {}
            b_left_into(P, left_g, s1, one, aut(gamma, b1), u_items)
            if not s1:
                continue
            for (l1a, l1b), c2 in s1.items():
                for (l2a, l2b), c3 in s2.items():
                    add_term(out, (l1a, l1b, l2a, l2b), c2 * c3)
    return out


# ---------------------------------------------------------------------------
# The four structural identities of the R-multiplier.
# ---------------------------------------------------------------------------

def qt_conjugation_residual(P: Pairing, t: AutPair, p: AutPair, q: AutPair,
                            uv: LinComb) -> Tuple[LinComb, LinComb]:
    """Crossing-equivariance: conjugating both legs of the R-multiplier by
    the crossing action of ``t`` lands on the R-multiplier of the
    conjugated grading pair.  ``uv`` is a 4-tuple tensor with slots at the
    conjugated gradings."""
    cross = P._cross
    tinv = P._gaut[t].inv
    tp, tq = cross[t, p].target, cross[t, q].target
    rhs = r_apply(P, tp, tq, uv, "left")
    back = xi_on_legs(P, tinv, tp, uv, 0, 1)
    back = xi_on_legs(P, tinv, tq, back, 2, 3)
    mid = r_apply(P, p, q, back, "left")
    lhs = xi_on_legs(P, t, p, mid, 0, 1)
    lhs = xi_on_legs(P, t, q, lhs, 2, 3)
    return lhs, rhs


def qt_coproduct_first_residual(P: Pairing, p: AutPair, q: AutPair,
                                r: AutPair, uvz: LinComb
                                ) -> Tuple[LinComb, LinComb]:
    """Comultiplication on the first leg: the graded coproduct of the
    R-multiplier's first leg factors through two R-multipliers, with a
    crossing correction on the outer 13-factor.  ``uvz`` is a 6-tuple
    tensor with slots at ``p, q, r``."""
    A, B = P.A, P.B
    a_mul, aut = A.mul_basis, B.aut_basis
    binv = P._gaut[P._gmul[p, q]].beta_inv
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    qinv = P._gaut[q].inv
    qrq = P._cross[q, r].target
    for (ua, ub, va, vb, za, zb), c in uvz.terms.items():
        u_items = (((ua, ub), c),)
        v = LinComb.unit((va, vb))
        # lhs: (Delta_{p,q} (x) id) applied to the R-multiplier at (p*q, r)
        for wb, wa, cw in P.w.candidates_left([za]):
            s3 = a_mul(wa, za).terms              # (wa |x| 1) * z
            if not s3:
                continue
            s12 = _comul_b_embedded(P, aut(binv, wb), cw, p, q, u_items, v)
            for (l1a, l1b, l2a, l2b), c1 in s12.items():
                for l3a, c2 in s3.items():
                    add_term(lhs_terms, (l1a, l1b, l2a, l2b, l3a, zb),
                             c1 * c2)
        # rhs: 23-factor first, then the crossing-corrected 13-factor
        base23 = r_apply(P, q, r, LinComb.unit((va, vb, za, zb)), "left")
        for (v1a, v1b, z1a, z1b), c1 in base23.terms.items():
            zconj = xi_on_legs(P, q, r, LinComb.unit((z1a, z1b)), 0, 1)
            pairin: Dict[Tuple, object] = {}
            for (zca, zcb), c2 in zconj.terms.items():
                add_term(pairin, (ua, ub, zca, zcb), c2)
            t13 = r_apply(P, p, qrq, LinComb(pairin), "left")
            t13 = xi_on_legs(P, qinv, qrq, t13, 2, 3)
            for (u1a, u1b, z2a, z2b), c3 in t13.terms.items():
                add_term(rhs_terms, (u1a, u1b, v1a, v1b, z2a, z2b), c * c1 * c3)
    return LinComb(lhs_terms), LinComb(rhs_terms)


def qt_coproduct_second_residual(P: Pairing, p: AutPair, q: AutPair,
                                 r: AutPair, uvz: LinComb
                                 ) -> Tuple[LinComb, LinComb]:
    """Comultiplication on the second leg: the graded coproduct of the
    R-multiplier's second leg factors as 13-then-12 with no crossing
    correction.  ``uvz`` is a 6-tuple tensor with slots at ``p, q, r``."""
    A, B = P.A, P.B
    a_mul, t_a, aut = A.mul_basis, A.t_image, B.aut_basis
    binv = P._gaut[p].beta_inv
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    for (ua, ub, va, vb, za, zb), c in uvz.terms.items():
        u_items = (((ua, ub), c),)
        # lhs: the A-leg coproduct (co-opposite) spread over slots 3 and 2
        n = A.local_unit_for([za]).terms
        for wb, wa, cw in P.w.candidates_pairs([za], [va]):
            s1: Dict = {}                         # c * (1 |x| binv(wb)) * u
            b_left_into(P, p, s1, cw, aut(binv, wb), u_items)
            if not s1:
                continue
            for l0, k0 in n.items():
                for (a1n, a2), c1 in t_a(3, wa, l0).terms.items():
                    s2 = a_mul(a2, va).terms      # (a2 |x| 1) * v
                    if not s2:
                        continue
                    s3 = a_mul(a1n, za).terms     # (a1n |x| 1) * z
                    if not s3:
                        continue
                    c01 = k0 * c1
                    for (l1a, l1b), c2 in s1.items():
                        for l2a, c3 in s2.items():
                            c4 = c01 * c2 * c3
                            for l3a, c5 in s3.items():
                                add_term(lhs_terms,
                                         (l1a, l1b, l2a, vb, l3a, zb),
                                         c4 * c5)
        # rhs: 12-factor first, then 13
        t12 = r_apply(P, p, q, LinComb.unit((ua, ub, va, vb)), "left")
        for (u1a, u1b, v1a, v1b), c1 in t12.terms.items():
            t13 = r_apply(P, p, r, LinComb.unit((u1a, u1b, za, zb)), "left")
            for (u2a, u2b, z1a, z1b), c2 in t13.terms.items():
                add_term(rhs_terms, (u2a, u2b, v1a, v1b, z1a, z1b),
                         c * c1 * c2)
    return LinComb(lhs_terms), LinComb(rhs_terms)


def qt_intertwine_residual(P: Pairing, p: AutPair, q: AutPair, x: LinComb,
                           u: LinComb, v: LinComb
                           ) -> Tuple[LinComb, LinComb]:
    """The R-multiplier intertwines the graded comultiplication with its
    crossing-twisted co-opposite: ``R * Delta(x)`` against
    ``Delta-twisted-cop(x) * R`` applied to ``(u (x) v)``; ``x`` lives at
    ``p*q``, ``u`` at ``p``, ``v`` at ``q``."""
    pinv = P._gaut[p].inv
    pprime = P._cross[p, q].target
    lhs = r_apply(P, p, q, comul_apply_full(P, x, p, q, u, v), "left")
    uv: Dict[Tuple, object] = {}
    for (la1, lb1), c1 in u.terms.items():
        for (la2, lb2), c2 in v.terms.items():
            add_term(uv, (la1, lb1, la2, lb2), c1 * c2)
    base = r_apply(P, p, q, LinComb(uv), "left")
    rhs_terms: Dict[Tuple, object] = {}
    for (u1a, u1b, v1a, v1b), c in base.terms.items():
        vconj = xi_on_legs(P, p, q, LinComb.unit((v1a, v1b)), 0, 1)
        full = comul_apply_full(P, x, pprime, p, vconj,
                                LinComb.unit((u1a, u1b)))
        full = xi_on_legs(P, pinv, pprime, full, 0, 1)
        for (s1a, s1b, s2a, s2b), c1 in full.terms.items():
            add_term(rhs_terms, (s2a, s2b, s1a, s1b), c * c1)
    return lhs, LinComb(rhs_terms)


# ---------------------------------------------------------------------------
# Identities of the canonical duality multiplier itself.
# ---------------------------------------------------------------------------

def w_coproduct_b_residual(P: Pairing, m: LinComb, m2: LinComb, n: LinComb
                           ) -> Tuple[LinComb, LinComb]:
    """B-leg comultiplication of the canonical multiplier: comparing
    ``(Delta_B (x) id) W`` with the 13-23 product, applied to
    ``(m (x) m2 (x) n)`` with the first two slots in B, the last in A."""
    A, B = P.A, P.B
    t_b = B.t_image
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    c0 = B.local_unit_for(m2.support()).terms
    for wb, wa, cw in P.w.candidates_left(n.support()):
        s3 = _lmul(A, wa, n.terms)
        if not s3:
            continue
        for l0, k0 in c0.items():
            for (b1, b2c), c1 in t_b(1, wb, l0).terms.items():
                s1 = _lmul(B, b1, m.terms)
                if not s1:
                    continue
                s2 = _lmul(B, b2c, m2.terms)
                if not s2:
                    continue
                cc = cw * k0 * c1
                for l1, cc1 in s1.items():
                    for l2, cc2 in s2.items():
                        c12 = cc * cc1 * cc2
                        for l3, cc3 in s3.items():
                            add_term(lhs_terms, (l1, l2, l3), c12 * cc3)
    for wb, wa, cw in P.w.candidates_left(n.support()):
        mid3 = _lmul(A, wa, n.terms)
        if not mid3:
            continue
        mid2 = _lmul(B, wb, m2.terms)
        if not mid2:
            continue
        for wb2, wa2, cw2 in P.w.candidates_left(list(mid3)):
            s3 = _lmul(A, wa2, mid3)
            if not s3:
                continue
            s1 = _lmul(B, wb2, m.terms)
            if not s1:
                continue
            cc = cw * cw2
            for l1, cc1 in s1.items():
                for l2, cc2 in mid2.items():
                    c12 = cc * cc1 * cc2
                    for l3, cc3 in s3.items():
                        add_term(rhs_terms, (l1, l2, l3), c12 * cc3)
    return LinComb(lhs_terms), LinComb(rhs_terms)


def w_coproduct_a_residual(P: Pairing, m: LinComb, n1: LinComb, n2: LinComb
                           ) -> Tuple[LinComb, LinComb]:
    """A-leg comultiplication of the canonical multiplier: comparing
    ``(id (x) Delta_A) W`` with the 12-13 product, applied to
    ``(m (x) n1 (x) n2)`` with the first slot in B, the rest in A."""
    A, B = P.A, P.B
    t_a = A.t_image
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    n0 = A.local_unit_for(n2.support()).terms
    for wb, wa, cw in P.w.candidates_pairs(n1.support(), n2.support()):
        s1 = _lmul(B, wb, m.terms)
        if not s1:
            continue
        for l0, k0 in n0.items():
            for (a1, a2n), c1 in t_a(1, wa, l0).terms.items():
                s2 = _lmul(A, a1, n1.terms)
                if not s2:
                    continue
                s3 = _lmul(A, a2n, n2.terms)
                if not s3:
                    continue
                cc = cw * k0 * c1
                for l1, cc1 in s1.items():
                    for l2, cc2 in s2.items():
                        c12 = cc * cc1 * cc2
                        for l3, cc3 in s3.items():
                            add_term(lhs_terms, (l1, l2, l3), c12 * cc3)
    for wb, wa, cw in P.w.candidates_left(n2.support()):
        mid3 = _lmul(A, wa, n2.terms)
        if not mid3:
            continue
        mid1 = _lmul(B, wb, m.terms)
        if not mid1:
            continue
        for wb2, wa2, cw2 in P.w.candidates_left(n1.support()):
            s2 = _lmul(A, wa2, n1.terms)
            if not s2:
                continue
            s1 = _lmul(B, wb2, mid1)
            if not s1:
                continue
            cc = cw * cw2
            for l1, cc1 in s1.items():
                for l2, cc2 in s2.items():
                    c12 = cc * cc1 * cc2
                    for l3, cc3 in mid3.items():
                        add_term(rhs_terms, (l1, l2, l3), c12 * cc3)
    return LinComb(lhs_terms), LinComb(rhs_terms)


def w_inverse_residual(P: Pairing, m: LinComb, n: LinComb
                       ) -> Tuple[LinComb, LinComb, LinComb]:
    """Invertibility of the canonical multiplier: its antipode twist is a
    two-sided inverse.  Returns (left roundtrip, right roundtrip,
    expected), where expected is ``m (x) n`` itself."""
    A, B = P.A, P.B
    a_mul, b_mul = A.mul_basis, B.mul_basis

    def apply_w(val: LinComb, antipode: bool) -> LinComb:
        out: Dict[Tuple, object] = {}
        for (l1, l2), c in val.terms.items():
            for wb, wa, cw in P.w.candidates_left([l2]):
                s2 = a_mul(wa, l2).terms
                if not s2:
                    continue
                if antipode:
                    s1: Dict = {}
                    for lb, cb in B.antipode_basis(wb).terms.items():
                        add_scaled(s1, b_mul(lb, l1).terms.items(), cb)
                else:
                    s1 = b_mul(wb, l1).terms
                if not s1:
                    continue
                cc = c * cw
                for lb, c1 in s1.items():
                    for la, c2 in s2.items():
                        add_term(out, (lb, la), cc * c1 * c2)
        return LinComb(out)

    expected: Dict[Tuple, object] = {}
    for l1, c1 in m.terms.items():
        for l2, c2 in n.terms.items():
            add_term(expected, (l1, l2), c1 * c2)
    start = LinComb(expected)
    left_rt = apply_w(apply_w(start, True), False)    # W (S W) = 1
    right_rt = apply_w(apply_w(start, False), True)   # (S W) W = 1
    return left_rt, right_rt, start


# ---------------------------------------------------------------------------
# The two intertwiner identities of the twisted canonical multiplier.
# ---------------------------------------------------------------------------

def w_intertwiner_residual_a(P: Pairing, p: AutPair, a: LinComb, u: LinComb,
                             m: LinComb) -> Tuple[LinComb, LinComb]:
    """First intertwiner law: the twisted canonical multiplier exchanges
    the co-opposite coproduct of ``a`` with its coproduct composed, on the
    second leg, with the grading's automorphism quotient.  Applied to
    ``(u (x) m)`` — a crossed value at ``p`` and a plain A value.  Labels
    are flat ``(A, B, A)`` triples."""
    A, B = P.A, P.B
    t_a, aut_a, aut = A.t_image, A.aut_basis, B.aut_basis
    derived = P._gaut[p]
    binv = derived.beta_inv
    u_items = u.terms.items()
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    # lhs: W-twist times co-opposite coproduct
    n = A.local_unit_for(m.support()).terms
    for la, ca in a.terms.items():
        for l0, k0 in n.items():
            for (a1n, a2), c1 in t_a(3, la, l0).terms.items():
                tail = _lmul(A, a1n, m.terms)
                if not tail:
                    continue
                a2u: Dict = {}                    # (a2 |x| 1) * u, scaled
                a_left_into(P, a2u, ca * k0 * c1, a2, u_items)
                if not a2u:
                    continue
                for wb, wa, cw in P.w.candidates_left(list(tail)):
                    s2 = _lmul(A, wa, tail)
                    if not s2:
                        continue
                    s1: Dict = {}
                    b_left_into(P, p, s1, cw, aut(binv, wb), a2u.items())
                    for (l1a, l1b), c2 in s1.items():
                        for l2, c3 in s2.items():
                            add_term(lhs_terms, (l1a, l1b, l2), c2 * c3)
    # rhs: coproduct with precomposed second leg, times the W-twist
    psi, psi_inv = derived.quotient, derived.quotient_inv
    cands = []
    union: Dict = {}
    for wb, wa, cw in P.w.candidates_left(m.support()):
        tail = _lmul(A, wa, m.terms)
        union.update(dict.fromkeys(tail))
        if tail:
            # (1 |x| binv(wb)) * u, the same for every term of a
            wu: Dict = {}
            b_left_into(P, p, wu, cw, aut(binv, wb), u_items)
            if wu:
                cands.append((tail, wu))
    if union:
        n_all = A.local_unit_for(list(union))
        n2 = A.apply_aut(psi, n_all).terms
        for la, ca in a.terms.items():
            for l0, k0 in n2.items():
                for (a1, a2n), c1 in t_a(1, la, l0).terms.items():
                    lifted = aut_a(psi_inv, a2n)
                    cc = ca * k0 * c1
                    for tail, wu in cands:
                        s2 = _lmul(A, lifted, tail)
                        if not s2:
                            continue
                        s1: Dict = {}
                        a_left_into(P, s1, cc, a1, wu.items())
                        for (l1a, l1b), c2 in s1.items():
                            for l2, c3 in s2.items():
                                add_term(rhs_terms, (l1a, l1b, l2), c2 * c3)
    return LinComb(lhs_terms), LinComb(rhs_terms)


def w_intertwiner_residual_b(P: Pairing, p: AutPair, q: AutPair, b: LinComb,
                             m: LinComb, u: LinComb
                             ) -> Tuple[LinComb, LinComb]:
    """Second intertwiner law: the twisted canonical multiplier exchanges
    the graded coproduct of ``b`` with an automorphism-dressed co-opposite
    coproduct.  Applied to ``(m (x) u)`` — a plain B value and a crossed
    value at ``q``; the twist automorphism comes from ``p``.  Labels are
    flat ``(B, A, B)`` triples."""
    B = P.B
    t_b, aut = B.t_image, B.aut_basis
    binv = P._gaut[p].beta_inv
    gamma = q.alpha
    gamma_p, gamma_p_inv, aut1, aut1_inv = P._wbaut[p, q]
    u_items = u.terms.items()
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    # lhs: W-twist times the graded coproduct legs
    c = P.crossed_right_unit(q, u)
    c0 = B.apply_aut(gamma_p_inv, c).terms
    for lb, cb in b.terms.items():
        for l0, k0 in c0.items():
            for (b1, b2c), c1 in t_b(1, lb, l0).terms.items():
                s: Dict = {}
                b_left_into(P, q, s, cb * k0 * c1, aut(gamma_p, b2c), u_items)
                if not s:
                    continue
                gb1m = _lmul(B, aut(gamma, b1), m.terms)
                if not gb1m:
                    continue
                for wb, wa, cw in P.w.candidates_left([t[0] for t in s]):
                    s2: Dict = {}
                    a_left_into(P, s2, cw, wa, s.items())
                    if not s2:
                        continue
                    s1 = _lmul(B, aut(binv, wb), gb1m)
                    for l1, cc1 in s1.items():
                        for (l2a, l2b), cc2 in s2.items():
                            add_term(lhs_terms, (l1, l2a, l2b), cc1 * cc2)
    # rhs: dressed co-opposite coproduct times the W-twist
    for wb, wa, cw in P.w.candidates_left([t[0] for t in u.terms]):
        emb: Dict = {}
        a_left_into(P, emb, cw, wa, u_items)
        if not emb:
            continue
        y = _lmul(B, aut(binv, wb), m.terms)
        if not y:
            continue
        n = B.local_unit_for(list(y))
        c0p = B.apply_aut(aut1_inv, n).terms
        emb_items = emb.items()
        for lb, cb in b.terms.items():
            for l0, k0 in c0p.items():
                for (b1, b2c), c1 in t_b(1, lb, l0).terms.items():
                    s1 = _lmul(B, aut(aut1, b2c), y)
                    if not s1:
                        continue
                    s2: Dict = {}
                    b_left_into(P, q, s2, cb * k0 * c1, aut(gamma_p, b1),
                                emb_items)
                    for l1, cc1 in s1.items():
                        for (l2a, l2b), cc2 in s2.items():
                            add_term(rhs_terms, (l1, l2a, l2b), cc1 * cc2)
    return LinComb(lhs_terms), LinComb(rhs_terms)
