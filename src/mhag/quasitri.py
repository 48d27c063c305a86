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
The canonical multiplier, the grading-group product and the crossing
action come from the pairing (``P.w``, ``P.pair_mul``, ``P.skew``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .cograded import _second_leg_aut, comul_apply_full, xi_on_legs
from .crossed import a_embed_left, a_embed_right, b_embed_left, b_embed_right
from .groups import AutPair, aut_pair_inv
from .linear import LinComb, add_term
from .pairing import Pairing


def r_apply(P: Pairing, left_g: AutPair, right_g: AutPair, uv: LinComb,
            side: str = "left") -> LinComb:
    """Apply the R-multiplier of the ordered pair ``(left_g, right_g)`` to a
    4-tuple tensor value (slot 1 at ``left_g``, slot 2 at ``right_g``)."""
    binv = left_g.beta.inverse()
    A, B = P.A, P.B
    out: Dict[Tuple, object] = {}
    if side == "left":
        for (ua, ub, va, vb), c in uv.terms.items():
            uval = LinComb.unit((ua, ub))
            vval = LinComb.unit((va, vb))
            for wb, wa, cw in P.w.candidates_left([va]):
                s2 = a_embed_left(P, A.lc(wa), vval)
                if s2.is_zero():
                    continue
                s1 = b_embed_left(P, left_g, B.apply_aut(binv, B.lc(wb)),
                                  uval)
                if s1.is_zero():
                    continue
                for (l1a, l1b), c1 in s1.terms.items():
                    for (l2a, l2b), c2 in s2.terms.items():
                        add_term(out, (l1a, l1b, l2a, l2b), c * cw * c1 * c2)
        return LinComb(out)
    if side != "right":
        raise ValueError(f"unknown r_apply side: {side!r}")
    for (ua, ub, va, vb), c in uv.terms.items():
        uval = LinComb.unit((ua, ub))
        vval = LinComb.unit((va, vb))
        for wb, wa, cw in P.w.candidates_right(right_g, va, vb):
            s1 = b_embed_right(P, uval, B.apply_aut(binv, B.lc(wb)))
            if s1.is_zero():
                continue
            s2 = a_embed_right(P, right_g, vval, A.lc(wa))
            if s2.is_zero():
                continue
            for (l1a, l1b), c1 in s1.terms.items():
                for (l2a, l2b), c2 in s2.terms.items():
                    add_term(out, (l1a, l1b, l2a, l2b), c * cw * c1 * c2)
    return LinComb(out)


def _comul_b_embedded(P: Pairing, b_tilde: LinComb, left_g: AutPair,
                      right_g: AutPair, u: LinComb, v: LinComb) -> LinComb:
    """``Delta(1 |x| b~) * (u (x) v)`` for a B-embedded multiplier: the
    graded comultiplication has no A-legs here, so both slots are plain
    B-embedded left multiplications, covered on the right leg."""
    B = P.B
    gamma = right_g.alpha
    gamma_p = _second_leg_aut(P, left_g, right_g)
    c = P.crossed_right_unit(right_g, v)
    c0 = B.apply_aut(gamma_p.inverse(), c)
    out: Dict[Tuple, object] = {}
    for lb, cb in b_tilde.terms.items():
        legs = B.t_pair(1, B.lc(lb), c0)
        for (b1, b2c), c1 in legs.terms.items():
            s2 = b_embed_left(P, right_g, B.apply_aut(gamma_p, B.lc(b2c)), v)
            if s2.is_zero():
                continue
            s1 = b_embed_left(P, left_g, B.apply_aut(gamma, B.lc(b1)), u)
            if s1.is_zero():
                continue
            for (l1a, l1b), c2 in s1.terms.items():
                for (l2a, l2b), c3 in s2.terms.items():
                    add_term(out, (l1a, l1b, l2a, l2b), cb * c1 * c2 * c3)
    return LinComb(out)


# ---------------------------------------------------------------------------
# The four structural identities of the R-multiplier.
# ---------------------------------------------------------------------------

def qt_conjugation_residual(P: Pairing, t: AutPair, p: AutPair, q: AutPair,
                            uv: LinComb) -> Tuple[LinComb, LinComb]:
    """Crossing-equivariance: conjugating both legs of the R-multiplier by
    the crossing action of ``t`` lands on the R-multiplier of the
    conjugated grading pair.  ``uv`` is a 4-tuple tensor with slots at the
    conjugated gradings."""
    mul = P.pair_mul
    tinv = aut_pair_inv(t)
    tp = mul(mul(t, p), tinv)
    tq = mul(mul(t, q), tinv)
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
    mul = P.pair_mul
    A, B = P.A, P.B
    pq = mul(p, q)
    binv = pq.beta.inverse()
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    qinv = aut_pair_inv(q)
    qrq = mul(mul(q, r), qinv)
    for (ua, ub, va, vb, za, zb), c in uvz.terms.items():
        u = LinComb.unit((ua, ub))
        v = LinComb.unit((va, vb))
        z = LinComb.unit((za, zb))
        # lhs: (Delta_{p,q} (x) id) applied to the R-multiplier at (p*q, r)
        for wb, wa, cw in P.w.candidates_left([za]):
            s3 = a_embed_left(P, A.lc(wa), z)
            if s3.is_zero():
                continue
            btilde = B.apply_aut(binv, B.lc(wb))
            s12 = _comul_b_embedded(P, btilde, p, q, u, v)
            for (l1a, l1b, l2a, l2b), c1 in s12.terms.items():
                for (l3a, l3b), c2 in s3.terms.items():
                    add_term(lhs_terms, (l1a, l1b, l2a, l2b, l3a, l3b),
                             c * cw * c1 * c2)
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
    binv = p.beta.inverse()
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    for (ua, ub, va, vb, za, zb), c in uvz.terms.items():
        u = LinComb.unit((ua, ub))
        v = LinComb.unit((va, vb))
        z = LinComb.unit((za, zb))
        # lhs: the A-leg coproduct (co-opposite) spread over slots 3 and 2
        n = A.local_unit_for([za])
        for wb, wa, cw in P.w.candidates_pairs([za], [va]):
            s1 = b_embed_left(P, p, B.apply_aut(binv, B.lc(wb)), u)
            if s1.is_zero():
                continue
            legs = A.t_pair(3, A.lc(wa), n)
            for (a1n, a2), c1 in legs.terms.items():
                s2 = a_embed_left(P, A.lc(a2), v)
                if s2.is_zero():
                    continue
                s3 = a_embed_left(P, A.lc(a1n), z)
                if s3.is_zero():
                    continue
                for (l1a, l1b), c2 in s1.terms.items():
                    for (l2a, l2b), c3 in s2.terms.items():
                        for (l3a, l3b), c4 in s3.terms.items():
                            add_term(lhs_terms,
                                     (l1a, l1b, l2a, l2b, l3a, l3b),
                                     c * cw * c1 * c2 * c3 * c4)
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
    mul = P.pair_mul
    pinv = aut_pair_inv(p)
    pprime = mul(mul(p, q), pinv)
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
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    c0 = B.local_unit_for(m2.support())
    for wb, wa, cw in P.w.candidates_left(n.support()):
        s3 = A.mul(A.lc(wa), n)
        if s3.is_zero():
            continue
        legs = B.t_pair(1, B.lc(wb), c0)
        for (b1, b2c), c1 in legs.terms.items():
            s1 = B.mul(B.lc(b1), m)
            if s1.is_zero():
                continue
            s2 = B.mul(B.lc(b2c), m2)
            if s2.is_zero():
                continue
            for l1, cc1 in s1.terms.items():
                for l2, cc2 in s2.terms.items():
                    for l3, cc3 in s3.terms.items():
                        add_term(lhs_terms, (l1, l2, l3),
                                 cw * c1 * cc1 * cc2 * cc3)
    for wb, wa, cw in P.w.candidates_left(n.support()):
        mid3 = A.mul(A.lc(wa), n)
        if mid3.is_zero():
            continue
        mid2 = B.mul(B.lc(wb), m2)
        if mid2.is_zero():
            continue
        for wb2, wa2, cw2 in P.w.candidates_left(mid3.support()):
            s3 = A.mul(A.lc(wa2), mid3)
            if s3.is_zero():
                continue
            s1 = B.mul(B.lc(wb2), m)
            if s1.is_zero():
                continue
            for l1, cc1 in s1.terms.items():
                for l2, cc2 in mid2.terms.items():
                    for l3, cc3 in s3.terms.items():
                        add_term(rhs_terms, (l1, l2, l3),
                                 cw * cw2 * cc1 * cc2 * cc3)
    return LinComb(lhs_terms), LinComb(rhs_terms)


def w_coproduct_a_residual(P: Pairing, m: LinComb, n1: LinComb, n2: LinComb
                           ) -> Tuple[LinComb, LinComb]:
    """A-leg comultiplication of the canonical multiplier: comparing
    ``(id (x) Delta_A) W`` with the 12-13 product, applied to
    ``(m (x) n1 (x) n2)`` with the first slot in B, the rest in A."""
    A, B = P.A, P.B
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    n0 = A.local_unit_for(n2.support())
    for wb, wa, cw in P.w.candidates_pairs(n1.support(), n2.support()):
        s1 = B.mul(B.lc(wb), m)
        if s1.is_zero():
            continue
        legs = A.t_pair(1, A.lc(wa), n0)
        for (a1, a2n), c1 in legs.terms.items():
            s2 = A.mul(A.lc(a1), n1)
            if s2.is_zero():
                continue
            s3 = A.mul(A.lc(a2n), n2)
            if s3.is_zero():
                continue
            for l1, cc1 in s1.terms.items():
                for l2, cc2 in s2.terms.items():
                    for l3, cc3 in s3.terms.items():
                        add_term(lhs_terms, (l1, l2, l3),
                                 cw * c1 * cc1 * cc2 * cc3)
    for wb, wa, cw in P.w.candidates_left(n2.support()):
        mid3 = A.mul(A.lc(wa), n2)
        if mid3.is_zero():
            continue
        mid1 = B.mul(B.lc(wb), m)
        if mid1.is_zero():
            continue
        for wb2, wa2, cw2 in P.w.candidates_left(n1.support()):
            s2 = A.mul(A.lc(wa2), n1)
            if s2.is_zero():
                continue
            s1 = B.mul(B.lc(wb2), mid1)
            if s1.is_zero():
                continue
            for l1, cc1 in s1.terms.items():
                for l2, cc2 in s2.terms.items():
                    for l3, cc3 in mid3.terms.items():
                        add_term(rhs_terms, (l1, l2, l3),
                                 cw * cw2 * cc1 * cc2 * cc3)
    return LinComb(lhs_terms), LinComb(rhs_terms)


def w_inverse_residual(P: Pairing, m: LinComb, n: LinComb
                       ) -> Tuple[LinComb, LinComb, LinComb]:
    """Invertibility of the canonical multiplier: its antipode twist is a
    two-sided inverse.  Returns (left roundtrip, right roundtrip,
    expected), where expected is ``m (x) n`` itself."""
    A, B = P.A, P.B

    def apply_w(val: LinComb, antipode: bool) -> LinComb:
        out: Dict[Tuple, object] = {}
        for (l1, l2), c in val.terms.items():
            for wb, wa, cw in P.w.candidates_left([l2]):
                s2 = A.mul(A.lc(wa), A.lc(l2))
                if s2.is_zero():
                    continue
                bleg = B.antipode(B.lc(wb)) if antipode else B.lc(wb)
                s1 = B.mul(bleg, B.lc(l1))
                if s1.is_zero():
                    continue
                for lb, c1 in s1.terms.items():
                    for la, c2 in s2.terms.items():
                        add_term(out, (lb, la), c * cw * c1 * c2)
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
    alpha, beta = p
    binv = beta.inverse()
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    # lhs: W-twist times co-opposite coproduct
    n = A.local_unit_for(m.support())
    for la, ca in a.terms.items():
        legs = A.t_pair(3, A.lc(la), n)
        for (a1n, a2), c1 in legs.terms.items():
            tail = A.mul(A.lc(a1n), m)
            if tail.is_zero():
                continue
            for wb, wa, cw in P.w.candidates_left(tail.support()):
                s2 = A.mul(A.lc(wa), tail)
                if s2.is_zero():
                    continue
                s1 = b_embed_left(P, p, B.apply_aut(binv, B.lc(wb)),
                                  a_embed_left(P, A.lc(a2), u))
                if s1.is_zero():
                    continue
                for (l1a, l1b), c2 in s1.terms.items():
                    for l2, c3 in s2.terms.items():
                        add_term(lhs_terms, (l1a, l1b, l2),
                                 ca * c1 * cw * c2 * c3)
    # rhs: coproduct with precomposed second leg, times the W-twist
    psi = alpha.compose(binv)
    cands = list(P.w.candidates_left(m.support()))
    tails = {}
    union: Dict = {}
    for wb, wa, cw in cands:
        t = A.mul(A.lc(wa), m)
        tails[(wb, wa)] = t
        for l in t.support():
            union[l] = None
    if union:
        n_all = A.local_unit_for(list(union))
        n2 = P.precompose_A(psi.inverse(), n_all)
        for la, ca in a.terms.items():
            legs = A.t_pair(1, A.lc(la), n2)
            for (a1, a2n), c1 in legs.terms.items():
                lifted = P.precompose_A(psi, A.lc(a2n))
                for wb, wa, cw in cands:
                    tail = tails[(wb, wa)]
                    if tail.is_zero():
                        continue
                    s2 = A.mul(lifted, tail)
                    if s2.is_zero():
                        continue
                    s1 = a_embed_left(P, A.lc(a1),
                                      b_embed_left(P, p,
                                                   B.apply_aut(binv,
                                                               B.lc(wb)),
                                                   u))
                    if s1.is_zero():
                        continue
                    for (l1a, l1b), c2 in s1.terms.items():
                        for l2, c3 in s2.terms.items():
                            add_term(rhs_terms, (l1a, l1b, l2),
                                     ca * c1 * cw * c2 * c3)
    return LinComb(lhs_terms), LinComb(rhs_terms)


def w_intertwiner_residual_b(P: Pairing, p: AutPair, q: AutPair, b: LinComb,
                             m: LinComb, u: LinComb
                             ) -> Tuple[LinComb, LinComb]:
    """Second intertwiner law: the twisted canonical multiplier exchanges
    the graded coproduct of ``b`` with an automorphism-dressed co-opposite
    coproduct.  Applied to ``(m (x) u)`` — a plain B value and a crossed
    value at ``q``; the twist automorphism comes from ``p``.  Labels are
    flat ``(B, A, B)`` triples."""
    A, B = P.A, P.B
    beta = p.beta
    binv = beta.inverse()
    gamma, delta = q
    gamma_p = gamma.inverse().compose(beta).compose(gamma)
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    # lhs: W-twist times the graded coproduct legs
    c = P.crossed_right_unit(q, u)
    c0 = B.apply_aut(gamma_p.inverse(), c)
    for lb, cb in b.terms.items():
        legs = B.t_pair(1, B.lc(lb), c0)
        for (b1, b2c), c1 in legs.terms.items():
            s = b_embed_left(P, q, B.apply_aut(gamma_p, B.lc(b2c)), u)
            if s.is_zero():
                continue
            gb1m = B.mul(B.apply_aut(gamma, B.lc(b1)), m)
            if gb1m.is_zero():
                continue
            for wb, wa, cw in P.w.candidates_left(
                    [t[0] for t in s.terms]):
                s2 = a_embed_left(P, A.lc(wa), s)
                if s2.is_zero():
                    continue
                s1 = B.mul(B.apply_aut(binv, B.lc(wb)), gb1m)
                if s1.is_zero():
                    continue
                for l1, cc1 in s1.terms.items():
                    for (l2a, l2b), cc2 in s2.terms.items():
                        add_term(lhs_terms, (l1, l2a, l2b),
                                 cb * c1 * cw * cc1 * cc2)
    # rhs: dressed co-opposite coproduct times the W-twist
    aut1 = binv.compose(delta).compose(gamma_p)
    for wb, wa, cw in P.w.candidates_left([t[0] for t in u.terms]):
        emb = a_embed_left(P, A.lc(wa), u)
        if emb.is_zero():
            continue
        y = B.mul(B.apply_aut(binv, B.lc(wb)), m)
        if y.is_zero():
            continue
        n = B.local_unit_for(y.support())
        c0p = B.apply_aut(aut1.inverse(), n)
        for lb, cb in b.terms.items():
            legs = B.t_pair(1, B.lc(lb), c0p)
            for (b1, b2c), c1 in legs.terms.items():
                s1 = B.mul(B.apply_aut(aut1, B.lc(b2c)), y)
                if s1.is_zero():
                    continue
                s2 = b_embed_left(P, q, B.apply_aut(gamma_p, B.lc(b1)), emb)
                if s2.is_zero():
                    continue
                for l1, cc1 in s1.terms.items():
                    for (l2a, l2b), cc2 in s2.terms.items():
                        add_term(rhs_terms, (l1, l2a, l2b),
                                 cw * cb * c1 * cc1 * cc2)
    return LinComb(lhs_terms), LinComb(rhs_terms)
