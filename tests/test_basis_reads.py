"""The engine reads basis tables term by term; each function below must
equal its former body, which wrapped every basis label in a one-term value
before it multiplied, twisted or T-mapped it.

The former bodies are kept here verbatim, apart from reading the product
memo's fill and the T-map table of ``t_pair`` straight from the basis
primitives, and from calling ``local_unit_for`` and ``apply_aut`` in place
of the pairing's former pass-through wrappers.  So are the former module action, which the former bodies call
in place of ``Pairing.act``, and the value-level embeddings and the
per-call grading derivations that the library no longer has.  They run on multi-term inputs with mixed
coefficients over the six pairings of ``conftest.engine_cases``; only the
rescaled structure-constant pairing and H4 have basis images whose
coefficients are not 1, so only they see a dropped coefficient, and only
H4 has an antipode that is not an involution.

The former bodies of ``quasitri._w_left`` and ``cograded.b_split``, which
computed W on every basis tensor and every split afresh, are compared with
the two maps that read the pairing's tables ``_wl`` (where
``w_from_table`` is set) and ``_bsp`` (whenever B is unital), over these
pairings, an S3 session with ``drop-r-term`` planted and, for the split,
the double over Z, whose B has no unit.  The term-level core of the
right-covered coproduct, ``comul_right_into``, summed over the terms of
a value, is compared with ``comul_covered`` and its former body on these
pairings and an S3 session with ``swap-delta-legs`` planted.

Four former bodies that did not read a table are kept as well: the case
scheduler that built a list and decoded every tuple by mixed radix, the
``dcp-associativity`` residual that multiplied one-term values, and the
permutation product and inverse that worked index by index.
"""

import itertools
import math
import random
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest

from mhag import EnumSpec, linear, suites
from mhag.cograded import (b_split, comul_covered, comul_right_into,
                           graded_antipode, xi_on_legs)
from mhag.crossed import (_move, a_left_into, b_embed_left, b_left_into,
                          commutation_residual, dcp_assoc_residual, dcp_mul,
                          twist_inv, twist_map)
from mhag.groups import (AutPair, IntGroup, PermGroup, aut_pair_inv,
                         group_from_json, identity_aut, negation_aut)
from mhag.linear import LinComb, add_scaled, add_term
from mhag.pairing import DrinfeldPairing, PairingError
from mhag.quasitri import (_w_left, qt_coproduct_first_residual,
                           qt_coproduct_second_residual, r_apply,
                           w_coproduct_a_residual, w_coproduct_b_residual,
                           w_intertwiner_residual_a, w_intertwiner_residual_b,
                           w_inverse_residual)

from conftest import (IDENT, engine_cases, group_instance, inner, make_session,
                      s3_36_gradings, s3_gradings, session_spec)

CASES = engine_cases()
IDS = [c[0] for c in CASES]


# -- former bodies: mha ---------------------------------------------------------

def _ref_t_pair(X, i, x, y):
    out: Dict = {}
    for lx, cx in x.terms.items():
        for ly, cy in y.terms.items():
            base = X._t_basis(i, lx, ly)
            add_scaled(out, base.terms.items(), cx * cy)
    return LinComb(out)


def _ref_apply_aut(X, phi, x):
    if phi.is_identity():
        return x
    if len(x.terms) == 1:
        (label, c), = x.terms.items()
        return LinComb({X.aut_label(phi, label): c})
    return x.map_labels(lambda l: X.aut_label(phi, l))


# -- former bodies: pairing ---------------------------------------------------------

def _ref_act(P, variant, actor, target):
    if actor.is_zero() or target.is_zero():
        return LinComb.zero()
    if variant == "b>>a":
        c = P.A.local_unit_for(actor.support())
        tt = _ref_t_pair(P.A, 1, target, c)       # sum a1 (x) a2*c
        return _ref_contract(P, tt, actor, slot=2)
    if variant == "a<<b":
        c = P.A.local_unit_for(actor.support())
        tt = _ref_t_pair(P.A, 2, c, target)       # sum c*a1 (x) a2
        return _ref_contract(P, tt, actor, slot=1)
    if variant == "a>>b":
        e = P.B.local_unit_for(actor.support())
        tt = _ref_t_pair(P.B, 1, target, e)       # sum b1 (x) b2*e
        return _ref_contract_a(P, tt, actor, slot=2)
    if variant == "b<<a":
        e = P.B.local_unit_for(actor.support())
        tt = _ref_t_pair(P.B, 2, e, target)       # sum e*b1 (x) b2
        return _ref_contract_a(P, tt, actor, slot=1)
    raise PairingError(f"action-variant-unknown: {variant!r}")


def _ref_contract(P, tt, actor_b, slot):
    """Contract one tensor leg (in A) against a B-element via the form."""
    pairs = []
    for (l1, l2), c in tt.terms.items():
        a_leg, keep = (l2, l1) if slot == 2 else (l1, l2)
        for lb, cb in actor_b.terms.items():
            v = P.pair_basis(a_leg, lb)
            if v:
                pairs.append((keep, c * cb * v))
    return LinComb.from_pairs(pairs)


def _ref_contract_a(P, tt, actor_a, slot):
    """Contract one tensor leg (in B) against an A-element via the form."""
    pairs = []
    for (l1, l2), c in tt.terms.items():
        b_leg, keep = (l2, l1) if slot == 2 else (l1, l2)
        for la, ca in actor_a.terms.items():
            v = P.pair_basis(la, b_leg)
            if v:
                pairs.append((keep, c * ca * v))
    return LinComb.from_pairs(pairs)


# -- former bodies: crossed ---------------------------------------------------------

def a_embed_left(P, a, y):
    out: Dict = {}
    y_items = y.terms.items()
    for la, ca in a.terms.items():
        a_left_into(P, out, ca, la, y_items)
    return LinComb(out)


def b_embed_right(P, y, b):
    mul_basis = P.B.mul_basis
    out: Dict = {}
    for (la, lb), c in y.terms.items():
        for lb1, cb in b.terms.items():
            prod = mul_basis(lb, lb1).terms
            if prod:
                cc = c * cb
                for lb2, c2 in prod.items():
                    add_term(out, (la, lb2), cc * c2)
    return LinComb(out)


def a_embed_right(P, grading, y, a):
    mul_basis = P.A.mul_basis
    out: Dict = {}
    for (la1, lb1), c in y.terms.items():
        for la, ca in a.terms.items():
            for (la2, lb2), c1 in P._twc[grading, lb1, la]:
                prod = mul_basis(la1, la2).terms
                if prod:
                    cc = c * ca * c1
                    for la3, c2 in prod.items():
                        add_term(out, (la3, lb2), cc * c2)
    return LinComb(out)


def crossed_value(P, a, b):
    return a.map_labels(lambda l: (l,)).tensor(b.map_labels(lambda l: (l,)))


_MOVES = {
    (1, False): (3, False, "b>>a", 0),
    (1, True): (2, True, "b>>a", 0),
    (2, False): (4, True, "a<<b", 1),
    (2, True): (1, False, "a<<b", 1),
}


def _ref_move(P, variant, phi, x, inverse=False):
    t, cov_first, action, leg = _MOVES[variant, inverse]
    B = P.B
    out: Dict = {}
    e = P.B.local_unit_for([la for la, _ in x.terms])
    cov = B.apply_aut(phi.inverse(), B.antipode(e) if inverse else e)
    for (la, lb), c in x.terms.items():
        legs = (B.t_pair(t, cov, B.lc(lb)) if cov_first
                else B.t_pair(t, B.lc(lb), cov))
        for pair, c1 in legs.terms.items():
            actor = B.apply_aut(phi, B.lc(pair[leg]))
            if inverse:
                actor = B.antipode(actor, inverse=True)
            hit = _ref_act(P, action, actor, P.A.lc(la))
            for la2, c2 in hit.terms.items():
                add_term(out, (la2, pair[1 - leg]), c * c1 * c2)
    return LinComb(out)


def _ref_dcp_mul(P, grading, x, y):
    out: Dict = {}
    for xl, c in x.terms.items():
        for yl, cy in y.terms.items():
            la, lb = xl
            mid = b_embed_left(P, grading, P.B.lc(lb),
                               LinComb.unit(yl, P.field.one()))
            base = tuple(a_embed_left(P, P.A.lc(la), mid).terms.items())
            add_scaled(out, base, c * cy)
    return LinComb(out)


def _ref_commutation_residual(P, grading, a, b, y):
    alpha, beta = grading
    B = P.B
    e = P.B.local_unit_for(a.support())
    lhs: Dict = {}
    legs = B.t_pair(4, e, b)
    for (u, v), c1 in legs.terms.items():
        av = _ref_act(P, "a<<b", B.lc(v), a)
        inner = a_embed_left(P, av, y)
        part = b_embed_left(P, grading,
                            B.apply_aut(beta.inverse(), B.lc(u)), inner)
        add_scaled(lhs, part.terms.items(), c1)
    rhs: Dict = {}
    ab_inv = alpha.compose(beta.inverse())
    cov = B.apply_aut(beta.compose(alpha.inverse()), e)
    legs2 = B.t_pair(3, b, cov)
    for (u, v), c1 in legs2.terms.items():
        au = _ref_act(P, "b>>a", B.apply_aut(ab_inv, B.lc(u)), a)
        elem = crossed_value(P, au, B.apply_aut(beta.inverse(), B.lc(v)))
        add_scaled(rhs, dcp_mul(P, grading, elem, y).terms.items(), c1)
    return LinComb(lhs), LinComb(rhs)


# -- former bodies: cograded ----------------------------------------------------------

# The two grading derivations that the engine made on every call, before it
# read them from the pairing's grading tables.
def _second_leg_aut(P, left_g, right_g):
    return right_g.beta.inverse().compose(P.pair_mul(left_g, right_g).beta)


def _xi_maps(P, actor, source):
    alpha, beta = actor
    pre = beta.compose(alpha.inverse())
    if P.skew:
        b_aut = alpha.compose(beta.inverse())
    else:
        gamma = source.alpha
        b_aut = alpha.compose(gamma.inverse()).compose(
            beta.inverse()).compose(gamma)
    return pre, b_aut


def _ref_comul_covered(P, x, left_g, right_g, cover, side="right"):
    A, B = P.A, P.B
    gamma = right_g.alpha
    gamma_p = _second_leg_aut(P, left_g, right_g)
    out: Dict[Tuple, object] = {}
    if side == "right":
        c = P.crossed_right_unit(right_g, cover)
        c0 = B.apply_aut(gamma_p.inverse(), c)
        for (la, lb), cx in x.terms.items():
            legs1 = B.t_pair(1, B.lc(lb), c0)
            for (b1, b2c), c1 in legs1.terms.items():
                s2 = b_embed_left(P, right_g,
                                  B.apply_aut(gamma_p, B.lc(b2c)), cover)
                if s2.is_zero():
                    continue
                gb1 = B.apply_aut(gamma, B.lc(b1))
                for (a_t, b_t), c2 in s2.terms.items():
                    legs3 = A.t_pair(3, A.lc(la), A.lc(a_t))
                    for (a1c, a2), c3 in legs3.terms.items():
                        first, second = ((a2, a1c) if P.cop_first_leg
                                         else (a1c, a2))
                        for lb1g, c4 in gb1.terms.items():
                            add_term(out, (first, lb1g, second, b_t),
                                     cx * c1 * c2 * c3 * c4)
        return LinComb(out)
    alpha, beta = left_g
    one_b = B.unit()
    e = P.B.local_unit_for([t[0] for t in x.terms])
    cov_a = B.apply_aut(alpha.inverse(), e)
    for (la, lb), cx in x.terms.items():
        outer = B.t_pair(1, B.lc(lb), one_b)
        for (la2, lb2), cy in cover.terms.items():
            legs_uv = B.t_pair(3, B.lc(lb2), cov_a)
            for (u, v), c1 in legs_uv.terms.items():
                a_hit = _ref_act(P, "b>>a", B.apply_aut(alpha, B.lc(u)),
                                 A.lc(la))
                if a_hit.is_zero():
                    continue
                legs_st = A.t_pair(4, A.lc(la2), a_hit)
                if legs_st.is_zero():
                    continue
                legs_wz = B.t_pair(1, B.lc(v), one_b)
                for (w, z), c2 in legs_wz.terms.items():
                    actor = B.antipode(B.apply_aut(beta, B.lc(z)),
                                       inverse=True)
                    for (s, t), c3 in legs_st.terms.items():
                        x1 = _ref_act(P, "b>>a", actor, A.lc(s))
                        if x1.is_zero():
                            continue
                        for (b1, b2), c4 in outer.terms.items():
                            w_gb1 = B.mul(B.lc(w),
                                          B.apply_aut(gamma, B.lc(b1)))
                            if w_gb1.is_zero():
                                continue
                            g_b2 = B.apply_aut(gamma_p, B.lc(b2))
                            for la1, c5 in x1.terms.items():
                                first, second = ((t, la1) if P.cop_first_leg
                                                 else (la1, t))
                                for wl, c6 in w_gb1.terms.items():
                                    for lb2g, c7 in g_b2.terms.items():
                                        add_term(out, (first, wl, second, lb2g),
                                                 cx * cy * c1 * c2 * c3
                                                 * c4 * c5 * c6 * c7)
    return LinComb(out)


def _ref_graded_antipode(P, grading, x, inverse=False):
    A, B = P.A, P.B
    if not inverse:
        ab = grading.alpha.compose(grading.beta)
        total: Dict[Tuple, object] = {}
        for (la, lb), c in x.terms.items():
            b_val = B.apply_aut(ab, B.antipode(B.lc(lb)))
            a_val = A.antipode(A.lc(la), inverse=True)
            for lb2, c1 in b_val.terms.items():
                for la2, c2 in a_val.terms.items():
                    add_term(total, (lb2, la2), c * c1 * c2)
        return twist_map(P, aut_pair_inv(grading), LinComb(total))
    ginv = aut_pair_inv(grading)
    strip = ginv.beta.inverse().compose(ginv.alpha.inverse())
    back = twist_inv(P, grading, x)
    out: Dict[Tuple, object] = {}
    for (zb, wa), c in back.terms.items():
        a_val = A.antipode(A.lc(wa))
        b_val = B.antipode(B.apply_aut(strip, B.lc(zb)), inverse=True)
        for la, c1 in a_val.terms.items():
            for lb, c2 in b_val.terms.items():
                add_term(out, (la, lb), c * c1 * c2)
    return LinComb(out)


def _ref_xi_on_legs(P, actor, source, value, a_idx, b_idx):
    pre, b_aut = _xi_maps(P, actor, source)
    out: Dict[Tuple, object] = {}
    for label, c in value.terms.items():
        av = P.A.apply_aut(pre.inverse(), P.A.lc(label[a_idx]))
        bv = P.B.apply_aut(b_aut, P.B.lc(label[b_idx]))
        for la, c2 in av.terms.items():
            for lb, c3 in bv.terms.items():
                nl = list(label)
                nl[a_idx] = la
                nl[b_idx] = lb
                add_term(out, tuple(nl), c * c2 * c3)
    return LinComb(out)


# -- former bodies: quasitri ----------------------------------------------------------

def _ref_r_apply(P, left_g, right_g, uv, side="left"):
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


def _ref_comul_b_embedded(P, b_tilde, left_g, right_g, u, v):
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


def _ref_qt_coproduct_first(P, p, q, r, uvz):
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
        for wb, wa, cw in P.w.candidates_left([za]):
            s3 = a_embed_left(P, A.lc(wa), z)
            if s3.is_zero():
                continue
            btilde = B.apply_aut(binv, B.lc(wb))
            s12 = _ref_comul_b_embedded(P, btilde, p, q, u, v)
            for (l1a, l1b, l2a, l2b), c1 in s12.terms.items():
                for (l3a, l3b), c2 in s3.terms.items():
                    add_term(lhs_terms, (l1a, l1b, l2a, l2b, l3a, l3b),
                             c * cw * c1 * c2)
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


def _ref_qt_coproduct_second(P, p, q, r, uvz):
    A, B = P.A, P.B
    binv = p.beta.inverse()
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
    for (ua, ub, va, vb, za, zb), c in uvz.terms.items():
        u = LinComb.unit((ua, ub))
        v = LinComb.unit((va, vb))
        z = LinComb.unit((za, zb))
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
        t12 = r_apply(P, p, q, LinComb.unit((ua, ub, va, vb)), "left")
        for (u1a, u1b, v1a, v1b), c1 in t12.terms.items():
            t13 = r_apply(P, p, r, LinComb.unit((u1a, u1b, za, zb)), "left")
            for (u2a, u2b, z1a, z1b), c2 in t13.terms.items():
                add_term(rhs_terms, (u2a, u2b, v1a, v1b, z1a, z1b),
                         c * c1 * c2)
    return LinComb(lhs_terms), LinComb(rhs_terms)


def _ref_w_coproduct_b(P, m, m2, n):
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


def _ref_w_coproduct_a(P, m, n1, n2):
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


def _ref_w_inverse(P, m, n):
    A, B = P.A, P.B

    def apply_w(val, antipode):
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
    left_rt = apply_w(apply_w(start, True), False)
    right_rt = apply_w(apply_w(start, False), True)
    return left_rt, right_rt, start


def _ref_w_intertwiner_a(P, p, a, u, m):
    A, B = P.A, P.B
    alpha, beta = p
    binv = beta.inverse()
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
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
        n2 = A.apply_aut(psi, n_all)
        for la, ca in a.terms.items():
            legs = A.t_pair(1, A.lc(la), n2)
            for (a1, a2n), c1 in legs.terms.items():
                lifted = A.apply_aut(psi.inverse(), A.lc(a2n))
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


def _ref_w_intertwiner_b(P, p, q, b, m, u):
    A, B = P.A, P.B
    beta = p.beta
    binv = beta.inverse()
    gamma, delta = q
    gamma_p = gamma.inverse().compose(beta).compose(gamma)
    lhs_terms: Dict[Tuple, object] = {}
    rhs_terms: Dict[Tuple, object] = {}
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


# -- former bodies: the two maps the pairing now tables --------------------------

def _ref_w_left(P, terms, b_at, a_at, binv=None):
    if not terms:
        return {}
    a_mul, aut = P.A.mul_basis, P.B.aut_basis
    candidates = P.w.candidates_left
    if binv is not None and binv.is_identity():
        binv = None
    out = {}
    if type(b_at) is tuple:
        i, grading = b_at
        for key, c in terms.items():
            la, k, y = key[a_at], list(key), ((key[i:i + 2], c),)
            for wb, wa, cw in candidates((la,)):
                s_a = a_mul(wa, la).terms
                if not s_a:
                    continue
                s_b = {}
                b_left_into(P, grading, s_b, cw,
                            wb if binv is None else aut(binv, wb), y)
                for (l1a, l1b), c1 in s_b.items():
                    k[i], k[i + 1] = l1a, l1b
                    for la2, c2 in s_a.items():
                        k[a_at] = la2
                        add_term(out, tuple(k), c1 * c2)
        return out
    b_mul = P.B.mul_basis
    for key, c in terms.items():
        la, lb, k = key[a_at], key[b_at], list(key)
        for wb, wa, cw in candidates((la,)):
            s_a = a_mul(wa, la).terms
            if not s_a:
                continue
            cc = c * cw
            for lb1, c1 in b_mul(wb if binv is None else aut(binv, wb),
                                 lb).terms.items():
                k[b_at], c1 = lb1, cc * c1
                for la2, c2 in s_a.items():
                    k[a_at] = la2
                    add_term(out, tuple(k), c1 * c2)
    return out


def _ref_b_split(P, lb, scale, right_g, gamma_p, gamma_p_inv, cover):
    B = P.B
    t_b, aut = B.t_image, B.aut_basis
    gamma = right_g.alpha
    c0 = B.apply_aut(gamma_p_inv, P.crossed_right_unit(right_g, cover)).terms
    cover_items = cover.terms.items()
    out = []
    for l0, k0 in c0.items():
        for (b1, b2c), c1 in t_b(1, lb, l0).terms.items():
            s2 = {}
            b_left_into(P, right_g, s2, scale * k0 * c1, aut(gamma_p, b2c),
                        cover_items)
            if s2:
                out.append((aut(gamma, b1), s2))
    return out


# -- former bodies: suites and groups ----------------------------------------------

def _ref_decode(i, pools):
    out = []
    for pool in reversed(pools):
        i, r = divmod(i, len(pool))
        out.append(pool[r])
    return tuple(reversed(out))


def _ref_cases(S, tag, primary, secondary=None, budget=suites.BUDGET):
    secondary = secondary or []
    pools = list(primary) + list(secondary)
    if not pools:
        return [()]
    for pool in pools:
        if not pool:
            return []
    total = 1
    for pool in pools:
        total *= len(pool)
    if not S.exhaustive:
        if total <= S.enum.max_cases:
            return itertools.product(*pools)
        rng = S.enum.rng(tag)
        return [tuple(rng.choice(pool) for pool in pools)
                for _ in range(S.enum.max_cases)]
    if total <= budget or not secondary:
        return itertools.product(*pools)
    n_sec = 1
    for pool in secondary:
        n_sec *= len(pool)
    n_prim = total // n_sec
    picks = max(1, (budget // 2) // n_prim)
    st = suites._stride(n_sec)
    out: List[Tuple] = []
    for i, prim in enumerate(itertools.product(*primary)):
        base = i * picks
        for j in range(picks):
            out.append(prim + _ref_decode(((base + j) * st + i) % n_sec,
                                          secondary))
    if 2 * n_sec <= budget:
        sweeps = min(n_prim, max(1, (budget - len(out)) // n_sec))
        for i in range(sweeps):
            prim = _ref_decode(i, primary)
            for j in range(n_sec):
                out.append(prim + _ref_decode(j, secondary))
    return out


def _ref_dcp_assoc(P, g, xl, yl, zl):
    x, y, z = (LinComb.unit(l) for l in (xl, yl, zl))
    return (dcp_mul(P, g, dcp_mul(P, g, x, y), z),
            dcp_mul(P, g, x, dcp_mul(P, g, y, z)))


def _ref_perm_op(group, x, y):
    """x y by composing image tuples: (x y)(i) = x(y(i))."""
    px, py = group.element_to_json(x), group.element_to_json(y)
    return group.parse_element([px[py[i]] for i in range(group.n)])


def _ref_perm_inv(group, x):
    out = [0] * group.n
    for i, xi in enumerate(group.element_to_json(x)):
        out[xi] = i
    return group.parse_element(out)


# -- the comparisons ---------------------------------------------------------------


class _Inputs:
    """Random multi-term inputs over one pairing, with mixed coefficients."""

    def __init__(self, name, P, coeffs):
        enum = EnumSpec(window=3)
        self.a = P.A.basis_labels(enum.window)
        self.b = P.B.basis_labels(enum.window)
        self.ab = [(la, lb) for la in self.a for lb in self.b]
        self.coeffs = coeffs
        self.rng = random.Random(name)

    def value(self, labels, size=None):
        """A value of ``size`` (1 to 3 when not given) drawn terms."""
        size = size or self.rng.randint(1, 3)
        return LinComb.from_pairs(
            (self.rng.choice(labels), self.rng.choice(self.coeffs))
            for _ in range(size))

    def tensor(self, slots, size=None):
        """A value over flat labels, one label family per slot."""
        size = size or self.rng.randint(1, 2)
        return LinComb.from_pairs(
            (sum((self.rng.choice(s) for s in slots), ()),
             self.rng.choice(self.coeffs))
            for _ in range(size))

    def crossed4(self, size=None):
        return self.tensor([self.ab, self.ab], size)

    def crossed6(self, size=None):
        return self.tensor([self.ab, self.ab, self.ab], size)


# A pairing with at most this many (x, cover) pairs of crossed basis labels
# compares the covered coproduct on every pair.  H4, with 16 labels, is one:
# its antipode is not an involution, and two random draws can miss a swap
# of S and S^-1.
EXHAUSTIVE_PAIRS = 256


def _setup(case):
    name, make, gradings, coeffs = case
    P = make()
    return P, gradings, _Inputs(name, P, coeffs)


def _pairs(gradings):
    return [(p, q) for p in gradings for q in gradings]


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestBasisReads:

    def test_t_pair_and_apply_aut(self, case):
        P, gradings, inp = _setup(case)
        for X, labels in ((P.A, inp.a), (P.B, inp.b)):
            for i in (1, 2, 3, 4):
                for _ in range(3):
                    x, y = inp.value(labels), inp.value(labels)
                    assert X.t_pair(i, x, y) == _ref_t_pair(X, i, x, y)
            for g in gradings:
                for phi in g:
                    for size in (1, 2, 3):
                        x = inp.value(labels, size)
                        assert X.apply_aut(phi, x) == _ref_apply_aut(X, phi, x)

    def test_act(self, case):
        P, _, inp = _setup(case)
        # An unknown variant is refused before the action table keeps it.
        with pytest.raises(PairingError,
                           match=r"^action-variant-unknown: 'b>>b'$"):
            P.act("b>>b", inp.value(inp.b), inp.value(inp.a))
        assert not P._act
        for variant, actors, targets in (("b>>a", inp.b, inp.a),
                                         ("a<<b", inp.b, inp.a),
                                         ("a>>b", inp.a, inp.b),
                                         ("b<<a", inp.a, inp.b)):
            for size in (1, 2, 3):
                for _ in range(3):
                    actor = inp.value(actors, size)
                    target = inp.value(targets)
                    acted = P.act(variant, actor, target)
                    assert acted == _ref_act(P, variant, actor, target)
                    # A repeated call reads the table and fills nothing new.
                    filled = set(P._act)
                    assert P.act(variant, actor, target) == acted
                    assert set(P._act) == filled

    def test_move(self, case):
        P, gradings, inp = _setup(case)
        for g in gradings:
            for variant in (1, 2):
                for inverse in (False, True):
                    for _ in range(2):
                        x = inp.value(inp.ab)
                        for phi in g:
                            assert _move(P, variant, phi, x, inverse) == \
                                _ref_move(P, variant, phi, x, inverse)

    def test_dcp_mul(self, case):
        P, gradings, inp = _setup(case)
        for g in gradings:
            for _ in range(4):
                x, y = inp.value(inp.ab), inp.value(inp.ab)
                assert dcp_mul(P, g, x, y) == _ref_dcp_mul(P, g, x, y)

    def test_dcp_assoc_residual(self, case):
        P, gradings, inp = _setup(case)
        for g in gradings:
            for _ in range(20):
                xl, yl, zl = (inp.rng.choice(inp.ab) for _ in range(3))
                assert dcp_assoc_residual(P, g, xl, yl, zl) == \
                    _ref_dcp_assoc(P, g, xl, yl, zl)

    def test_commutation_residual(self, case):
        P, gradings, inp = _setup(case)
        for g in gradings:
            for _ in range(3):
                a, b, y = inp.value(inp.a), inp.value(inp.b), \
                    inp.value(inp.ab)
                assert commutation_residual(P, g, a, b, y) == \
                    _ref_commutation_residual(P, g, a, b, y)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_comul_covered(self, case, side):
        P, gradings, inp = _setup(case)
        exhaustive = len(inp.ab) ** 2 <= EXHAUSTIVE_PAIRS
        if exhaustive:
            one = P.field.one()
            units = [(LinComb.unit(x, one), LinComb.unit(cover, one))
                     for x in inp.ab for cover in inp.ab]
        for p, q in _pairs(gradings):
            draws = units if exhaustive else [
                (inp.value(inp.ab), inp.value(inp.ab)) for _ in range(2)]
            for x, cover in draws:
                assert comul_covered(P, x, p, q, cover, side) == \
                    _ref_comul_covered(P, x, p, q, cover, side)

    def test_graded_antipode_and_xi_on_legs(self, case):
        P, gradings, inp = _setup(case)
        for g in gradings:
            for inverse in (False, True):
                for _ in range(3):
                    x = inp.value(inp.ab)
                    assert graded_antipode(P, g, x, inverse) == \
                        _ref_graded_antipode(P, g, x, inverse)
        # Every pair of the gradings' automorphisms: on S3 the A-leg map of
        # each grading is an involution, and the A-leg maps of mixed pairs
        # are not.
        auts = list(dict.fromkeys(phi for g in gradings for phi in g))
        for actor in [AutPair(a, b) for a in auts for b in auts]:
            source = inp.rng.choice(gradings)
            uv = inp.crossed4(3)
            for a_idx, b_idx in ((0, 1), (2, 3)):
                assert xi_on_legs(P, actor, source, uv, a_idx, b_idx) == \
                    _ref_xi_on_legs(P, actor, source, uv, a_idx, b_idx)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_r_apply(self, case, side):
        P, gradings, inp = _setup(case)
        for p, q in _pairs(gradings):
            for _ in range(2):
                uv = inp.crossed4()
                assert r_apply(P, p, q, uv, side) == \
                    _ref_r_apply(P, p, q, uv, side)

    def test_qt_coproduct_residuals(self, case):
        P, gradings, inp = _setup(case)
        # A one-term tensor, as the suites pass, and a multi-term one: the
        # right-hand sides apply W to the whole tensor at once.
        for p, q in _pairs(gradings)[:3]:
            r = gradings[-1]
            for size in (1, 3):
                uvz = inp.crossed6(size)
                assert qt_coproduct_first_residual(P, p, q, r, uvz) == \
                    _ref_qt_coproduct_first(P, p, q, r, uvz)
                assert qt_coproduct_second_residual(P, p, q, r, uvz) == \
                    _ref_qt_coproduct_second(P, p, q, r, uvz)

    def test_w_residuals(self, case):
        P, _, inp = _setup(case)
        for _ in range(2):
            m, m2 = inp.value(inp.b, 2), inp.value(inp.b, 2)
            n1, n2 = inp.value(inp.a, 2), inp.value(inp.a, 2)
            assert w_coproduct_b_residual(P, m, m2, n1) == \
                _ref_w_coproduct_b(P, m, m2, n1)
            assert w_coproduct_a_residual(P, m, n1, n2) == \
                _ref_w_coproduct_a(P, m, n1, n2)
            assert w_inverse_residual(P, m, n1) == _ref_w_inverse(P, m, n1)

    def test_w_intertwiner_residuals(self, case):
        P, gradings, inp = _setup(case)
        for p, q in _pairs(gradings):
            a, m = inp.value(inp.a), inp.value(inp.a)
            u = inp.value(inp.ab)
            assert w_intertwiner_residual_a(P, p, a, u, m) == \
                _ref_w_intertwiner_a(P, p, a, u, m)
            b, mb = inp.value(inp.b), inp.value(inp.b)
            assert w_intertwiner_residual_b(P, p, q, b, mb, u) == \
                _ref_w_intertwiner_b(P, p, q, b, mb, u)


# The pairing tables of W on a basis tensor and of the covered split: the
# cases of engine_cases and an S3 session with ``drop-r-term`` planted, whose
# W table must hold the planted W.
TABLE_CASES = engine_cases() + [
    ("s3-drop-r-term",
     lambda: make_session(session_spec(group_instance("symmetric", 3),
                                       corrupt="drop-r-term")).P,
     s3_gradings(), [Fraction(3, 2), -2, 5, Fraction(-1, 7)]),
]


def _w_left_layouts(inp, gradings):
    """(slot families, b_at, a_at) of flat tensors that W multiplies: plain
    B-slots and crossed slots, with the A-label before or after them."""
    a1, b1 = [(l,) for l in inp.a], [(l,) for l in inp.b]
    out = [([b1, a1], 0, 1), ([a1, b1, b1], 2, 0), ([b1, b1, a1], 1, 2)]
    for g in gradings:
        out += [([inp.ab, a1], (0, g), 2), ([inp.ab, inp.ab], (0, g), 2),
                ([a1, inp.ab], (1, g), 0)]
    return out


def _twists(P, gradings):
    """``None``, an identity automorphism and every ``beta^-1`` of the
    gradings, as ``_w_left`` is passed them."""
    identity = identity_aut(gradings[0].alpha.group)
    return [None, identity] + list(dict.fromkeys(
        P._gaut[g].beta_inv for g in gradings))


def _check_w_left(P, inp, gradings):
    for slots, b_at, a_at in _w_left_layouts(inp, gradings):
        for binv in _twists(P, gradings):
            value = inp.tensor(slots, 3)
            expected = _ref_w_left(P, value.terms, b_at, a_at, binv)
            # The first call fills the table, the second reads it.
            for _ in range(2):
                assert _w_left(P, value.terms, b_at, a_at, binv) == expected


def _check_b_split(P, inp, gradings):
    for p, q in _pairs(gradings):
        # The second-leg automorphisms of a split, and of the second
        # intertwiner law, which differ on S3.
        for gamma_p, gamma_p_inv in (P._split[p, q], P._wbaut[p, q][:2]):
            for _ in range(2):
                lb = inp.rng.choice(inp.b)
                scale = inp.rng.choice(inp.coeffs)
                cover = inp.value(inp.ab, 3)
                expected = _ref_b_split(P, lb, scale, q, gamma_p,
                                        gamma_p_inv, cover)
                for _ in range(2):
                    assert b_split(P, lb, scale, q, gamma_p, gamma_p_inv,
                                   cover) == expected


@pytest.mark.parametrize("case", TABLE_CASES,
                         ids=[c[0] for c in TABLE_CASES])
class TestPairingTables:
    """``_w_left`` and ``b_split`` against their former bodies, on
    multi-term values and covers with mixed coefficients.  W fills
    ``P._wl`` on every pairing here but Z and the double, which compute it
    afresh; every B here is unital, so every split fills ``P._bsp``."""

    def test_w_left(self, case):
        P, gradings, inp = _setup(case)
        _check_w_left(P, inp, gradings)
        assert bool(P._wl) == (case[0] not in ("z-sign", "double-f10007"))
        assert not P._bsp

    def test_b_split(self, case):
        P, gradings, inp = _setup(case)
        _check_b_split(P, inp, gradings)
        assert P._bsp
        assert not P._wl


def _double_z_case():
    Z = IntGroup()
    i, neg = identity_aut(Z), negation_aut(Z)
    return ("double-z", lambda: DrinfeldPairing(Z),
            [AutPair(i, i), AutPair(neg, i), AutPair(i, neg)],
            [Fraction(3, 2), -2, 5, Fraction(-1, 7)])


def test_b_split_on_a_non_unital_b():
    """The double over Z has no unit, so the cover of a split depends on
    the value it covers: its legs are computed against each cover and
    ``P._bsp`` stays empty."""
    P, gradings, inp = _setup(_double_z_case())
    assert not P.B.is_unital
    _check_b_split(P, inp, gradings)
    assert not P._bsp


# The cases of engine_cases, an S3 session with ``swap-delta-legs``
# planted, whose core must emit the A-legs swapped, and the double over Z,
# whose split is computed against each cover.
CORE_CASES = engine_cases() + [
    ("s3-swap-delta-legs",
     lambda: make_session(session_spec(group_instance("symmetric", 3),
                                       corrupt="swap-delta-legs")).P,
     s3_gradings(), [Fraction(3, 2), -2, 5, Fraction(-1, 7)]),
    _double_z_case(),
]


@pytest.mark.parametrize("case", CORE_CASES, ids=[c[0] for c in CORE_CASES])
def test_comul_right_into(case):
    """The core added over the terms of a multi-term x, with their
    coefficients, is the right-covered coproduct of x, as a term dict."""
    P, gradings, inp = _setup(case)
    assert P.cop_first_leg == (case[0] != "s3-swap-delta-legs")
    nonzero = 0
    for p, q in _pairs(gradings):
        gamma_p, gamma_p_inv = P._split[p, q]
        for _ in range(3):
            x, cover = inp.value(inp.ab, 3), inp.value(inp.ab, 3)
            out: Dict = {}
            for xl, cx in x.terms.items():
                comul_right_into(P, out, xl, cx, q, gamma_p, gamma_p_inv,
                                 cover)
            assert out == comul_covered(P, x, p, q, cover, "right").terms
            assert out == \
                _ref_comul_covered(P, x, p, q, cover, "right").terms
            nonzero += bool(out)
    assert nonzero


def test_full_tables_compute_misses_afresh(monkeypatch):
    """At the cap both tables stop growing, and a key they do not hold is
    computed again, to the same values."""
    cap = 5
    monkeypatch.setattr(linear, "MEMO_CAP", cap)
    P, gradings, inp = _setup(TABLE_CASES[IDS.index("s3-inner")])
    for _ in range(3):
        _check_w_left(P, inp, gradings)
        _check_b_split(P, inp, gradings)
        assert len(P._wl) == cap and len(P._bsp) == cap


# Exact-rank checks: they schedule no case, and on 36 gradings they take
# seconds.
_RANK_CHECKS = ("axiom-ii-surjectivity", "crossed-nondegenerate")


def _scheduled_calls(gradings, monkeypatch):
    """The arguments of every ``suites._cases`` call that the six suites of
    an exhaustive S3 session make, with the checks run on no cases."""
    S = make_session(session_spec(group_instance("symmetric", 3),
                                  gradings=gradings))
    calls = []

    def record(*args):
        calls.append(args)
        return []

    with monkeypatch.context() as m:
        m.setattr(suites, "_cases", record)
        for suite in suites.SUITE_NAMES:
            for name, run in suites.suite_axioms(S, suite):
                if name in _RANK_CHECKS:
                    continue
                try:
                    run()
                except suites.NoCasesError:
                    pass
    return calls


@pytest.mark.parametrize("gradings, n_capped", [
    ([[IDENT, IDENT], [inner((1, 0, 2)), inner((0, 2, 1))]], 6),
    (s3_36_gradings(), 13)], ids=["two-gradings", "36-gradings"])
def test_cases_match_the_former_list(gradings, n_capped, monkeypatch):
    """Every capped schedule yields the former list, tuple for tuple."""
    capped = [(S, tag, primary, secondary, budget)
              for S, tag, primary, secondary, budget
              in _scheduled_calls(gradings, monkeypatch)
              if math.prod(map(len, primary + secondary)) > budget]
    assert len(capped) == n_capped
    for call in capped:
        assert list(suites._cases(*call)) == _ref_cases(*call), call[1]


_PERM_GROUPS = [
    PermGroup.symmetric(3),
    PermGroup.symmetric(4),
    group_from_json({"kind": "perm", "degree": 6,
                     "generators": [[1, 2, 3, 4, 5, 0], [5, 4, 3, 2, 1, 0]]})]
_PERM_IDS = ["s3", "s4", "perm-dihedral-6"]


@pytest.mark.parametrize("group", _PERM_GROUPS, ids=_PERM_IDS)
def test_perm_op_matches_the_former_composition(group):
    """The product is x(y(i)) on every pair of elements."""
    els = group.elements()
    for x in els:
        for y in els:
            assert group.op(x, y) == _ref_perm_op(group, x, y)


@pytest.mark.parametrize("group", _PERM_GROUPS, ids=_PERM_IDS)
def test_perm_inv_matches_the_former_loop(group):
    for x in group.elements():
        assert group.inv(x) == _ref_perm_inv(group, x)
