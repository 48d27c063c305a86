"""Independent closed-form oracles for the concrete instances.

Each function here evaluates a structure map by a direct label formula,
bypassing the generic engine (T-maps, twist, covers) entirely.  The test
suites and the ``oracle`` verification suite compare the engine output
against these values with exact equality.

Group-instance formulas act on crossed basis labels ``(point, group)``:
the point-mass coordinate of the function algebra and the group-algebra
coordinate.  Double-instance formulas act on labels
``((group, point), (point, group))`` following the label conventions of
:class:`mhag.mha.DualDrinfeld` and :class:`mhag.mha.DrinfeldDouble`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .groups import AutPair, aut_pair_inv, aut_pair_mul
from .linear import LinComb, add_term
from .pairing import Pairing


# ---------------------------------------------------------------------------
# Group-algebra case: closed forms for every structure map.
# ---------------------------------------------------------------------------

def group_mul(P: Pairing, grading: AutPair, t1: Tuple, t2: Tuple) -> LinComb:
    """Product of two crossed basis terms at the given grading."""
    g = P.group
    alpha, beta = grading
    (p, x), (q, y) = t1, t2
    moved = g.op(g.op(beta(x), q), g.inv(alpha(x)))
    if p != moved:
        return LinComb.zero()
    return LinComb.unit((p, g.op(x, y)), P.field.one())


def group_comul_covered(P: Pairing, left_g: AutPair, right_g: AutPair,
                        t: Tuple, cover: Tuple) -> LinComb:
    """Right-covered graded coproduct of a crossed basis term: a single
    4-tuple term whose split point is pinned by the cover."""
    g = P.group
    gamma, delta = right_g
    gamma_p = right_g.beta.inverse().compose(
        aut_pair_mul(left_g, right_g).beta)
    (p, h), (m, l) = t, cover
    gph = gamma_p(h)
    z = g.op(g.op(delta(gph), m), g.inv(gamma(gph)))
    first = (g.op(g.inv(z), p), gamma(h))
    second = (z, g.op(gph, l))
    return LinComb.unit(first + second, P.field.one())


def group_counit(P: Pairing, t: Tuple):
    p, _h = t
    return P.field.one() if p == P.group.identity else P.field.zero()


def group_antipode(P: Pairing, grading: AutPair, t: Tuple
                   ) -> Tuple[AutPair, LinComb]:
    """Graded antipode of a crossed basis term; the value lands at the
    inverse grading."""
    g = P.group
    alpha, beta = grading
    p, h = t
    hinv = g.inv(h)
    point = g.op(g.op(alpha(hinv), g.inv(p)), beta(h))
    return aut_pair_inv(grading), LinComb.unit(
        (point, alpha(beta(hinv))), P.field.one())


def group_r_apply_left(P: Pairing, left_g: AutPair, right_g: AutPair,
                       tu: Tuple, tv: Tuple) -> LinComb:
    """Left application of the R-multiplier to a pair of crossed basis
    terms: the point mass of the second slot pins the surviving summand."""
    g = P.group
    alpha, beta = left_g
    (u, s), (v, t) = tu, tv
    binv_v = beta.inverse()(v)
    point = g.op(g.op(v, u), g.inv(alpha(binv_v)))
    first = (point, g.op(binv_v, s))
    return LinComb.unit(first + (v, t), P.field.one())


# ---------------------------------------------------------------------------
# Double case: dressed-core product, antipode, and a brute-force coproduct.
# ---------------------------------------------------------------------------

def double_core(P: Pairing, grading: AutPair, b_label: Tuple,
                a_label: Tuple) -> Tuple[Tuple, Tuple]:
    """The core exchange of the double component: moving a B basis term
    ``(p, h)`` left past an A basis term ``(l, q)`` at the given grading.
    Returns the resulting ``(a_label, b_label)`` pair (always one term)."""
    g = P.group
    alpha, beta = grading
    p, h = b_label
    l, q = a_label
    bh = beta(h)
    a_out = (g.op(g.op(bh, l), g.inv(bh)), g.op(g.op(bh, q), g.inv(alpha(h))))
    conj = g.op(g.op(g.inv(q), g.inv(l)), q)
    t = g.op(
        g.op(g.op(g.op(h, beta.inverse()(l)), g.inv(h)), p),
        g.op(g.op(h, alpha.inverse()(conj)), g.inv(h)))
    return a_out, (t, h)


def double_mul(P: Pairing, grading: AutPair, t1: Tuple, t2: Tuple) -> LinComb:
    """Product of two double crossed basis terms: the core exchange dressed
    by A-multiplication on the left and B-multiplication on the right."""
    A, B = P.A, P.B
    a1, b1 = t1
    a2, b2 = t2
    mid_a, mid_b = double_core(P, grading, b1, a2)
    out: Dict[Tuple, object] = {}
    left = A.mul(A.lc(a1), A.lc(mid_a))
    right = B.mul(B.lc(mid_b), B.lc(b2))
    for la, ca in left.terms.items():
        for lb, cb in right.terms.items():
            add_term(out, (la, lb), ca * cb)
    return LinComb(out)


def double_antipode(P: Pairing, grading: AutPair, t: Tuple) -> LinComb:
    """Graded antipode of a double crossed basis term (single term, at the
    inverse grading)."""
    g = P.group
    alpha, beta = grading
    (l, q), (p, h) = t
    ah = alpha(h)
    bh = beta(h)
    hinv = g.inv(h)
    conj = g.op(g.op(g.inv(q), g.inv(l)), q)
    a_out = (g.op(g.op(g.inv(ah), conj), ah),
             g.op(g.op(g.inv(ah), g.inv(q)), bh))

    def ab(x):
        return alpha(beta(x))

    r = g.op(
        g.op(ab(g.op(g.op(hinv, alpha.inverse()(conj)), g.inv(p))),
             alpha(l)),
        ab(h))
    return LinComb.unit((a_out, (r, ab(hinv))), P.field.one())


def double_comul_covered_brute(P: Pairing, left_g: AutPair, right_g: AutPair,
                               x: LinComb, cover: LinComb) -> LinComb:
    """Right-covered graded coproduct over the double pairing by eager
    expansion (finite groups only): both factor coproducts are expanded in
    full and the cover is absorbed with the closed-form product."""
    A, B = P.A, P.B
    gamma = right_g.alpha
    gamma_p = right_g.beta.inverse().compose(
        aut_pair_mul(left_g, right_g).beta)
    out: Dict[Tuple, object] = {}
    for (la, lb), cx in x.terms.items():
        cc_a = A.comul_eager(A.lc(la))
        cc_b = B.comul_eager(B.lc(lb))
        for (a1, a2), ca in cc_a.terms.items():
            for (b1, b2), cb in cc_b.terms.items():
                slot1 = (a2, B.aut_label(gamma, b1))
                half = LinComb.unit((a1, B.aut_label(gamma_p, b2)),
                                    cx * ca * cb)
                for lab2, c2 in half.terms.items():
                    for (lc2a, lc2b), c3 in cover.terms.items():
                        prod = double_mul(P, right_g, lab2, (lc2a, lc2b))
                        for l2, c4 in prod.terms.items():
                            add_term(out, slot1 + l2, c2 * c3 * c4)
    return LinComb(out)


# ---------------------------------------------------------------------------
# Finite-dimensional case: the dual-basis R-multiplier.
# ---------------------------------------------------------------------------

def dual_basis_r_terms(P: Pairing, left_g: AutPair):
    """The dual-basis form of the R-multiplier for a finite-dimensional
    pairing: pairs ``(B-value, A-label, coeff)`` with the B leg already
    twisted by the inverse of the first grading's second automorphism.
    The dual bases are the terms of the pairing's canonical multiplier
    ``P.w``."""
    binv = left_g.beta.inverse()
    out = []
    for wb, wa, cw in P.w.all_terms():
        out.append((P.B.apply_aut(binv, P.B.lc(wb)), wa, cw))
    return out
