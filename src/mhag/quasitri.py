"""The generalized R-multiplier and its exact applied identities.

For an ordered pair of gradings the R-multiplier is the canonical duality
multiplier W with its B-leg twisted by the inverse of the first grading's
second automorphism, embedded legwise into the two components.  It only
ever appears here *applied* to honest tensor values; the candidate
solvers on W keep every application a finite exact sum.

W is applied from the left in one place, ``_w_left``: its A-leg
multiplies one A-label of a flat tensor value, its B-leg (twisted when
asked) one plain B-label or one crossed slot.  W is linear, so its value
on one basis tensor, ``w_left_fill``, fixes it; where those basis tensors
recur (``P.w_from_table``: the group pairing of a finite group and the
structure-constant pairings) that value is read from the pairing's table
``P._wl``, and elsewhere (Z, the double) it is computed afresh for each
term.  The left R-multiplier, the
W_13 W_23 and W_12 W_13 sides of the two coproduct identities of W, the
plain W of its inverse law and the W step of both sides of the two
intertwiner laws are calls to it; the right-hand sides of
``qt_coproduct_first`` and ``qt_coproduct_second`` are compositions of
``_w_left`` and ``cograded.xi_on_legs`` on the whole six-slot tensor.
Six loops over W keep their own formula, each the independent side of its
identity: the right R-multiplier (W acts from the right), the lhs of
``qt_coproduct_first``, ``qt_coproduct_second``, ``w_coproduct_b`` and
``w_coproduct_a`` (a leg of W goes through a coproduct) and the
(S (x) id)W step of ``w_inverse_residual`` (its B-leg is an antipode
image).  Where the B-leg of W (or of ``b``) goes through the graded
coproduct, in the lhs of ``qt_coproduct_first`` and of
``w_intertwiner_residual_b``, its covered split is read from
``cograded.b_split``.

The residual functions each return the sides of a structural identity,
``(lhs, rhs)``, as honestly computed tensor values so callers can compare
or report counterexamples.  Slots in flat tensors are ordered as in
:mod:`mhag.cograded`: crossed slots contribute ``(A-label, B-label)``
pairs, plain algebra slots one label.  The grading-group arithmetic comes
from the pairing: products of gradings (``P._gmul``, filled from the
grading law ``P.pair_mul``), inverses and the automorphisms derived from
one grading (``P._gaut``), the second-leg automorphism of a split
(``P._split``), crossing targets (``P._cross``) and the automorphisms of
the second intertwiner law (``P._wbaut``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from .cograded import b_split, comul_apply_full, xi_on_legs
from .crossed import a_left_into, b_left_into
from .groups import AutPair
from .linear import LinComb, add_scaled, add_term
from .mha import MhaInstance

if TYPE_CHECKING:
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


def _w_terms(P: Pairing, terms: Dict, b_at, a_at: int, binv) -> Dict:
    """``W * value``, computed term by term (see ``_w_left``; ``binv`` is
    ``None`` for no twist)."""
    a_mul, aut = P.A.mul_basis, P.B.aut_basis
    candidates = P.w.candidates_left
    out: Dict[Tuple, object] = {}
    if type(b_at) is tuple:
        i, grading = b_at
        for key, c in terms.items():
            la, k, y = key[a_at], list(key), ((key[i:i + 2], c),)
            for wb, wa, cw in candidates((la,)):
                s_a = a_mul(wa, la).terms
                if not s_a:
                    continue
                s_b: Dict = {}
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


def w_left_fill(P: Pairing, binv, grading, *labels) -> tuple:
    """W applied from the left to one basis tensor: the fill of ``P._wl``.
    ``labels`` are the plain B-label and the A-label, or, when ``grading``
    is not ``None``, the two labels of a crossed slot at that grading and
    the A-label.  The result is a tuple of terms, each the new labels in
    the same places followed by the coefficient."""
    b_at = 0 if grading is None else (0, grading)
    image = _w_terms(P, {labels: P.field.one()}, b_at, len(labels) - 1, binv)
    return tuple(k + (c,) for k, c in image.items())


def _w_left(P: Pairing, terms: Dict, b_at, a_at: int, binv=None) -> Dict:
    """``W * value`` for a flat tensor value given as a term dict.  Each term
    ``(wb, wa)`` of the canonical multiplier multiplies ``wa`` into the
    A-label at position ``a_at`` and ``wb``, twisted by ``binv`` when one
    is given, into the plain B-label at ``b_at`` or, when ``b_at`` is
    ``(i, grading)``, into the crossed slot at ``i, i+1`` at that
    grading.  W is linear, so it is fixed by its value on each basis
    tensor, read from ``P._wl`` when ``P.w_from_table`` is set; else it
    is computed term by term."""
    if not terms:                   # an intertwiner lhs is often zero
        return {}
    if binv is not None and binv.is_identity():
        binv = None
    if not P.w_from_table:
        return _w_terms(P, terms, b_at, a_at, binv)
    wl = P._wl
    out: Dict[Tuple, object] = {}
    if type(b_at) is tuple:
        i, grading = b_at
        j = i + 1
        for key, c in terms.items():
            k = list(key)
            for l1a, l1b, la2, cw in wl[binv, grading, key[i], key[j],
                                        key[a_at]]:
                k[i], k[j], k[a_at] = l1a, l1b, la2
                add_term(out, tuple(k), c * cw)
        return out
    for key, c in terms.items():
        k = list(key)
        for lb1, la2, cw in wl[binv, None, key[b_at], key[a_at]]:
            k[b_at], k[a_at] = lb1, la2
            add_term(out, tuple(k), c * cw)
    return out


def r_apply(P: Pairing, left_g: AutPair, right_g: AutPair, uv: LinComb,
            side: str = "left") -> LinComb:
    """Apply the R-multiplier of the ordered pair ``(left_g, right_g)`` to a
    4-tuple tensor value (slot 1 at ``left_g``, slot 2 at ``right_g``)."""
    binv = P._gaut[left_g].beta_inv
    if side == "left":
        return LinComb(_w_left(P, uv.terms, (0, left_g), 2, binv))
    if side != "right":
        raise ValueError(f"unknown r_apply side: {side!r}")
    # Own loop: W acts from the right, which ``_w_left`` does not cover.
    a_mul, b_mul, aut = P.A.mul_basis, P.B.mul_basis, P.B.aut_basis
    twc = P._twc
    out: Dict[Tuple, object] = {}
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
    a_mul, aut = P.A.mul_basis, P.B.aut_basis
    binv = P._gaut[P._gmul[p, q]].beta_inv
    gamma_p, gamma_p_inv = P._split[p, q]
    one = P.field.one()
    lhs_terms: Dict[Tuple, object] = {}
    for (ua, ub, va, vb, za, zb), c in uvz.terms.items():
        u_items = (((ua, ub), c),)
        v = LinComb.unit((va, vb))
        # lhs: (Delta_{p,q} (x) id) applied to the R-multiplier at (p*q, r);
        # own loop: the B-leg of W goes through the graded coproduct
        for wb, wa, cw in P.w.candidates_left([za]):
            s3 = a_mul(wa, za).terms              # (wa |x| 1) * z
            if not s3:
                continue
            for lb1g, s2 in b_split(P, aut(binv, wb), cw, q, gamma_p,
                                    gamma_p_inv, v):
                s1: Dict = {}
                b_left_into(P, p, s1, one, lb1g, u_items)
                for (l1a, l1b), c1 in s1.items():
                    for (l2a, l2b), c2 in s2.items():
                        c12 = c1 * c2
                        for l3a, c3 in s3.items():
                            add_term(lhs_terms, (l1a, l1b, l2a, l2b, l3a, zb),
                                     c12 * c3)
    # rhs: the 23-factor, then the 13-factor conjugated into place by the
    # crossing action of q on the third slot and back
    qinv = P._gaut[q].inv
    qrq = P._cross[q, r].target
    t23 = _w_left(P, uvz.terms, (2, q), 4, P._gaut[q].beta_inv)
    conj = xi_on_legs(P, q, r, LinComb(t23), 4, 5)
    t13 = _w_left(P, conj.terms, (0, p), 4, P._gaut[p].beta_inv)
    return LinComb(lhs_terms), xi_on_legs(P, qinv, qrq, LinComb(t13), 4, 5)


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
    for (ua, ub, va, vb, za, zb), c in uvz.terms.items():
        u_items = (((ua, ub), c),)
        # lhs: the A-leg coproduct (co-opposite) spread over slots 3 and 2;
        # own loop: the A-leg of W goes through Delta_A
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
    rhs = _w_left(P, _w_left(P, uvz.terms, (0, p), 2, binv), (0, p), 4, binv)
    return LinComb(lhs_terms), LinComb(rhs)


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
    conj = xi_on_legs(P, p, q, r_apply(P, p, q, u.tensor(v), "left"), 2, 3)
    rhs_terms: Dict[Tuple, object] = {}
    for (u1a, u1b, v1a, v1b), c in conj.terms.items():
        full = comul_apply_full(P, x, pprime, p, LinComb.unit((v1a, v1b)),
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
    # lhs, own loop: the B-leg of W goes through Delta_B
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
    # rhs: W_13 W_23, W applied from the left twice
    mmn = {(l1, l2, l3): c1 * c2 * c3 for l1, c1 in m.terms.items()
           for l2, c2 in m2.terms.items() for l3, c3 in n.terms.items()}
    rhs = _w_left(P, _w_left(P, mmn, 1, 2), 0, 2)
    return LinComb(lhs_terms), LinComb(rhs)


def w_coproduct_a_residual(P: Pairing, m: LinComb, n1: LinComb, n2: LinComb
                           ) -> Tuple[LinComb, LinComb]:
    """A-leg comultiplication of the canonical multiplier: comparing
    ``(id (x) Delta_A) W`` with the 12-13 product, applied to
    ``(m (x) n1 (x) n2)`` with the first slot in B, the rest in A."""
    A, B = P.A, P.B
    t_a = A.t_image
    lhs_terms: Dict[Tuple, object] = {}
    # lhs, own loop: the A-leg of W goes through Delta_A
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
    # rhs: W_12 W_13, W applied from the left twice
    mnn = {(l1, l2, l3): c1 * c2 * c3 for l1, c1 in m.terms.items()
           for l2, c2 in n1.terms.items() for l3, c3 in n2.terms.items()}
    rhs = _w_left(P, _w_left(P, mnn, 0, 2), 0, 1)
    return LinComb(lhs_terms), LinComb(rhs)


def w_inverse_residual(P: Pairing, m: LinComb, n: LinComb
                       ) -> Tuple[LinComb, LinComb, LinComb]:
    """Invertibility of the canonical multiplier: its antipode twist is a
    two-sided inverse.  Returns (left roundtrip, right roundtrip,
    expected), where expected is ``m (x) n`` itself."""
    B = P.B
    a_mul, b_mul = P.A.mul_basis, B.mul_basis

    def apply_sw(val: Dict) -> Dict:
        # Own loop: the B-leg of (S (x) id)W is an antipode image, not a
        # twisted basis label
        out: Dict[Tuple, object] = {}
        for (l1, l2), c in val.items():
            for wb, wa, cw in P.w.candidates_left([l2]):
                s2 = a_mul(wa, l2).terms
                if not s2:
                    continue
                s1: Dict = {}
                for lb, cb in B.antipode_basis(wb).terms.items():
                    add_scaled(s1, b_mul(lb, l1).terms.items(), cb)
                cc = c * cw
                for lb, c1 in s1.items():
                    for la, c2 in s2.items():
                        add_term(out, (lb, la), cc * c1 * c2)
        return out

    start = {(l1, l2): c1 * c2 for l1, c1 in m.terms.items()
             for l2, c2 in n.terms.items()}
    left_rt = _w_left(P, apply_sw(start), 0, 1)      # W (S W) = 1
    right_rt = apply_sw(_w_left(P, start, 0, 1))     # (S W) W = 1
    return LinComb(left_rt), LinComb(right_rt), LinComb(start)


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
    A = P.A
    a_mul, t_a, aut_a = A.mul_basis, A.t_image, A.aut_basis
    derived = P._gaut[p]
    binv = derived.beta_inv
    u_items = u.terms.items()
    # lhs: W-twist times co-opposite coproduct, built first
    cop: Dict[Tuple, object] = {}
    n = A.local_unit_for(m.support()).terms
    for la, ca in a.terms.items():
        for l0, k0 in n.items():
            for (a1n, a2), c1 in t_a(3, la, l0).terms.items():
                tail = _lmul(A, a1n, m.terms)
                if not tail:
                    continue
                a2u: Dict = {}                    # (a2 |x| 1) * u, scaled
                a_left_into(P, a2u, ca * k0 * c1, a2, u_items)
                for (l1a, l1b), c2 in a2u.items():
                    for l2, c3 in tail.items():
                        add_term(cop, (l1a, l1b, l2), c2 * c3)
    lhs = _w_left(P, cop, (0, p), 2, binv)
    # rhs: coproduct with precomposed second leg, times the W-twist; the
    # terms of W (u (x) m) are read in rows of one A-label
    um = {(l1a, l1b, l2): c1 * c2 for (l1a, l1b), c1 in u_items
          for l2, c2 in m.terms.items()}
    rows: Dict = {}
    for (l1a, l1b, l2), c in _w_left(P, um, (0, p), 2, binv).items():
        rows.setdefault(l2, {})[l1a, l1b] = c
    rhs_terms: Dict[Tuple, object] = {}
    if rows:
        psi, psi_inv = derived.quotient, derived.quotient_inv
        n2 = A.apply_aut(psi, A.local_unit_for(list(rows))).terms
        for la, ca in a.terms.items():
            for l0, k0 in n2.items():
                for (a1, a2n), c1 in t_a(1, la, l0).terms.items():
                    lifted = aut_a(psi_inv, a2n)
                    cc = ca * k0 * c1
                    for l2, row in rows.items():
                        s2 = a_mul(lifted, l2).terms
                        if not s2:
                            continue
                        s1: Dict = {}
                        a_left_into(P, s1, cc, a1, row.items())
                        for (l1a, l1b), c2 in s1.items():
                            for l3, c3 in s2.items():
                                add_term(rhs_terms, (l1a, l1b, l3), c2 * c3)
    return LinComb(lhs), LinComb(rhs_terms)


def w_intertwiner_residual_b(P: Pairing, p: AutPair, q: AutPair, b: LinComb,
                             m: LinComb, u: LinComb
                             ) -> Tuple[LinComb, LinComb]:
    """Second intertwiner law: the twisted canonical multiplier exchanges
    the graded coproduct of ``b`` with an automorphism-dressed co-opposite
    coproduct.  Applied to ``(m (x) u)`` — a plain B value and a crossed
    value at ``q``; the twist automorphism comes from ``p``.  Labels are
    flat ``(B, A, B)`` triples."""
    B = P.B
    b_mul, t_b, aut = B.mul_basis, B.t_image, B.aut_basis
    binv = P._gaut[p].beta_inv
    gamma_p, gamma_p_inv, aut1, aut1_inv = P._wbaut[p, q]
    u_items = u.terms.items()
    # lhs: W-twist times the graded coproduct legs, built first
    cop: Dict[Tuple, object] = {}
    for lb, cb in b.terms.items():
        for lb1g, s in b_split(P, lb, cb, q, gamma_p, gamma_p_inv, u):
            for l1, cc1 in _lmul(B, lb1g, m.terms).items():
                for (l2a, l2b), cc2 in s.items():
                    add_term(cop, (l1, l2a, l2b), cc1 * cc2)
    lhs = _w_left(P, cop, 0, 1, binv)
    # rhs: dressed co-opposite coproduct times the W-twist; the terms of
    # W (m (x) u) are read in rows of one B-label, each with its own unit
    mu = {(l1, l2a, l2b): c1 * c2 for l1, c1 in m.terms.items()
          for (l2a, l2b), c2 in u_items}
    rows: Dict = {}
    for (l1, l2a, l2b), c in _w_left(P, mu, 0, 1, binv).items():
        rows.setdefault(l1, {})[l2a, l2b] = c
    rhs_terms: Dict[Tuple, object] = {}
    for l1, row in rows.items():
        c0p = B.apply_aut(aut1_inv, B.local_unit_for([l1])).terms
        row_items = row.items()
        for lb, cb in b.terms.items():
            for l0, k0 in c0p.items():
                for (b1, b2c), c1 in t_b(1, lb, l0).terms.items():
                    s1 = b_mul(aut(aut1, b2c), l1).terms
                    if not s1:
                        continue
                    s2: Dict = {}
                    b_left_into(P, q, s2, cb * k0 * c1, aut(gamma_p, b1),
                                row_items)
                    for l3, cc1 in s1.items():
                        for (l2a, l2b), cc2 in s2.items():
                            add_term(rhs_terms, (l3, l2a, l2b), cc1 * cc2)
    return LinComb(lhs), LinComb(rhs_terms)
