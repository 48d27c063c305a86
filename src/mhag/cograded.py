"""The group-graded direct sum of diagonal crossed components.

The object built here is a direct sum, over the automorphism-pair group,
of the twisted components provided by :mod:`mhag.crossed`.  Components at
distinct gradings multiply to zero; each component multiplies within
itself.  On top of that sit the graded comultiplication (evaluated in
covered form on one slot), the graded counit and antipode, the crossing
action that permutes components by conjugation, and the twisted
comultiplication obtained by composing with the crossing action on the
first slot.

The second B-leg of the graded comultiplication is covered in one place,
``b_split``: it splits one B-label by ``Delta_B`` against a finite right
unit and returns the first legs, twisted, with the covered second legs as
crossed values.  The right side of ``comul_covered`` adds the image of
one basis term at a time through its core ``comul_right_into``, which
the export calls label by label; that core, the lhs of
``quasitri.qt_coproduct_first_residual`` and the lhs of
``quasitri.w_intertwiner_residual_b`` read it.  When B is unital its
unit is that right unit, whatever the cover, so the legs of the split are
read from the pairing's table ``P._bsp``: on every workload over 95 % of
the splits repeat their legs, over Z too.  Only a non-unital B, the
double over Z, computes them against each cover.

Conventions
-----------
* A homogeneous component value is a ``LinComb`` over ``(A-label,
  B-label)`` pairs; the grading is carried alongside it.
* ``comul_covered`` emits flat 4-tuples ``(A, B, A, B)``: the first pair
  is the slot at ``left_g``, the second the slot at ``right_g``.
* All sums are exact; covers are chosen so every intermediate is an
  honest element (never a formal multiplier).
* The coproduct-leg order is read from the pairing
  (``P.cop_first_leg``), and so is every automorphism derived from
  gradings: the second-leg automorphism of a split (``P._split``), the
  graded antipode's maps and the group inverse (``P._gaut``) and the
  crossing action (``P._cross``), whose entries follow the grading law
  ``P.pair_mul`` and the flag ``P.skew``.  A session may plant a defect on
  any of the three.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from .crossed import EngineError, b_left_into, dcp_mul, twist_inv, twist_map
from .groups import AutPair
from .linear import LinComb, add_scaled, add_term

if TYPE_CHECKING:
    from .pairing import Pairing


def graded_counit(P: Pairing, value: LinComb):
    """Tensor counit on a component value (and, by linearity, on sums),
    read from the basis counits of each term's labels."""
    eps_a, eps_b = P.A.counit_basis, P.B.counit_basis
    total = P.field.zero()
    for (la, lb), c in value.terms.items():
        total = total + c * eps_a(la) * eps_b(lb)
    return total


def _split_legs(P: Pairing, lb, right_g: AutPair, gamma_p, gamma_p_inv,
                unit: LinComb) -> List[Tuple]:
    """The legs ``(gamma(b1), gamma_p(b2), k)`` of the sum ``Delta_B(lb)``
    covered on its second leg by the ``gamma_p_inv`` image of ``unit``,
    with ``gamma = right_g.alpha``."""
    B = P.B
    t_b, aut = B.t_image, B.aut_basis
    gamma = right_g.alpha
    out = []
    for l0, k0 in B.apply_aut(gamma_p_inv, unit).terms.items():
        for (b1, b2c), c1 in t_b(1, lb, l0).terms.items():
            out.append((aut(gamma, b1), aut(gamma_p, b2c), k0 * c1))
    return out


def split_fill(P: Pairing, lb, right_g: AutPair, gamma_p,
               gamma_p_inv) -> tuple:
    """The legs of ``Delta_B(lb)`` covered by B's unit: the fill of
    ``P._bsp``."""
    return tuple(_split_legs(P, lb, right_g, gamma_p, gamma_p_inv,
                             P.B.unit()))


def b_split(P: Pairing, lb, scale, right_g: AutPair, gamma_p, gamma_p_inv,
            cover: LinComb) -> List[Tuple[object, Dict]]:
    """The B-leg of the graded coproduct, covered on its second leg: the
    pairs ``(gamma(b1), s2)`` of the sum ``Delta_B(lb)`` with ``gamma =
    right_g.alpha``, where ``s2`` is the term dict of ``scale * (1 |x|
    gamma_p(b2)) * cover`` at ``right_g``; pairs whose ``s2`` is zero are
    left out.  The cover of ``b2`` is the ``gamma_p_inv`` image of
    ``P.crossed_right_unit(right_g, cover)``, so every sum is finite.
    When B is unital that is B's unit, whatever the cover, so the legs are
    read from ``P._bsp``."""
    if P.B.is_unital:
        legs = P._bsp[lb, right_g, gamma_p, gamma_p_inv]
    else:
        legs = _split_legs(P, lb, right_g, gamma_p, gamma_p_inv,
                           P.crossed_right_unit(right_g, cover))
    cover_items = cover.terms.items()
    out = []
    for b1g, b2g, k in legs:
        s2: Dict = {}
        b_left_into(P, right_g, s2, scale * k, b2g, cover_items)
        if s2:
            out.append((b1g, s2))
    return out


def comul_right_into(P: Pairing, out: Dict, xl, scale, right_g: AutPair,
                     gamma_p, gamma_p_inv, cover: LinComb) -> None:
    """Add ``scale`` times the right-covered coproduct of the basis term
    ``xl`` (see ``comul_covered``) to the term dict ``out``; ``gamma_p``
    and ``gamma_p_inv`` are the split's entry of ``P._split``."""
    t_a, cop_first = P.A.t_image, P.cop_first_leg
    la, lb = xl
    for lb1g, s2 in b_split(P, lb, scale, right_g, gamma_p, gamma_p_inv,
                            cover):
        for (a_t, b_t), c2 in s2.items():
            for (a1c, a2), c3 in t_a(3, la, a_t).terms.items():
                first, second = (a2, a1c) if cop_first else (a1c, a2)
                add_term(out, (first, lb1g, second, b_t), c2 * c3)


def comul_covered(P: Pairing, x: LinComb, left_g: AutPair, right_g: AutPair,
                  cover: LinComb, side: str = "right") -> LinComb:
    """Covered graded comultiplication of a homogeneous value ``x`` (at the
    product grading ``left_g * right_g``) for the split ``(left_g, right_g)``.

    side="right": the value of ``Delta(x) * (1 (x) cover)`` with the cover
    at ``right_g``.  side="left": ``(cover (x) 1) * Delta(x)`` with the
    cover at ``left_g``; this variant needs a unital B.

    Output labels are flat 4-tuples ``(A, B, A, B)``.

    ``P.cop_first_leg`` false swaps which co-opposite leg of the A-part is
    emitted on which slot (a defect planted for mutation testing).
    """
    A, B = P.A, P.B
    gamma_p, gamma_p_inv = P._split[left_g, right_g]
    out: Dict[Tuple, object] = {}

    if side == "right":
        for xl, cx in x.terms.items():
            comul_right_into(P, out, xl, cx, right_g, gamma_p, gamma_p_inv,
                             cover)
        return LinComb(out)

    if side != "left":
        raise EngineError(f"unknown-comultiplication-side: {side!r}")
    if not B.is_unital:
        raise EngineError(
            "left-covered-comultiplication-requires-unital-B")
    alpha, beta = left_g
    gamma = right_g.alpha
    t_a, cop_first = A.t_image, P.cop_first_leg
    t_b, aut, b_mul, act_into = B.t_image, B.aut_basis, B.mul_basis, P.act_into
    one = P.field.one()
    one_b = B.unit().terms
    e = B.local_unit_for([t[0] for t in x.terms])
    cov_a = B.apply_aut(alpha.inverse(), e).terms
    for (la, lb), cx in x.terms.items():
        # honest b1 (x) b2, with the automorphisms of both legs applied
        outer = [(aut(gamma, b1), aut(gamma_p, b2), k1 * c4)
                 for l1, k1 in one_b.items()
                 for (b1, b2), c4 in t_b(1, lb, l1).terms.items()]
        for (la2, lb2), cy in cover.terms.items():
            for l0, k0 in cov_a.items():
                for (u, v), c1 in t_b(3, lb2, l0).terms.items():
                    a_hit: Dict = {}
                    act_into(a_hit, "b>>a", one, aut(alpha, u), la)
                    legs_st: Dict = {}
                    for lh, ch in a_hit.items():
                        add_scaled(legs_st, t_a(4, la2, lh).terms.items(), ch)
                    if not legs_st:
                        continue
                    cc = cx * cy * k0 * c1
                    for l1, k1 in one_b.items():
                        for (w, z), c2 in t_b(1, v, l1).terms.items():
                            actor = B.antipode_basis(aut(beta, z),
                                                     True).terms.items()
                            for (s, t), c3 in legs_st.items():
                                x1: Dict = {}
                                for ls, cs in actor:
                                    act_into(x1, "b>>a", cs, ls, s)
                                if not x1:
                                    continue
                                c23 = cc * k1 * c2 * c3
                                for gb1, gb2, c4 in outer:
                                    w_gb1 = b_mul(w, gb1).terms
                                    if not w_gb1:
                                        continue
                                    for la1, c5 in x1.items():
                                        first, second = ((t, la1) if cop_first
                                                         else (la1, t))
                                        c45 = c23 * c4 * c5
                                        for wl, c6 in w_gb1.items():
                                            add_term(out,
                                                     (first, wl, second, gb2),
                                                     c45 * c6)
    return LinComb(out)


def graded_antipode(P: Pairing, grading: AutPair, x: LinComb,
                    inverse: bool = False) -> LinComb:
    """The graded antipode of a component value at ``grading``; the result
    lives at the group inverse of ``grading``.

    Forward: twist, at the inverse grading, of the tensor
    ``(alpha beta S_B(b)) (x) S_A^{-1}(a)``.  Inverse: undo the twist at
    ``grading`` and strip the factor maps.
    """
    A, B = P.A, P.B
    aut = B.aut_basis
    derived = P._gaut[grading]
    if not inverse:
        ab = derived.alpha_beta
        total: Dict[Tuple, object] = {}
        for (la, lb), c in x.terms.items():
            b_val = B.antipode_basis(lb)
            a_val = A.antipode_basis(la, True)
            for lb2, c1 in b_val.terms.items():
                lb2 = aut(ab, lb2)
                for la2, c2 in a_val.terms.items():
                    add_term(total, (lb2, la2), c * c1 * c2)
        return twist_map(P, derived.inv, LinComb(total))
    # Inverse direction: x lives at `grading`; produce the unique value at
    # the inverse grading whose forward antipode is x.
    strip = derived.strip
    back = twist_inv(P, grading, x)                # labels (B, A)
    out: Dict[Tuple, object] = {}
    for (zb, wa), c in back.terms.items():
        a_val = A.antipode_basis(wa)
        b_val = B.antipode_basis(aut(strip, zb), True)
        for la, c1 in a_val.terms.items():
            for lb, c2 in b_val.terms.items():
                add_term(out, (la, lb), c * c1 * c2)
    return LinComb(out)


def xi_on_legs(P: Pairing, actor: AutPair, source: AutPair, value: LinComb,
               a_idx: int, b_idx: int) -> LinComb:
    """Apply the crossing action of ``actor`` to the crossed slot of a flat
    tensor occupying label positions ``(a_idx, b_idx)``; the leg maps
    are read from ``P._cross``."""
    _, a_aut, b_aut = P._cross[actor, source]
    aut_a, aut_b = P.A.aut_basis, P.B.aut_basis
    out: Dict[Tuple, object] = {}
    for label, c in value.terms.items():
        nl = list(label)
        nl[a_idx] = aut_a(a_aut, label[a_idx])
        nl[b_idx] = aut_b(b_aut, label[b_idx])
        add_term(out, tuple(nl), c)
    return LinComb(out)


def crossing_apply(P: Pairing, actor: AutPair, source: AutPair, x: LinComb
                   ) -> Tuple[AutPair, LinComb]:
    """Apply the crossing action of ``actor`` to a component value at
    ``source``; returns the target grading (the conjugate of ``source``
    by ``actor``) together with the transformed value."""
    return (P._cross[actor, source].target,
            xi_on_legs(P, actor, source, x, 0, 1))


def comul_apply_full(P: Pairing, x: LinComb, left_g: AutPair,
                     right_g: AutPair, u: LinComb, v: LinComb) -> LinComb:
    """``Delta(x) * (u (x) v)`` as an honest 4-tuple tensor: the right
    cover ``v`` truncates the legs, then ``u`` multiplies the first slot
    from the right inside its component."""
    half = comul_covered(P, x, left_g, right_g, v, side="right")
    out: Dict[Tuple, object] = {}
    for (la1, lb1, la2, lb2), c in half.terms.items():
        s1 = dcp_mul(P, left_g, LinComb.unit((la1, lb1)), u)
        for (la1n, lb1n), c2 in s1.terms.items():
            add_term(out, (la1n, lb1n, la2, lb2), c * c2)
    return LinComb(out)
