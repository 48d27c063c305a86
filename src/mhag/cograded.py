"""The group-graded direct sum of diagonal crossed components.

The object built here is a direct sum, over the automorphism-pair group,
of the twisted components provided by :mod:`mhag.crossed`.  Components at
distinct gradings multiply to zero; each component multiplies within
itself.  On top of that sit the graded comultiplication (evaluated in
covered form on one slot), the graded counit and antipode, the crossing
action that permutes components by conjugation, and the twisted
comultiplication obtained by composing with the crossing action on the
first slot.

Conventions
-----------
* A homogeneous component value is a ``LinComb`` over ``(A-label,
  B-label)`` pairs; the grading is carried alongside it (a ``GradedElem``
  maps gradings to values).
* ``comul_covered`` emits flat 4-tuples ``(A, B, A, B)``: the first pair
  is the slot at ``left_g``, the second the slot at ``right_g``.
* All sums are exact; covers are chosen so every intermediate is an
  honest element (never a formal multiplier).
* The grading-group product, the coproduct-leg order and the crossing
  action's B-leg map are read from the pairing (``P.pair_mul``,
  ``P.cop_first_leg``, ``P.skew``), where a session may plant a defect.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .crossed import (EngineError, b_embed_left, dcp_mul, twist_inv,
                      twist_map)
from .groups import AutPair, aut_pair_inv
from .linear import LinComb, add_term
from .pairing import Pairing


class GradedElem:
    """A finite sum of homogeneous components, keyed by grading."""

    __slots__ = ("components",)

    def __init__(self, components: Optional[Dict[AutPair, LinComb]] = None):
        comps = {}
        for g, v in (components or {}).items():
            if not v.is_zero():
                comps[g] = v
        self.components = comps

    @staticmethod
    def homogeneous(grading: AutPair, value: LinComb) -> "GradedElem":
        return GradedElem({grading: value})

    @staticmethod
    def zero() -> "GradedElem":
        return GradedElem({})

    def component(self, grading: AutPair) -> LinComb:
        return self.components.get(grading, LinComb.zero())

    def add(self, other: "GradedElem") -> "GradedElem":
        out = dict(self.components)
        for g, v in other.components.items():
            out[g] = out[g].add(v) if g in out else v
        return GradedElem(out)

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return (isinstance(other, GradedElem)
                and self.components == other.components)

    def __repr__(self):
        if not self.components:
            return "GradedElem(0)"
        parts = ", ".join(f"{g!r}: {v!r}" for g, v in self.components.items())
        return f"GradedElem({parts})"


def graded_mul(P: Pairing, x: GradedElem, y: GradedElem) -> GradedElem:
    """Componentwise product: matching gradings multiply inside their
    component, cross terms between distinct gradings vanish."""
    out: Dict[AutPair, LinComb] = {}
    for g, xv in x.components.items():
        yv = y.components.get(g)
        if yv is not None:
            out[g] = dcp_mul(P, g, xv, yv)
    return GradedElem(out)


def graded_counit(P: Pairing, value: LinComb):
    """Tensor counit on a component value (and, by linearity, on sums)."""
    total = None
    for (la, lb), c in value.terms.items():
        piece = c * P.A.counit(P.A.lc(la)) * P.B.counit(P.B.lc(lb))
        total = piece if total is None else total + piece
    if total is None:
        return P.field.zero()
    return total


def _second_leg_aut(P: Pairing, left_g: AutPair,
                    right_g: AutPair) -> "Automorphism":
    """The automorphism applied to the second comultiplication leg of the
    B-part.  Derived from the pairing's grading-group product so that a
    corrupted product law propagates faithfully into the comultiplication."""
    return right_g.beta.inverse().compose(P.pair_mul(left_g, right_g).beta)


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
    gamma = right_g.alpha
    gamma_p = _second_leg_aut(P, left_g, right_g)
    out: Dict[Tuple, object] = {}

    if side == "right":
        c = P.crossed_right_unit(right_g, cover)
        c0 = B.apply_aut(gamma_p.inverse(), c)
        for (la, lb), cx in x.terms.items():
            legs1 = B.t_pair(1, B.lc(lb), c0)      # sum b1 (x) b2*c0
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

    if side != "left":
        raise EngineError(f"unknown-comultiplication-side: {side!r}")
    if not B.is_unital:
        raise EngineError(
            "left-covered-comultiplication-requires-unital-B")
    alpha, beta = left_g
    one_b = B.unit()
    e = P.act_unit_B([t[0] for t in x.terms])
    cov_a = B.apply_aut(alpha.inverse(), e)
    for (la, lb), cx in x.terms.items():
        outer = B.t_pair(1, B.lc(lb), one_b)       # honest b1 (x) b2
        for (la2, lb2), cy in cover.terms.items():
            legs_uv = B.t_pair(3, B.lc(lb2), cov_a)
            for (u, v), c1 in legs_uv.terms.items():
                a_hit = P.act("b>>a", B.apply_aut(alpha, B.lc(u)), A.lc(la))
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
                        x1 = P.act("b>>a", actor, A.lc(s))
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


def graded_antipode(P: Pairing, grading: AutPair, x: LinComb,
                    inverse: bool = False) -> LinComb:
    """The graded antipode of a component value at ``grading``; the result
    lives at the group inverse of ``grading``.

    Forward: twist, at the inverse grading, of the tensor
    ``(alpha beta S_B(b)) (x) S_A^{-1}(a)``.  Inverse: undo the twist at
    ``grading`` and strip the factor maps.
    """
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
    # Inverse direction: x lives at `grading`; produce the unique value at
    # the inverse grading whose forward antipode is x.
    ginv = aut_pair_inv(grading)
    strip = ginv.beta.inverse().compose(ginv.alpha.inverse())
    back = twist_inv(P, grading, x)                # labels (B, A)
    out: Dict[Tuple, object] = {}
    for (zb, wa), c in back.terms.items():
        a_val = A.antipode(A.lc(wa))
        b_val = B.antipode(B.apply_aut(strip, B.lc(zb)), inverse=True)
        for la, c1 in a_val.terms.items():
            for lb, c2 in b_val.terms.items():
                add_term(out, (la, lb), c * c1 * c2)
    return LinComb(out)


def _xi_maps(P: Pairing, actor: AutPair, source: AutPair):
    """The two leg maps of the crossing action of ``actor`` on a component
    at ``source``: precomposition on the A-leg and an automorphism on the
    B-leg.  ``P.skew`` drops the source-conjugation from the B-leg (a
    defect planted for mutation testing)."""
    alpha, beta = actor
    pre = beta.compose(alpha.inverse())
    if P.skew:
        b_aut = alpha.compose(beta.inverse())
    else:
        gamma = source.alpha
        b_aut = alpha.compose(gamma.inverse()).compose(
            beta.inverse()).compose(gamma)
    return pre, b_aut


def xi_on_legs(P: Pairing, actor: AutPair, source: AutPair, value: LinComb,
               a_idx: int, b_idx: int) -> LinComb:
    """Apply the crossing action of ``actor`` to the crossed slot of a flat
    tensor occupying label positions ``(a_idx, b_idx)``."""
    pre, b_aut = _xi_maps(P, actor, source)
    out: Dict[Tuple, object] = {}
    for label, c in value.terms.items():
        av = P.precompose_A(pre, P.A.lc(label[a_idx]))
        bv = P.B.apply_aut(b_aut, P.B.lc(label[b_idx]))
        for la, c2 in av.terms.items():
            for lb, c3 in bv.terms.items():
                nl = list(label)
                nl[a_idx] = la
                nl[b_idx] = lb
                add_term(out, tuple(nl), c * c2 * c3)
    return LinComb(out)


def crossing_apply(P: Pairing, actor: AutPair, source: AutPair, x: LinComb
                   ) -> Tuple[AutPair, LinComb]:
    """Apply the crossing action of ``actor`` to a component value at
    ``source``; returns the target grading (the conjugate of ``source``
    by ``actor``) together with the transformed value."""
    mul = P.pair_mul
    target = mul(mul(actor, source), aut_pair_inv(actor))
    return target, xi_on_legs(P, actor, source, x, 0, 1)


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
