"""The diagonal crossed product of a pairing, twisted by a pair of
automorphisms.

A component value is a linear combination over labels ``(a_label, b_label)``
— written a |x| b below — with the product

    (a |x| b)(a' |x| b') = a (alpha(b_(1)) |> a' <| S^-1 beta(b_(3))) |x| b_(2) b'

for the component's automorphism pair (alpha, beta).  The workhorse is the
twist: the bijection B (x) A -> A (x) B sending b (x) a to
(alpha(b_(1)) |> a <| S^-1 beta(b_(3))) (x) b_(2).  It factors through four
elementary moves (one action each), every one computed through a T-map whose
cover is absorbed against an action unit — so each step is exact and finite
even when the comultiplication of B is not.

Multiplier embeddings: A embeds on the left of a value label-by-label, and B
on the left through the twist.  Both read basis products and basis twists
from the tables of the instances and the pairing, term by term, and build
no value in between.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable

from .groups import AutPair, Automorphism
from .linear import LinComb, add_scaled, add_term

if TYPE_CHECKING:
    from .pairing import Pairing


class EngineError(ValueError):
    """Raised when an evaluation strategy is unavailable for an instance."""


# -- elementary twist moves (A (x) B -> A (x) B, labels (la, lb)) -------------

# One row per move, keyed (variant, inverse): the T-map of B, whether the
# cover stands left of b, the action, and the coproduct leg that acts.
#   (1, False): (la, lb) -> sum (alpha(b_(1)) |> a, b_(2))
#   (1, True):  (la, lb) -> sum (S^-1 alpha(b_(1)) |> a, b_(2))
#   (2, False): (la, lb) -> sum (a <| beta(b_(2)), b_(1))
#   (2, True):  (la, lb) -> sum (a <| S^-1 beta(b_(2)), b_(1))
_MOVES = {
    (1, False): (3, False, "b>>a", 0),          # sum b1*cov (x) b2
    (1, True): (2, True, "b>>a", 0),            # sum cov*b1 (x) b2
    (2, False): (4, True, "a<<b", 1),           # sum b1 (x) cov*b2
    (2, True): (1, False, "a<<b", 1),           # sum b1 (x) b2*cov
}


def _move(P: Pairing, variant: int, phi: Automorphism, x: LinComb,
          inverse: bool = False) -> LinComb:
    """One elementary move of the twist, read from ``_MOVES``.  The inverse
    moves cover with S(e) and act with S^-1 phi."""
    t, cov_first, action, leg = _MOVES[variant, inverse]
    B = P.B
    t_image, aut, act_into = B.t_image, B.aut_basis, P.act_into
    antipode, one = B.antipode_basis, P.field.one()
    out: Dict = {}
    e = B.local_unit_for([la for la, _ in x.terms])
    cov = B.apply_aut(phi.inverse(), B.antipode(e) if inverse else e).terms
    for (la, lb), c in x.terms.items():
        for lv, cv in cov.items():
            legs = t_image(t, lv, lb) if cov_first else t_image(t, lb, lv)
            for pair, c1 in legs.terms.items():
                actor = aut(phi, pair[leg])
                actors = (antipode(actor, True).terms.items()
                          if inverse else ((actor, one),))
                cc = c * cv * c1
                hit: Dict = {}
                for ls, cs in actors:
                    act_into(hit, action, cc * cs, ls, la)
                kept = pair[1 - leg]
                for la2, c2 in hit.items():
                    add_term(out, (la2, kept), c2)
    return LinComb(out)


def twist_fill(P: Pairing, grading: AutPair, lb, la) -> tuple:
    """The twist of one basis term b (x) a, as a tuple of (la', lb')
    terms: the fill of ``P._twc``."""
    alpha, beta = grading
    unit = LinComb.unit((la, lb), P.field.one())
    moved = _move(P, 2, beta, unit, inverse=True)
    return tuple(_move(P, 1, alpha, moved).terms.items())


def twist_map(P: Pairing, grading: AutPair, x_ba: LinComb) -> LinComb:
    """The twist at a grading: labels (lb, la) -> sum over (la', lb').

    The twist is linear and its covers are absorbed, so it is fixed by its
    value on each basis term; those values are read from ``P._twc``."""
    twc = P._twc
    out: Dict = {}
    for (lb, la), c in x_ba.terms.items():
        add_scaled(out, twc[grading, lb, la], c)
    return LinComb(out)


def twist_inv(P: Pairing, grading: AutPair, x_ab: LinComb) -> LinComb:
    """Inverse twist: labels (la, lb) -> sum over (lb', la')."""
    alpha, beta = grading
    moved = _move(P, 1, alpha, x_ab, inverse=True)
    return _move(P, 2, beta, moved).map_labels(lambda t: (t[1], t[0]))


# -- multiplier embeddings -----------------------------------------------------
#
# The two left embeddings have one term-level core each, which adds the
# embedding of one basis label, scaled, into a caller's term dict; ``y_items``
# are the ``((a_label, b_label), coeff)`` items of a crossed value.

def a_left_into(P: Pairing, out: Dict, scale, la, y_items: Iterable) -> None:
    """Add ``scale * (la |x| 1) * y`` to the term dict ``out``."""
    mul_basis = P.A.mul_basis
    for (la1, lb), c in y_items:
        prod = mul_basis(la, la1).terms
        if prod:
            cc = scale * c
            for la2, c2 in prod.items():
                add_term(out, (la2, lb), cc * c2)


def b_left_into(P: Pairing, grading: AutPair, out: Dict, scale, lb,
                y_items: Iterable) -> None:
    """Add ``scale * (1 |x| lb) * y`` to the term dict ``out``: ``lb`` is
    pulled through the A-part of every term of y, one basis twist and basis
    product at a time."""
    mul_basis, twc = P.B.mul_basis, P._twc
    for (la, lb2), c in y_items:
        cs = scale * c
        for (la2, lb1), c1 in twc[grading, lb, la]:
            prod = mul_basis(lb1, lb2).terms
            if prod:
                cc = cs * c1
                for lb3, c2 in prod.items():
                    add_term(out, (la2, lb3), cc * c2)


def b_embed_left(P: Pairing, grading: AutPair, b: LinComb, y: LinComb) -> LinComb:
    """(1 |x| b) * y, via the twist, term by term through ``b_left_into``."""
    out: Dict = {}
    y_items = y.terms.items()
    for lb, cb in b.terms.items():
        b_left_into(P, grading, out, cb, lb, y_items)
    return LinComb(out)


def dcp_mul(P: Pairing, grading: AutPair, x: LinComb, y: LinComb) -> LinComb:
    """The full component product x * y at a grading (both values are
    (A-label, B-label) combinations; the grading is the LEFT factor's).

    The product is bilinear, so it is fixed by its value on pairs of basis
    terms; those values are read from ``P._dcp``."""
    dcp = P._dcp
    out: Dict = {}
    for xl, c in x.terms.items():
        for yl, cy in y.terms.items():
            add_scaled(out, dcp[grading, xl, yl], c * cy)
    return LinComb(out)


def dcp_assoc_residual(P: Pairing, grading: AutPair, xl, yl, zl):
    """Both bracketings of the product of three basis terms at a grading,
    ``((x y) z, x (y z))``, read from ``P._dcp`` by label."""
    dcp = P._dcp
    left: Dict = {}
    for l, c in dcp[grading, xl, yl]:
        add_scaled(left, dcp[grading, l, zl], c)
    right: Dict = {}
    for l, c in dcp[grading, yl, zl]:
        add_scaled(right, dcp[grading, xl, l], c)
    return LinComb(left), LinComb(right)


def dcp_fill(P: Pairing, grading: AutPair, xl, yl) -> tuple:
    """The product of two basis terms, as a tuple of terms: the fill of
    ``P._dcp``.  (a |x| b) * y' is (a |x| 1) * ((1 |x| b) * y')."""
    one = P.field.one()
    la, lb = xl
    mid: Dict = {}
    b_left_into(P, grading, mid, one, lb, ((yl, one),))
    prod: Dict = {}
    a_left_into(P, prod, one, la, mid.items())
    return tuple(prod.items())


def commutation_residual(P: Pairing, grading: AutPair, a: LinComb,
                         b: LinComb, y: LinComb):
    """Both sides of the embedded commutation rule, applied to a value y:

        sum (1 |x| beta^-1(b_(1))) ((a <| b_(2)) |x| 1) * y
        == sum ((alpha beta^-1(b_(1)) |> a) |x| beta^-1(b_(2))) * y

    Returns the pair (lhs, rhs); equality for all inputs is the component's
    commutation law.
    """
    B = P.B
    aut, act_into = B.aut_basis, P.act_into
    derived = P._gaut[grading]
    binv = derived.beta_inv
    a_items = a.terms.items()
    y_items = y.terms.items()
    e = B.local_unit_for(a.support())
    lhs: Dict = {}
    legs = B.t_pair(4, e, b)                       # sum b1 (x) e*b2
    for (u, v), c1 in legs.terms.items():
        av: Dict = {}
        for la, ca in a_items:
            act_into(av, "a<<b", ca, v, la)
        inner: Dict = {}
        for la, ca in av.items():
            a_left_into(P, inner, ca, la, y_items)
        b_left_into(P, grading, lhs, c1, aut(binv, u), inner.items())
    rhs: Dict = {}
    ab_inv = derived.quotient
    cov = B.apply_aut(derived.quotient_inv, e)
    legs2 = B.t_pair(3, b, cov)                    # sum b1*cov (x) b2
    for (u, v), c1 in legs2.terms.items():
        au: Dict = {}
        lu = aut(ab_inv, u)
        for la, ca in a_items:
            act_into(au, "b>>a", ca, lu, la)
        lv = aut(binv, v)
        elem = LinComb({(la, lv): ca for la, ca in au.items()})
        add_scaled(rhs, dcp_mul(P, grading, elem, y).terms.items(), c1)
    return LinComb(lhs), LinComb(rhs)
