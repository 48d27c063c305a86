"""Dual pairings between multiplier Hopf algebra instances.

A pairing couples an instance ``A`` (function-like side) with an instance
``B`` (group-like side) through a nondegenerate bilinear form that exchanges
products and coproducts.  It induces four module actions, each computed here
*exactly* through T-maps plus a finite "action unit" that absorbs the
comultiplication cover:

    b |> a = <a_(2), b> a_(1)        a <| b = <a_(1), b> a_(2)
    a |> b = <a, b_(2)> b_(1)        b <| a = <a, b_(1)> b_(2)

Every pairing here matches equal labels: a basis label of A pairs to 1
with the same label of B and to 0 with every other.  So the canonical
duality multiplier W is ``sum_l l (x) l`` over the basis labels of B, one
class kept lazy when infinite, with candidate solvers per pairing.  The
pairing also owns the "crossed right unit": a finite element of B whose
embedded image acts as the identity on a given finite crossed-product
value — the cover everything in the graded layer leans on.

The graded layers read W and the flag ``cop_first_leg`` from the
pairing, and their grading-group arithmetic from its grading tables: the
product, filled from the grading law ``pair_mul``, the inverse, and the
automorphisms each layer derives from its gradings, some of which read
the flag ``skew``.  The pairing is built honest; :mod:`mhag.session`
plants a named defect on a session's own pairing before any table fills.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .cograded import split_fill
from .crossed import dcp_fill, twist_fill
from .groups import (AutPair, Automorphism, Group, GroupError, aut_pair_inv,
                     aut_pair_mul)
from .linear import BasisTable, LinComb, add_scaled, add_term
from .mha import (DrinfeldDouble, DualDrinfeld, FiniteDimHopf,
                  FunctionAlgebra, GroupAlgebra, MhaInstance)
from .quasitri import w_left_fill
from .scalars import Field, RationalField


class PairingError(ValueError):
    """Raised for malformed or unusable pairing data."""


# One row per module action: whether the target lies in A (else in B), the
# T-map of the target's instance, whether the action unit stands left of
# the target, and the leg of the T-image paired with the actor (the other
# leg is kept).
_ACTIONS = {
    "b>>a": (True, 1, False, 1),        # sum a1 (x) a2*c, pair a2 with b
    "a<<b": (True, 2, True, 0),         # sum c*a1 (x) a2, pair a1 with b
    "a>>b": (False, 1, False, 1),       # sum b1 (x) b2*e, pair b2 with a
    "b<<a": (False, 2, True, 0),        # sum e*b1 (x) b2, pair b1 with a
}


class GradingAuts(NamedTuple):
    """What the graded layers derive from one grading ``(alpha, beta)``."""

    inv: AutPair                 # the group inverse, by aut_pair_inv
    beta_inv: Automorphism       # beta^-1
    alpha_beta: Automorphism     # alpha beta: the forward graded antipode
    strip: Automorphism          # beta'^-1 alpha'^-1 of the inverse grading
    quotient: Automorphism       # alpha beta^-1
    quotient_inv: Automorphism   # beta alpha^-1


class Crossing(NamedTuple):
    """The crossing action of an actor on a component: the target grading
    and the maps applied to the A-leg and the B-leg."""

    target: AutPair
    a_aut: Automorphism
    b_aut: Automorphism


class Pairing:
    """Base class: exact action evaluation over per-basis pairing values."""

    A: MhaInstance
    B: MhaInstance
    field: Field
    name: str
    w: "CanonicalW"

    def __init__(self):
        # Basis twists, keyed (grading, b_label, a_label), and basis
        # products, keyed (grading, x_label, y_label): see crossed.twist_map
        # and crossed.dcp_mul.
        self._twc = BasisTable(partial(twist_fill, self))
        self._dcp = BasisTable(partial(dcp_fill, self))
        # W applied from the left to one basis tensor, keyed (binv,
        # grading, the B-label or the crossed slot's two labels, A-label),
        # read where ``w_from_table`` is set, and the legs of the split of
        # one B-label covered by B's unit, keyed (b_label, right_g,
        # gamma_p, gamma_p_inv), read whenever B is unital: see
        # quasitri._w_left and cograded.b_split.
        self._wl = BasisTable(partial(w_left_fill, self))
        self._bsp = BasisTable(partial(split_fill, self))
        # Basis actions, keyed (variant, actor, target): see act_into.
        self._act = BasisTable(self._act_basis)
        # The grading tables, filled lazily because the grading group may
        # be infinite: the product, keyed (p, q), read from ``pair_mul``
        # when an entry is computed; per grading, keyed by it, its inverse
        # and derived automorphisms; and, keyed by a pair of gradings, the
        # second-leg automorphism of a split, the crossing action and the
        # automorphisms of the second intertwiner law.
        self._gmul = BasisTable(lambda p, q: self.pair_mul(p, q))
        self._gaut = BasisTable(self._grading_fill)
        self._split = BasisTable(self._split_fill)
        self._cross = BasisTable(self._crossing_fill)
        self._wbaut = BasisTable(self._w_b_fill)
        # The grading-group product, whether the co-opposite A-leg goes on
        # the first coproduct slot, and whether the crossing action drops
        # its source-conjugation on the B-leg.
        self.pair_mul = aut_pair_mul
        self.cop_first_leg = True
        self.skew = False
        # Whether W on a basis tensor is read from ``_wl``: set by the
        # pairings whose basis tensors recur, else computed afresh.
        self.w_from_table = False

    def pair_basis(self, la, lb):
        """The form on basis labels: equal labels pair to 1, others to 0."""
        return self.field.one() if la == lb else self.field.zero()

    def pair(self, a: LinComb, b: LinComb):
        total = self.field.zero()
        for la, ca in a.terms.items():
            for lb, cb in b.terms.items():
                v = self.pair_basis(la, lb)
                if v:
                    total = total + ca * cb * v
        return total

    # -- grading-group arithmetic ----------------------------------------------
    def _grading_fill(self, alpha: Automorphism,
                      beta: Automorphism) -> GradingAuts:
        """The inverse of the grading ``(alpha, beta)`` and the
        automorphisms derived from it alone: the fill of ``_gaut``."""
        ginv = aut_pair_inv(AutPair(alpha, beta))
        binv = beta.inverse()
        return GradingAuts(
            inv=ginv, beta_inv=binv, alpha_beta=alpha.compose(beta),
            strip=ginv.beta.inverse().compose(ginv.alpha.inverse()),
            quotient=alpha.compose(binv),
            quotient_inv=beta.compose(alpha.inverse()))

    def _split_fill(self, left_g: AutPair,
                    right_g: AutPair) -> Tuple[Automorphism, Automorphism]:
        """The automorphism applied to the second comultiplication leg of
        the B-part at the split ``(left_g, right_g)``, and its inverse: the
        fill of ``_split``.  It is derived from the product table, so a
        planted product law propagates into the comultiplication."""
        gamma_p = right_g.beta.inverse().compose(
            self._gmul[left_g, right_g].beta)
        return gamma_p, gamma_p.inverse()

    def _crossing_fill(self, actor: AutPair, source: AutPair) -> Crossing:
        """The crossing action of ``actor`` on a component at ``source``:
        the fill of ``_cross``.  The target is the conjugate of ``source``
        by ``actor`` in the product table.  ``skew`` drops the
        source-conjugation from the B-leg map."""
        alpha, beta = actor
        target = self._gmul[self._gmul[actor, source], self._gaut[actor].inv]
        pre = beta.compose(alpha.inverse())
        if self.skew:
            b_aut = alpha.compose(beta.inverse())
        else:
            gamma = source.alpha
            b_aut = alpha.compose(gamma.inverse()).compose(
                beta.inverse()).compose(gamma)
        return Crossing(target, pre.inverse(), b_aut)

    def _w_b_fill(self, p: AutPair, q: AutPair) -> Tuple[Automorphism, ...]:
        """The automorphisms of ``quasitri.w_intertwiner_residual_b`` with
        the twist from ``p`` and the crossed value at ``q = (gamma,
        delta)``: ``gamma_p = gamma^-1 beta gamma`` and ``aut1 = beta^-1
        delta gamma_p``, each followed by its inverse.  The fill of
        ``_wbaut``."""
        beta = p.beta
        gamma, delta = q
        gamma_p = gamma.inverse().compose(beta).compose(gamma)
        aut1 = beta.inverse().compose(delta).compose(gamma_p)
        return gamma_p, gamma_p.inverse(), aut1, aut1.inverse()

    # -- actions ---------------------------------------------------------------
    def _act_basis(self, variant: str, actor, target) -> tuple:
        """One of the four module actions of the basis label ``actor`` on the
        basis label ``target``, as a tuple of terms: the fill of ``_act``.

        ``variant`` is one of ``"b>>a"`` (actor in B, target in A, result in
        A), ``"a<<b"`` (actor in B, target in A), ``"a>>b"`` (actor in A,
        target in B), ``"b<<a"`` (actor in A, target in B).  The T-image of
        the target against an action unit is contracted on one leg with the
        actor through the form, as ``_ACTIONS`` says.  The action unit is
        the local unit of the actor's label in the target's instance: the
        two sides share their basis labels, and check_duality's unit laws
        hold for that local unit.  The form is read from ``pair_basis`` when
        the fill runs.
        """
        try:
            on_a, t, unit_first, leg = _ACTIONS[variant]
        except KeyError:
            raise PairingError(f"action-variant-unknown: {variant!r}") from None
        X = self.A if on_a else self.B
        t_image, pair_basis = X.t_image, self.pair_basis
        out: Dict = {}
        for lu, cu in X.local_unit_for([actor]).terms.items():
            legs = (t_image(t, lu, target) if unit_first
                    else t_image(t, target, lu))
            for pair, c in legs.terms.items():
                v = (pair_basis(pair[leg], actor) if on_a
                     else pair_basis(actor, pair[leg]))
                if v:
                    add_term(out, pair[1 - leg], cu * c * v)
        return tuple(out.items())

    def act_into(self, out: Dict, variant: str, scale, actor, target) -> None:
        """Add ``scale`` times one of the four module actions of the basis
        label ``actor`` on the basis label ``target`` (see ``_act_basis``)
        to the term dict ``out``, read from the action table."""
        add_scaled(out, self._act[variant, actor, target], scale)

    def act(self, variant: str, actor: LinComb, target: LinComb) -> LinComb:
        """One of the four module actions on values, term by term through
        ``act_into``."""
        out: Dict = {}
        for la, ca in actor.terms.items():
            for lt, ct in target.terms.items():
                self.act_into(out, variant, ca * ct, la, lt)
        return LinComb(out)

    # -- covers -------------------------------------------------------------------
    def crossed_right_unit(self, grading: AutPair, value: LinComb) -> LinComb:
        """A finite c in B whose left-embedded image fixes ``value``: the
        crossed product of c against the given (A-label, B-label) value at the
        given grading returns the value unchanged.  Default: the unit of B."""
        return self.B.unit()

    # -- validation (duality laws on sampled/basis labels) -------------------------
    def check_duality(self, a_labels, b_labels) -> Optional[str]:
        """Verify the pairing laws on the given label families.

        Checks product/coproduct exchange in both directions, antipode
        compatibility and the unit laws; returns a diagnostic string on the
        first failure in loop order, or None.  Comultiplications are
        evaluated through T-maps (in the action table), so this works over
        infinite instances too.

        Each law is compared sparsely.  Both sides of every case are summed
        into a term dict keyed by the case, from nonzero terms only: a
        basis product, action or antipode image is read once, and each of
        its labels pairs through one form row of the nonzero values of
        ``pair_basis`` against the other family.  The two dicts are then
        compared once, and the differing key that comes first in loop order
        is the diagnostic.
        """
        A, B = self.A, self.B
        pair_basis, act = self.pair_basis, self._act
        zero = self.field.zero()
        a_labels = list(dict.fromkeys(a_labels))
        b_labels = list(dict.fromkeys(b_labels))

        def form_rows(labels, on_a):
            """A lazy map from a label l (of A when ``on_a``, else of B) to
            its nonzero form values ``(m, <l, m>)`` (``<m, l>`` for l in B)
            over the labels m of ``labels``."""
            rows: Dict = {}

            def row(l):
                if l not in rows:
                    values = ((m, pair_basis(l, m) if on_a
                               else pair_basis(m, l)) for m in labels)
                    rows[l] = [(m, v) for m, v in values if v]
                return rows[l]
            return row

        def first_difference(lhs, rhs, *families):
            """The key at which ``lhs`` and ``rhs`` differ whose components
            come first in ``families``, or None."""
            order = [{l: i for i, l in enumerate(f)} for f in families]
            bad = [k for k in lhs.keys() | rhs.keys()
                   if not (lhs.get(k, zero) == rhs.get(k, zero))]
            return min(bad, default=None,
                       key=lambda k: tuple(o[c] for o, c in zip(order, k)))

        # <f, x y> = <f1, x><f2, y> on basis f in A and x, y in B (tag "B"),
        # and <x y, f> = <x, f1><y, f2> on basis f in B and x, y in A (tag
        # "A").  The left side pairs the basis product x y with f; the right
        # side pairs the action of x on f with y.
        for tag, name, fixed, factors, X, variant in (
                ("B", "a", a_labels, b_labels, B, "a<<b"),
                ("A", "b", b_labels, a_labels, A, "b<<a")):
            on_a = X is A
            column, row = form_rows(fixed, on_a), form_rows(factors, not on_a)
            lhs: Dict = {}
            rhs: Dict = {}
            for x in factors:
                for y in factors:
                    for lz, cz in X.mul_basis(x, y).terms.items():
                        for f, v in column(lz):
                            add_term(lhs, (f, x, y), cz * v)
            for f in fixed:
                for x in factors:
                    for l, c in act[variant, x, f]:
                        for y, v in row(l):
                            add_term(rhs, (f, x, y), c * v)
            bad = first_difference(lhs, rhs, fixed, factors, factors)
            if bad is not None:
                f, x, y = bad
                F = B if on_a else A
                return (f"pairing-product-law-fails({tag}): "
                        f"{name}={F.label_text(f)}, x={X.label_text(x)}, "
                        f"y={X.label_text(y)}")
        # <S(a), b> = <a, S(b)>, with each antipode read once per label.
        to_b, to_a = form_rows(b_labels, True), form_rows(a_labels, False)
        lhs = {}
        rhs = {}
        for la in a_labels:
            for lz, cz in A.antipode_basis(la).terms.items():
                for lb, v in to_b(lz):
                    add_term(lhs, (la, lb), cz * v)
        for lb in b_labels:
            for lw, cw in B.antipode_basis(lb).terms.items():
                for la, v in to_a(lw):
                    add_term(rhs, (la, lb), cw * v)
        bad = first_difference(lhs, rhs, a_labels, b_labels)
        if bad is not None:
            la, lb = bad
            return (f"pairing-antipode-law-fails: a={A.label_text(la)}, "
                    f"b={B.label_text(lb)}")
        # unit laws through the action units
        for la in a_labels:
            a = A.lc(la)
            e = B.local_unit_for([la])
            if not (self.pair(a, e) == A.counit(a)):
                return f"pairing-unit-law-fails(B): a={A.label_text(la)}"
        for lb in b_labels:
            b = B.lc(lb)
            c = A.local_unit_for([lb])
            if not (self.pair(c, b) == B.counit(b)):
                return f"pairing-unit-law-fails(A): b={B.label_text(lb)}"
        return None


class CanonicalW:
    """The canonical duality multiplier W = sum_l l (x) l over the basis
    labels l of B: the label l of A is the dual basis element of the label l
    of B, because the pairing matches equal labels.  Its enumeration is lazy
    where the sum is infinite.

    Terms are ``(b_label, a_label, coeff)`` triples.  The ``candidates_*``
    solvers return the finitely many terms that can survive a given
    application context (everything else is annihilated by a point-mass
    product), which is what keeps applications exact over infinite instances.
    By default every solver returns the whole enumeration.
    """

    def __init__(self, pairing: Pairing):
        self.P = pairing

    def all_terms(self) -> List[Tuple]:
        try:
            return self.window_terms(None)
        except GroupError:
            raise PairingError(
                "w-not-enumerable: infinite canonical multiplier; "
                "use a candidate solver or a window") from None

    def window_terms(self, window: Optional[int]) -> List[Tuple]:
        """The terms over the basis labels of B in ``window``; truncated
        enumeration for display/comparison over infinite bases."""
        one = self.P.field.one()
        return [(l, l, one) for l in self.P.B.basis_labels(window)]

    def candidates_left(self, a_labels: Iterable) -> List[Tuple]:
        """Terms surviving left A-multiplication wa * x for x in the span."""
        return self.all_terms()

    def candidates_right(self, grading: AutPair, a_label, b_label) -> List[Tuple]:
        """Terms surviving right-embedding against a crossed term at the
        given grading: (a_label |x| b_label) * (wa |x| 1)."""
        return self.all_terms()

    def candidates_pairs(self, labels1: Iterable, labels2: Iterable) -> List[Tuple]:
        """Terms whose A-coproduct can hit point masses with the given label
        pairs (used by the comultiplication identities of W)."""
        return self.all_terms()

    def pair_against(self, a: LinComb, b: LinComb):
        """<W, a (x) b> where the A-leg of W pairs with b and the B-leg with a."""
        P = self.P
        total = P.field.zero()
        for wb, wa, cw in self.candidates_left(b.support()):
            for la, ca in a.terms.items():
                v1 = P.pair_basis(la, wb)
                if not v1:
                    continue
                for lb, cb in b.terms.items():
                    v2 = P.pair_basis(wa, lb)
                    if v2:
                        total = total + cw * ca * cb * v1 * v2
        return total


class _GroupW(CanonicalW):
    """W = sum_g (g in B) (x) (point mass at g in A); lazy over infinite H."""

    def candidates_left(self, a_labels):
        one = self.P.field.one()
        return [(x, x, one) for x in dict.fromkeys(a_labels)]

    def candidates_right(self, grading, a_label, b_label):
        g = self.P.B.group
        alpha, beta = grading
        lbl = g.op(g.op(g.inv(beta(b_label)), a_label), alpha(b_label))
        return [(lbl, lbl, self.P.field.one())]

    def candidates_pairs(self, labels1, labels2):
        g = self.P.B.group
        one = self.P.field.one()
        out = {}
        for u in labels1:
            for v in labels2:
                out[g.op(u, v)] = None
        return [(x, x, one) for x in out]


class _DrinfeldW(CanonicalW):
    """W for the double pairing; eager when finite, windowed otherwise, with a
    partial solver that pins the point-mass coordinate."""

    def candidates_left(self, a_labels):
        g = self.P.B.group
        if g.is_finite:
            return self.all_terms()
        # A-mult only pins the point-mass coordinate; the group coordinate
        # stays free, so an exact finite candidate set does not exist.
        raise PairingError(
            "w-not-enumerable: the double pairing over an infinite group has "
            "no finite surviving-term set; windowed application only")


class GroupPairing(Pairing):
    """Functions-on-H paired with the group algebra of H by evaluation."""

    def __init__(self, group: Group, field: Optional[Field] = None):
        super().__init__()
        self.group = group
        self.field = field or RationalField()
        self.A = FunctionAlgebra(group, self.field)
        self.B = GroupAlgebra(group, self.field)
        self.name = "group"
        self.w = _GroupW(self)
        # On a finite group the basis tensors that W meets recur: 97 % of
        # them on the exhaustive S3 workload.  Over Z a third do.
        self.w_from_table = group.is_finite


class FiniteDimPairing(Pairing):
    """A structure-constant instance paired with its transpose dual
    (``FiniteDimHopf.dual``), either way round.  The dual's structure maps
    are the transposes of the instance's on the same labels, so the form
    matches equal labels and is nondegenerate, and W is
    ``sum_i e_i (x) e_i``."""

    def __init__(self, A: FiniteDimHopf, B: FiniteDimHopf):
        super().__init__()
        if A.field != B.field:
            raise PairingError("pairing-field-mismatch")
        self.A = A
        self.B = B
        self.field = A.field
        self.name = "finite-dim"
        self.w = CanonicalW(self)
        # The structure-constant instances here are small (H4, a rescaled
        # S3; no workload runs one), so their basis tensors recur as S3's.
        self.w_from_table = True

    @staticmethod
    def from_instance(B: FiniteDimHopf) -> "FiniteDimPairing":
        return FiniteDimPairing(B.dual(), B)


class DrinfeldPairing(Pairing):
    """The mirrored double paired with the double by matching labels."""

    def __init__(self, group: Group, field: Optional[Field] = None):
        super().__init__()
        self.group = group
        self.field = field or RationalField()
        self.A = DualDrinfeld(group, self.field)
        self.B = DrinfeldDouble(group, self.field)
        self.name = "double"
        # W is computed afresh: the double of S3 has 36 labels a side, and
        # on the sampled workload 13 % of the basis tensors W meets recur.
        self.w = _DrinfeldW(self)

    def crossed_right_unit(self, grading: AutPair, value: LinComb) -> LinComb:
        if self.B.is_unital:
            return self.B.unit()
        g = self.group
        gamma, delta = grading
        e = g.identity
        ws = []
        for (la, lb) in value.support():
            h, p = la
            x, _y = lb
            w = g.op(g.op(delta.inverse()(g.inv(h)), x),
                     gamma.inverse()(g.conj(g.inv(p), h)))
            ws.append(w)
        return LinComb(dict.fromkeys(((w, e) for w in ws), self.field.one()))
